"""Versioned snapshot store: round trips, retention, crash drills, refusals.

A version is two files — ``system-vN.npz`` (optional) and ``index-vN.npz``
(the commit marker), written in that order — at every shard count.
Lineages written by older builds also hold a ``plan-vN.json`` per version:
loads ignore it and retention prunes it with its version.
"""

import json

import numpy as np
import pytest
from scipy import sparse

import repro.core.index as index_module
from repro.config import ShardingParams, SimRankParams
from repro.core.index import (
    BuildInfo,
    DiagonalIndex,
    SnapshotStore,
)
from repro.core.sharding import ShardedIncrementalWalker
from repro.errors import CloudWalkerError
from repro.graph import generators


@pytest.fixture()
def index():
    params = SimRankParams.fast_defaults()
    return DiagonalIndex(
        diagonal=np.linspace(0.4, 1.0, 12), params=params,
        graph_name="toy", n_nodes=12, n_edges=30,
        build_info=BuildInfo(execution_model="incremental"),
    )


def _bump(index, version):
    """A distinguishable index payload per version."""
    return DiagonalIndex(
        diagonal=index.diagonal + version * 0.001, params=index.params,
        graph_name=index.graph_name, n_nodes=index.n_nodes,
        n_edges=index.n_edges + version, build_info=index.build_info,
    )


def _names(directory):
    return sorted(path.name for path in directory.iterdir())


def _assert_same_csr(loaded, written):
    assert loaded.shape == written.shape
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(loaded, name), getattr(written, name)
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


class TestRoundTrip:
    def test_save_load_latest(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.save_snapshot(index) == 1
        version, loaded, system = store.load()
        assert version == 1
        assert np.array_equal(loaded.diagonal, index.diagonal)
        assert loaded.params == index.params
        assert system is None

    def test_versions_assigned_monotonically(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        assert [store.save_snapshot(_bump(index, v))
                for v in range(3)] == [1, 2, 3]
        assert store.versions() == [1, 2, 3]
        assert store.latest_version() == 3

    def test_load_specific_version(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_bump(index, 1))
        store.save_snapshot(_bump(index, 2))
        assert store.load(1)[1].n_edges == index.n_edges + 1
        assert store.load(2)[1].n_edges == index.n_edges + 2
        with pytest.raises(CloudWalkerError, match="not a snapshot"):
            store.load(9)

    def test_versions_only_move_forward(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(index, version=5)
        before = store.index_path(5).stat().st_mtime_ns
        # An already-listed version is a no-op, not a rewrite.
        assert store.save_snapshot(_bump(index, 1), version=5) == 5
        assert store.index_path(5).stat().st_mtime_ns == before
        assert store.load(5)[1].n_edges == index.n_edges
        with pytest.raises(CloudWalkerError, match="must increase"):
            store.save_snapshot(index, version=3)
        assert store.save_snapshot(index, version=9) == 9

    def test_load_empty_store_raises(self, tmp_path):
        with pytest.raises(CloudWalkerError, match="no snapshots"):
            SnapshotStore(tmp_path / "nowhere").load()
        assert SnapshotStore(tmp_path / "nowhere").versions() == []

    def test_describe_reads_metadata_without_full_load(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(index, system=sparse.identity(12, format="csr"))
        store.save_snapshot(index)
        assert store.describe(1) == {
            "n_nodes": 12, "n_edges": 30, "has_system": True,
        }
        assert store.describe(2)["has_system"] is False
        with pytest.raises(CloudWalkerError):
            store.describe(99)

    def test_store_lineage_opens_in_the_service(self, tmp_path):
        """``SnapshotStore.save_snapshot`` writes the one layout
        ``from_snapshot`` reads, system included, at any K."""
        from repro.service import QueryService

        params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=3,
                               index_walkers=20, query_walkers=40, seed=5)
        graph = generators.copying_model_graph(60, out_degree=3, seed=2)
        walker = ShardedIncrementalWalker(graph, params=params)
        walker.build()
        assert SnapshotStore(tmp_path / "one").save_snapshot(
            walker.index, system=walker.system) == 1
        for num_shards in (1, 3):
            sharding = ShardingParams(num_shards=num_shards)
            with QueryService.from_snapshot(graph, tmp_path / "one",
                                            sharding=sharding) as restored:
                assert restored.num_shards == num_shards
                _assert_same_csr(restored._walker.system, walker.system)

    def test_every_version_is_two_files(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        for _ in range(2):
            store.save_snapshot(index, system=sparse.identity(12, format="csr"))
        assert _names(tmp_path) == [
            f"{kind}-v0000000{version}.npz"
            for kind in ("index", "system") for version in (1, 2)
        ]


    def test_a_version_without_a_system_is_one_file(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(index, system=sparse.identity(12, format="csr"))
        store.save_snapshot(_bump(index, 2))
        store.save_snapshot(_bump(index, 3),
                            system=sparse.identity(12, format="csr") * 3.0)
        assert _names(tmp_path) == [
            "index-v00000001.npz", "index-v00000002.npz",
            "index-v00000003.npz", "system-v00000001.npz",
            "system-v00000003.npz",
        ]
        assert store.load(2)[2] is None
        assert store.load(1)[2] is not None
        assert store.load()[2].data[0] == 3.0


class TestSystemPersistence:
    def test_system_round_trips_bitwise(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        system = sparse.random(12, 12, density=0.3, random_state=3, format="csr")
        version = store.save_snapshot(index, system=system)
        _version, _loaded, loaded = store.load(version)
        _assert_same_csr(loaded, system)

    def test_maintained_system_loads_byte_equal(self, tmp_path):
        """The walker's system is written as maintained — no slicing, no
        sum — at any K, before and after an update splices it."""
        params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=3,
                               index_walkers=20, query_walkers=40, seed=5)
        graph = generators.copying_model_graph(60, out_degree=3, seed=2)
        walker = ShardedIncrementalWalker(graph, 4, params=params)
        walker.build()
        store = SnapshotStore(tmp_path)
        for edges in ([], [(0, 30), (5, 61)]):
            if edges:
                walker.add_edges(edges)
            version = store.save_snapshot(walker.index, system=walker.system)
            _version, loaded, system = store.load(version)
            _assert_same_csr(system, walker.system)
            assert loaded.diagonal.tobytes() == walker.index.diagonal.tobytes()

    def test_torn_system_file_fails_loudly(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(index, system=sparse.identity(12, format="csr"))
        store.system_path(1).write_bytes(b"torn")
        with pytest.raises(CloudWalkerError, match="cannot load system"):
            store.load()

    def test_missing_system_returns_none(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        version = store.save_snapshot(index)
        assert store.load(version)[2] is None

    def test_load_defaults_to_latest(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(index,
                            system=sparse.identity(12, format="csr") * 2.0)
        store.save_snapshot(_bump(index, 2),
                            system=sparse.identity(12, format="csr") * 3.0)
        assert store.load()[2].data[0] == 3.0


class TestRetention:
    def test_prune_keeps_newest(self, index, tmp_path):
        store = SnapshotStore(tmp_path, retain=2)
        for version in range(4):
            store.save_snapshot(_bump(index, version),
                                system=sparse.identity(12, format="csr"))
        assert store.versions() == [3, 4]
        # Both files of a pruned version are gone.
        assert _names(tmp_path) == [
            f"{kind}-v0000000{version}.npz"
            for kind in ("index", "system") for version in (3, 4)
        ]

    def test_explicit_prune_returns_removed(self, index, tmp_path):
        store = SnapshotStore(tmp_path, retain=10)
        assert store.prune() == []  # no lineage yet
        for version in range(3):
            store.save_snapshot(_bump(index, version))
        assert store.prune(retain=1) == [1, 2]
        assert store.versions() == [3]
        assert store.prune(retain=1) == []

    def test_prune_drops_crash_debris_of_older_versions(self, index, tmp_path):
        store = SnapshotStore(tmp_path, retain=1)
        store.save_snapshot(index)
        # A save of v2 that died before its index file (an older build's
        # too, which wrote a plan record first), then a v3.
        store.system_path(2).write_bytes(b"debris")
        (tmp_path / "plan-v00000002.json").write_bytes(b"debris")
        store.save_snapshot(index, version=3)
        assert _names(tmp_path) == ["index-v00000003.npz"]

    def test_invalid_retention_rejected(self, tmp_path):
        with pytest.raises(CloudWalkerError):
            SnapshotStore(tmp_path, retain=0)
        with pytest.raises(CloudWalkerError):
            SnapshotStore(tmp_path).prune(retain=0)
        assert list(tmp_path.iterdir()) == []


class TestAtomicity:
    def test_no_temp_files_left_behind(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(index, system=sparse.identity(12, format="csr"))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_foreign_files_ignored(self, index, tmp_path):
        (tmp_path / "notes.txt").write_text("not a snapshot")
        (tmp_path / "index-vBAD.npz").write_bytes(b"")
        (tmp_path / "index-v00000007.json").write_bytes(b"")
        store = SnapshotStore(tmp_path)
        store.save_snapshot(index)
        assert store.versions() == [1]


class TestCrashDrills:
    """A save killed at each of its two writes leaves the previous
    version the newest one, and the next save of the same version replaces
    the debris instead of adopting it."""

    @pytest.fixture()
    def killer(self, monkeypatch):
        real = index_module.atomic_write
        armed = {"kind": None}

        def dying_write(path, writer):
            if armed["kind"] and path.name.startswith(armed["kind"] + "-"):
                raise OSError(f"injected: killed before the {armed['kind']} write")
            return real(path, writer)

        monkeypatch.setattr(index_module, "atomic_write", dying_write)
        return armed

    @pytest.mark.parametrize("kind", ["system", "index"])
    def test_killed_save_loads_previous_then_is_replaced(
            self, index, tmp_path, killer, kind):
        store = SnapshotStore(tmp_path)
        first = sparse.identity(12, format="csr") * 2.0
        store.save_snapshot(index, system=first)

        killer["kind"] = kind
        with pytest.raises(OSError, match="injected"):
            store.save_snapshot(
                _bump(index, 1),
                system=sparse.identity(12, format="csr") * 5.0)
        assert store.versions() == [1]
        version, loaded, system = store.load()
        assert version == 1
        assert loaded.n_edges == index.n_edges
        _assert_same_csr(system, first)

        # A different history reaches v2 and saves it without a system:
        # none of the debris may leak into it.
        killer["kind"] = None
        assert store.save_snapshot(_bump(index, 7)) == 2
        version, loaded, system = store.load()
        assert version == 2
        assert loaded.n_edges == index.n_edges + 7
        assert system is None

    def test_killed_first_save_leaves_an_empty_lineage(self, index, tmp_path,
                                                       killer):
        store = SnapshotStore(tmp_path)
        killer["kind"] = "index"
        with pytest.raises(OSError, match="injected"):
            store.save_snapshot(index)
        assert store.versions() == []
        killer["kind"] = None
        # No lineage was born: the next save starts it at v1.
        assert store.save_snapshot(_bump(index, 3)) == 1
        assert store.load()[1].n_edges == index.n_edges + 3

    def test_service_save_crash_leaves_service_retryable(self, tmp_path,
                                                         killer):
        from repro.service import QueryService

        params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=3,
                               index_walkers=20, query_walkers=40, seed=5)
        graph = generators.copying_model_graph(60, out_degree=3, seed=2)
        with QueryService.build(graph, params,
                                sharding=ShardingParams(num_shards=2)) as service:
            killer["kind"] = "index"
            with pytest.raises(OSError):
                service.save_snapshot(tmp_path)
            assert service.stats()["snapshots_written"] == 0
            killer["kind"] = None
            version, _path = service.save_snapshot(tmp_path)
            assert version == service.index_version
            assert service.stats()["snapshots_written"] == 1
            assert SnapshotStore(tmp_path).latest_version() == version


def _older_lineage(index, directory, versions=(1, 2, 3)):
    """A lineage as the previous build wrote it: per version an index
    file, a system file and a ``plan-vN.json`` record (built by hand
    here, in that build's format: a 2-shard hash plan and shard
    versions)."""
    for version in versions:
        store = SnapshotStore(directory)
        store.save_snapshot(_bump(index, version), version=version,
                            system=sparse.identity(12, format="csr") * version)
        (directory / f"plan-v{version:08d}.json").write_text(json.dumps({
            "plan": {"num_shards": 2, "strategy": "hash", "n_nodes": None},
            "shard_versions": [version, 1],
        }), encoding="utf-8")


class TestOlderLineages:
    """Directories an older build wrote load as they are."""

    @pytest.mark.parametrize("record", [
        None,
        b"{ torn",
        b"{}",
        b'{"plan": {"strategy": "hash"}, "shard_versions": [1]}',
        b'{"plan": {"num_shards": 5, "strategy": "hash"}, '
        b'"shard_versions": [1]}',
    ], ids=["as-written", "torn", "empty", "no-shard-count",
            "other-shard-count"])
    def test_plan_records_are_ignored(self, index, tmp_path, record):
        _older_lineage(index, tmp_path)
        # One record unreadable: it no longer matters.
        (tmp_path / "plan-v00000002.json").write_bytes(b"{ torn")
        if record is not None:
            # Every record replaced (a lineage whose records were all
            # corrupt was once refused): none of them is read.
            for version in (1, 2, 3):
                (tmp_path / f"plan-v{version:08d}.json").write_bytes(record)
        store = SnapshotStore(tmp_path)
        assert store.versions() == [1, 2, 3]
        version, loaded, system = store.load()
        assert version == 3
        assert loaded.n_edges == index.n_edges + 3
        assert system.data[0] == 3.0
        assert store.load(2)[1].n_edges == index.n_edges + 2
        assert store.describe(3) == {"n_nodes": 12, "n_edges": 33,
                                     "has_system": True}

    def test_prune_removes_every_file_of_a_version(self, index, tmp_path):
        _older_lineage(index, tmp_path)
        store = SnapshotStore(tmp_path, retain=2)
        # The next save continues the lineage and writes no plan record;
        # retention takes v1 and v2 with all three of their files.
        assert store.save_snapshot(_bump(index, 4)) == 4
        assert store.versions() == [3, 4]
        assert _names(tmp_path) == [
            "index-v00000003.npz", "index-v00000004.npz",
            "plan-v00000003.json", "system-v00000003.npz",
        ]
        assert store.prune(retain=1) == [3]
        assert _names(tmp_path) == ["index-v00000004.npz"]

    @pytest.mark.parametrize("kind", ["system", "index"])
    def test_killed_save_keeps_the_older_lineage(self, index, tmp_path,
                                                 monkeypatch, kind):
        # A save killed at either write leaves the older versions, their
        # records included, as they were; the retried save continues.
        _older_lineage(index, tmp_path)
        before = _names(tmp_path)
        real = index_module.atomic_write

        def dying_write(path, writer):
            if path.name.startswith(kind + "-"):
                raise OSError(f"injected: killed before the {kind} write")
            return real(path, writer)

        monkeypatch.setattr(index_module, "atomic_write", dying_write)
        store = SnapshotStore(tmp_path)
        with pytest.raises(OSError, match="injected"):
            store.save_snapshot(_bump(index, 4),
                                system=sparse.identity(12, format="csr"))
        assert store.versions() == [1, 2, 3]
        assert store.load()[1].n_edges == index.n_edges + 3
        assert all(name in _names(tmp_path) for name in before)
        monkeypatch.setattr(index_module, "atomic_write", real)
        assert store.save_snapshot(_bump(index, 4)) == 4
        version, loaded, system = store.load()
        assert (version, loaded.n_edges, system) == (4, index.n_edges + 4,
                                                     None)

    def test_index_only_directory_is_a_lineage(self, index, tmp_path):
        # Index files and nothing else (once refused as a single-store
        # lineage): each is a version, and saves continue the sequence.
        index.save(tmp_path / "index-v00000001.npz")
        _bump(index, 2).save(tmp_path / "index-v00000002.npz")
        store = SnapshotStore(tmp_path)
        assert store.versions() == [1, 2]
        version, loaded, system = store.load()
        assert (version, loaded.n_edges, system) == (2, index.n_edges + 2,
                                                     None)
        assert store.save_snapshot(_bump(index, 3)) == 3


class TestLegacyRefusals:
    def test_per_shard_lineage_is_refused(self, index, tmp_path):
        """The per-shard layout is refused, with the migration command, by
        every entry point — never shadowed by a new v1."""
        (tmp_path / "shard_plan.json").write_text(
            json.dumps({"num_shards": 2, "strategy": "hash"}),
            encoding="utf-8")
        for shard in range(2):
            (tmp_path / f"shard-0{shard}").mkdir()
            for version in (2, 3):
                index.save(tmp_path / f"shard-0{shard}"
                           / f"index-v0000000{version}.npz")
        before = _names(tmp_path)
        store = SnapshotStore(tmp_path)
        hint = tmp_path / "shard-00" / "index-v00000003.npz"
        for attempt in (store.versions, store.load, store.prune,
                        lambda: store.save_snapshot(index)):
            with pytest.raises(CloudWalkerError,
                               match="per-shard snapshot lineage") as caught:
                attempt()
            assert f"snapshot save --dir NEW --index {hint}" in str(caught.value)
        assert _names(tmp_path) == before
