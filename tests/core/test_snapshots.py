"""Versioned snapshot store: round trips, retention, crash drills, refusals.

A version is three files — ``system-vN.npz`` (optional), ``plan-vN.json``
and ``index-vN.npz`` (the commit marker), written in that order — at every
shard count.
"""

import json

import numpy as np
import pytest
from scipy import sparse

import repro.core.index as index_module
from repro.config import SimRankParams
from repro.core.index import (
    BuildInfo,
    DiagonalIndex,
    ShardedIndex,
    SnapshotStore,
    load_latest,
    save_snapshot,
)
from repro.core.sharding import ShardedIncrementalWalker
from repro.errors import CloudWalkerError
from repro.graph import generators
from repro.graph.partition import ShardPlan


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


def _sharded(index, plan=None, shard_versions=None):
    return ShardedIndex(index=index, plan=plan or ShardPlan.hashed(1),
                        shard_versions=shard_versions or [])


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
        assert store.save_snapshot(_sharded(index)) == 1
        version, loaded, system = store.load()
        assert version == 1
        assert np.array_equal(loaded.index.diagonal, index.diagonal)
        assert loaded.index.params == index.params
        assert loaded.plan == ShardPlan.hashed(1)
        assert system is None

    def test_versions_assigned_monotonically(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        assert [store.save_snapshot(_sharded(_bump(index, v)))
                for v in range(3)] == [1, 2, 3]
        assert store.versions() == [1, 2, 3]
        assert store.latest_version() == 3

    def test_load_specific_version(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(_bump(index, 1)))
        store.save_snapshot(_sharded(_bump(index, 2)))
        assert store.load(1)[1].index.n_edges == index.n_edges + 1
        assert store.load(2)[1].index.n_edges == index.n_edges + 2
        with pytest.raises(CloudWalkerError, match="not a snapshot"):
            store.load(9)

    def test_versions_only_move_forward(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index), version=5)
        before = store.index_path(5).stat().st_mtime_ns
        # An already-listed version is a no-op, not a rewrite.
        assert store.save_snapshot(_sharded(_bump(index, 1)), version=5) == 5
        assert store.index_path(5).stat().st_mtime_ns == before
        assert store.load(5)[1].index.n_edges == index.n_edges
        with pytest.raises(CloudWalkerError, match="must increase"):
            store.save_snapshot(_sharded(index), version=3)
        assert store.save_snapshot(_sharded(index), version=9) == 9

    def test_load_empty_store_raises(self, tmp_path):
        with pytest.raises(CloudWalkerError, match="no snapshots"):
            SnapshotStore(tmp_path / "nowhere").load()
        with pytest.raises(CloudWalkerError, match="no snapshots"):
            SnapshotStore(tmp_path / "nowhere").load_plan()
        assert SnapshotStore(tmp_path / "nowhere").versions() == []

    def test_describe_reads_metadata_without_full_load(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index, ShardPlan.hashed(3)),
                            system=sparse.identity(12, format="csr"))
        store.save_snapshot(_sharded(index, ShardPlan.hashed(3)))
        assert store.describe(1) == {
            "n_nodes": 12, "n_edges": 30, "num_shards": 3, "has_system": True,
        }
        assert store.describe(2)["has_system"] is False
        with pytest.raises(CloudWalkerError):
            store.describe(99)

    def test_module_level_wrappers(self, index, tmp_path):
        assert save_snapshot(index, tmp_path) == 1
        version, loaded = load_latest(tmp_path)
        assert version == 1
        assert np.array_equal(loaded.diagonal, index.diagonal)
        # The wrapper writes a one-shard lineage the service can open.
        assert SnapshotStore(tmp_path).load_plan() == ShardPlan.hashed(1)
        assert _names(tmp_path) == ["index-v00000001.npz",
                                    "plan-v00000001.json"]

    def test_module_wrapper_lineage_opens_in_the_service(self, tmp_path):
        """``save_snapshot`` writes the one layout ``from_snapshot`` reads,
        system included, and ``load_latest`` reads any K's lineage."""
        from repro.service import QueryService

        params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=3,
                               index_walkers=20, query_walkers=40, seed=5)
        graph = generators.copying_model_graph(60, out_degree=3, seed=2)
        walker = ShardedIncrementalWalker(graph, params=params)
        walker.build()
        assert save_snapshot(walker.index, tmp_path / "one",
                             system=walker.system) == 1
        with QueryService.from_snapshot(graph, tmp_path / "one") as restored:
            assert restored.num_shards == 1
            _assert_same_csr(restored._walker.system, walker.system)
        SnapshotStore(tmp_path / "three").save_snapshot(
            ShardedIndex(index=walker.index, plan=ShardPlan.hashed(3)))
        version, loaded = load_latest(tmp_path / "three")
        assert version == 1
        assert loaded.diagonal.tobytes() == walker.index.diagonal.tobytes()

    def test_plan_record_round_trips_plan_and_shard_versions(self, index,
                                                             tmp_path):
        plan = ShardPlan(3, strategy="partitioner", assignment=np.array(
            [2, 0, 1, 1, 0, 2, 2, 0, 1, 0, 1, 2], dtype=np.int64))
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index, plan, [4, 1, 3]), version=4)
        record = json.loads(store.plan_path(4).read_text(encoding="utf-8"))
        assert record == {"plan": plan.to_dict(), "shard_versions": [4, 1, 3]}
        _version, loaded, _system = store.load()
        assert loaded.plan == plan
        assert loaded.shard_versions == [4, 1, 3]

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_every_version_is_three_files(self, index, tmp_path, num_shards):
        store = SnapshotStore(tmp_path)
        for _ in range(2):
            store.save_snapshot(_sharded(index, ShardPlan.hashed(num_shards)),
                                system=sparse.identity(12, format="csr"))
        assert _names(tmp_path) == [
            f"{kind}-v0000000{version}.{'json' if kind == 'plan' else 'npz'}"
            for kind in ("index", "plan", "system") for version in (1, 2)
        ]


class TestSystemPersistence:
    def test_system_round_trips_bitwise(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        system = sparse.random(12, 12, density=0.3, random_state=3, format="csr")
        version = store.save_snapshot(_sharded(index), system=system)
        _version, _loaded, loaded = store.load(version)
        _assert_same_csr(loaded, system)

    def test_maintained_system_loads_byte_equal(self, tmp_path):
        """The walker's system is written as maintained — no slicing, no
        sum — at any K, before and after an update splices it."""
        params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=3,
                               index_walkers=20, query_walkers=40, seed=5)
        graph = generators.copying_model_graph(60, out_degree=3, seed=2)
        walker = ShardedIncrementalWalker(graph, ShardPlan.hashed(4),
                                          params=params)
        walker.build()
        store = SnapshotStore(tmp_path)
        for edges in ([], [(0, 30), (5, 61)]):
            if edges:
                walker.add_edges(edges)
            version = store.save_snapshot(
                ShardedIndex(index=walker.index, plan=walker.plan),
                system=walker.system)
            _version, loaded, system = store.load(version)
            _assert_same_csr(system, walker.system)
            assert loaded.index.diagonal.tobytes() == \
                walker.index.diagonal.tobytes()

    def test_torn_system_file_fails_loudly(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index),
                            system=sparse.identity(12, format="csr"))
        store.system_path(1).write_bytes(b"torn")
        with pytest.raises(CloudWalkerError, match="cannot load system"):
            store.load()

    def test_missing_system_returns_none(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        version = store.save_snapshot(_sharded(index))
        assert store.load(version)[2] is None

    def test_load_defaults_to_latest(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index),
                            system=sparse.identity(12, format="csr") * 2.0)
        store.save_snapshot(_sharded(_bump(index, 2)),
                            system=sparse.identity(12, format="csr") * 3.0)
        assert store.load()[2].data[0] == 3.0


class TestRetention:
    def test_prune_keeps_newest(self, index, tmp_path):
        store = SnapshotStore(tmp_path, retain=2)
        for version in range(4):
            store.save_snapshot(_sharded(_bump(index, version)),
                                system=sparse.identity(12, format="csr"))
        assert store.versions() == [3, 4]
        # All three files of a pruned version are gone.
        assert _names(tmp_path) == [
            f"{kind}-v0000000{version}.{'json' if kind == 'plan' else 'npz'}"
            for kind in ("index", "plan", "system") for version in (3, 4)
        ]

    def test_explicit_prune_returns_removed(self, index, tmp_path):
        store = SnapshotStore(tmp_path, retain=10)
        assert store.prune() == []  # no lineage yet
        for version in range(3):
            store.save_snapshot(_sharded(_bump(index, version)))
        assert store.prune(retain=1) == [1, 2]
        assert store.versions() == [3]
        assert store.prune(retain=1) == []

    def test_prune_drops_crash_debris_of_older_versions(self, index, tmp_path):
        store = SnapshotStore(tmp_path, retain=1)
        store.save_snapshot(_sharded(index))
        # A save of v2 that died before its index file, then a v3.
        store.system_path(2).write_bytes(b"debris")
        store.plan_path(2).write_bytes(b"debris")
        store.save_snapshot(_sharded(index), version=3)
        assert _names(tmp_path) == ["index-v00000003.npz",
                                    "plan-v00000003.json"]

    def test_invalid_retention_rejected(self, tmp_path):
        with pytest.raises(CloudWalkerError):
            SnapshotStore(tmp_path, retain=0)
        with pytest.raises(CloudWalkerError):
            SnapshotStore(tmp_path).prune(retain=0)
        assert list(tmp_path.iterdir()) == []


class TestLineageRules:
    def test_shard_count_is_immutable_per_directory(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index, ShardPlan.hashed(3)))
        with pytest.raises(CloudWalkerError, match="immutable"):
            store.save_snapshot(_sharded(index, ShardPlan.hashed(2)))
        assert store.versions() == [1]

    def test_assignment_may_change_between_versions(self, index, tmp_path):
        # Lineages written by older builds may keep K and move nodes
        # between versions: each version keeps its own plan.
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index, ShardPlan.hashed(3)))
        moved = ShardPlan.contiguous(3, index.n_nodes)
        store.save_snapshot(_sharded(index, moved))
        assert store.load_plan(1) == ShardPlan.hashed(3)
        assert store.load(2)[1].plan == moved
        assert store.load_plan() == moved


class TestAtomicity:
    def test_no_temp_files_left_behind(self, index, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index),
                            system=sparse.identity(12, format="csr"))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_foreign_files_ignored(self, index, tmp_path):
        (tmp_path / "notes.txt").write_text("not a snapshot")
        (tmp_path / "index-vBAD.npz").write_bytes(b"")
        (tmp_path / "index-v00000007.json").write_bytes(b"")
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index))
        assert store.versions() == [1]


class TestCrashDrills:
    """A save killed at each of its three writes leaves the previous
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

    @pytest.mark.parametrize("kind", ["system", "plan", "index"])
    def test_killed_save_loads_previous_then_is_replaced(
            self, index, tmp_path, killer, kind):
        store = SnapshotStore(tmp_path)
        first = sparse.identity(12, format="csr") * 2.0
        store.save_snapshot(_sharded(index, ShardPlan.hashed(3)), system=first)

        killer["kind"] = kind
        with pytest.raises(OSError, match="injected"):
            store.save_snapshot(
                _sharded(_bump(index, 1), ShardPlan.contiguous(3, 12),
                         [2, 2, 1]),
                system=sparse.identity(12, format="csr") * 5.0)
        assert store.versions() == [1]
        version, loaded, system = store.load()
        assert version == 1
        assert loaded.plan == ShardPlan.hashed(3)
        assert loaded.index.n_edges == index.n_edges
        _assert_same_csr(system, first)

        # A different history reaches v2 and saves it without a system:
        # none of the debris (system, plan) may leak into it.
        killer["kind"] = None
        assert store.save_snapshot(
            _sharded(_bump(index, 7), ShardPlan.hashed(3), [2, 1, 1])) == 2
        version, loaded, system = store.load()
        assert version == 2
        assert loaded.index.n_edges == index.n_edges + 7
        assert loaded.plan == ShardPlan.hashed(3)
        assert loaded.shard_versions == [2, 1, 1]
        assert system is None

    def test_killed_first_save_leaves_an_empty_lineage(self, index, tmp_path,
                                                       killer):
        store = SnapshotStore(tmp_path)
        killer["kind"] = "index"
        with pytest.raises(OSError, match="injected"):
            store.save_snapshot(_sharded(index, ShardPlan.hashed(2)))
        assert store.versions() == []
        killer["kind"] = None
        # No lineage was born: any shard count may start it.
        assert store.save_snapshot(_sharded(index, ShardPlan.hashed(3))) == 1
        assert store.load_plan().num_shards == 3

    def test_service_save_crash_leaves_service_retryable(self, tmp_path,
                                                         killer):
        from repro.config import ShardingParams
        from repro.service import QueryService

        params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=3,
                               index_walkers=20, query_walkers=40, seed=5)
        graph = generators.copying_model_graph(60, out_degree=3, seed=2)
        with QueryService.build(graph, params,
                                sharding=ShardingParams(num_shards=2)) as service:
            killer["kind"] = "plan"
            with pytest.raises(OSError):
                service.save_snapshot(tmp_path)
            assert service.stats()["snapshots_written"] == 0
            killer["kind"] = None
            version, _path = service.save_snapshot(tmp_path)
            assert version == service.index_version
            assert service.stats()["snapshots_written"] == 1
            assert SnapshotStore(tmp_path).latest_version() == version

    def test_missing_plan_record_rolls_back_its_version(self, index,
                                                        tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index))
        store.save_snapshot(_sharded(_bump(index, 1)))
        store.plan_path(2).unlink()
        assert store.versions() == [1]
        assert store.load()[1].index.n_edges == index.n_edges

    @pytest.mark.parametrize("corruption", [
        b"{not json at all",
        b"{}",
        b'{"plan": {"strategy": "hash"}, "shard_versions": [1]}',
        b'{"plan": {"num_shards": 2, "strategy": "hash"}, '
        b'"shard_versions": [1]}',
    ])
    def test_corrupt_plan_record_rolls_back_its_version(
            self, index, tmp_path, corruption):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index, ShardPlan.hashed(2)))
        store.save_snapshot(_sharded(_bump(index, 1), ShardPlan.hashed(2)))
        store.plan_path(2).write_bytes(corruption)
        assert store.versions() == [1]
        assert store.load()[0] == 1
        with pytest.raises(CloudWalkerError, match="plan record"):
            store.describe(2)
        # The next save of v2 replaces the damaged version.
        assert store.save_snapshot(_sharded(_bump(index, 3),
                                            ShardPlan.hashed(2))) == 2
        assert store.load()[1].index.n_edges == index.n_edges + 3


class TestLegacyRefusals:
    """Layouts this store no longer writes are refused, with the migration
    command, by every entry point — never shadowed by a new v1."""

    def _assert_refused(self, index, directory, match, hint):
        before = _names(directory)
        store = SnapshotStore(directory)
        for attempt in (store.versions, store.load, store.prune,
                        lambda: store.save_snapshot(_sharded(index)),
                        lambda: load_latest(directory)):
            with pytest.raises(CloudWalkerError, match=match) as caught:
                attempt()
            assert f"snapshot save --dir NEW --index {hint}" in str(caught.value)
        assert _names(directory) == before

    def test_single_store_lineage_is_refused(self, index, tmp_path):
        index.save(tmp_path / "index-v00000001.npz")
        index.save(tmp_path / "index-v00000002.npz")
        self._assert_refused(index, tmp_path, "single-store",
                             tmp_path / "index-v00000002.npz")

    def test_lineage_with_every_plan_record_corrupt_is_refused(self, index,
                                                                tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_snapshot(_sharded(index))
        store.plan_path(1).write_bytes(b"{ torn")
        self._assert_refused(index, tmp_path, "no loadable plan record",
                             tmp_path / "index-v00000001.npz")

    def test_per_shard_lineage_is_refused(self, index, tmp_path):
        (tmp_path / "shard_plan.json").write_text(
            json.dumps(ShardPlan.hashed(2).to_dict()), encoding="utf-8")
        for shard in range(2):
            (tmp_path / f"shard-0{shard}").mkdir()
            for version in (2, 3):
                index.save(tmp_path / f"shard-0{shard}"
                           / f"index-v0000000{version}.npz")
        self._assert_refused(index, tmp_path, "per-shard snapshot lineage",
                             tmp_path / "shard-00" / "index-v00000003.npz")
