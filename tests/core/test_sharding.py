"""Tests for the sharded index build/maintenance machinery.

The load-bearing claims pinned here:

* a sharded build's gathered linear system — and therefore its solved
  diagonal — is bitwise-identical to the single-shard build, for every
  strategy and backend;
* incremental updates through the sharded walker splice to the exact same
  system and diagonal as the single-shard incremental path;
* per-shard system blocks partition the full system and round-trip through
  sharded snapshots losslessly;
* :class:`ShardPlan` is a total, persistable routing function.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.config import ShardingParams, SimRankParams
from repro.core.incremental import IncrementalCloudWalker
from repro.core.index import ShardedIndex, ShardedSnapshotStore
from repro.core.sharding import (
    ShardedIncrementalWalker,
    build_sharded_index,
    estimate_shard_rows,
    gather_shard_rows,
    make_plan,
    slice_shard_block,
)
from repro.engine.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.errors import CloudWalkerError, ConfigurationError
from repro.graph import generators
from repro.graph.partition import (
    EdgeBalancedPartitioner,
    HashPartitioner,
    ShardPlan,
)


@pytest.fixture(scope="module")
def params():
    return SimRankParams(c=0.6, walk_steps=5, jacobi_iterations=3,
                         index_walkers=40, query_walkers=200, seed=11)


@pytest.fixture(scope="module")
def graph():
    return generators.copying_model_graph(90, out_degree=4, seed=7)


@pytest.fixture(scope="module")
def reference(graph, params):
    """The single-shard walker the sharded one must match bitwise."""
    walker = IncrementalCloudWalker(graph, params=params)
    walker.build()
    return walker


def _canonical_row(matrix, row):
    """Row ``row`` of a CSR matrix as (columns, values): sorted, no zeros."""
    start, stop = matrix.indptr[row], matrix.indptr[row + 1]
    order = np.argsort(matrix.indices[start:stop], kind="stable")
    columns = matrix.indices[start:stop][order]
    values = matrix.data[start:stop][order]
    keep = values != 0
    return columns[keep], values[keep]


def _assert_exact_row_slice(block, system, keep):
    """``block`` holds the ``keep`` rows of ``system`` byte-for-byte, in
    canonical CSR form (sorted columns, no explicit zeros), and no others."""
    assert block.shape == system.shape
    assert block.data.dtype == system.data.dtype
    assert block.has_sorted_indices
    assert (block.data != 0).all()
    assert (np.diff(block.indptr)[~keep] == 0).all()
    for row in np.flatnonzero(keep):
        columns, values = _canonical_row(system, row)
        start, stop = block.indptr[row], block.indptr[row + 1]
        assert block.indices[start:stop].tobytes() == columns.tobytes()
        assert block.data[start:stop].tobytes() == values.tobytes()


class TestShardPlan:
    def test_hash_matches_hash_partitioner(self):
        plan = ShardPlan.hashed(4)
        partitioner = HashPartitioner(4)
        for node in range(200):
            assert plan.shard_of(node) == partitioner.partition(node)

    def test_contiguous_covers_and_extends(self):
        plan = ShardPlan.contiguous(3, n_nodes=10)
        assignment = plan.assign(10)
        assert sorted(set(assignment.tolist())) == [0, 1, 2]
        assert all(np.diff(assignment) >= 0)  # contiguous ranges
        # Ids beyond the planned range route to the last shard.
        assert plan.shard_of(10_000) == 2

    def test_partitioner_plan_freezes_assignment_and_falls_back(self, graph):
        partitioner = EdgeBalancedPartitioner(3, graph)
        plan = ShardPlan.from_partitioner(partitioner, graph)
        for node in range(graph.n_nodes):
            assert plan.shard_of(node) == partitioner.partition(node)
        # Unseen ids fall back to the (total) hash rule.
        assert 0 <= plan.shard_of(graph.n_nodes + 5) < 3

    def test_group_nodes_sorted_and_partitioned(self):
        plan = ShardPlan.hashed(3)
        nodes = [9, 1, 5, 20, 14, 2]
        groups = plan.group_nodes(nodes)
        regrouped = sorted(node for group in groups.values() for node in group)
        assert regrouped == sorted(nodes)
        for shard, group in groups.items():
            assert group == sorted(group)
            assert all(plan.shard_of(node) == shard for node in group)

    def test_group_edges_routes_by_head(self):
        plan = ShardPlan.contiguous(2, n_nodes=10)
        groups = plan.group_edges([(0, 9), (9, 0), (1, 8)])
        assert groups[plan.shard_of(9)].count((0, 9)) == 1
        assert (9, 0) in groups[plan.shard_of(0)]

    @pytest.mark.parametrize("strategy", ["hash", "contiguous", "partitioner"])
    def test_assign_matches_shard_of_elementwise(self, graph, strategy):
        plan = ShardPlan.for_graph(graph, 4, strategy)
        # Past the planned range too (covers the partitioner hash fallback).
        extent = graph.n_nodes + 7
        assignment = plan.assign(extent)
        assert assignment.dtype == np.int64
        assert [plan.shard_of(node) for node in range(extent)] \
            == assignment.tolist()

    @pytest.mark.parametrize("strategy", ["hash", "contiguous", "partitioner"])
    def test_dict_round_trip(self, graph, strategy):
        plan = ShardPlan.for_graph(graph, 4, strategy)
        restored = ShardPlan.from_dict(plan.to_dict())
        assert restored == plan
        for node in range(graph.n_nodes + 10):
            assert restored.shard_of(node) == plan.shard_of(node)

    def test_invalid_inputs(self, graph):
        with pytest.raises(ConfigurationError):
            ShardPlan(0)
        with pytest.raises(ConfigurationError):
            ShardPlan(2, strategy="mystery")
        with pytest.raises(ConfigurationError):
            ShardPlan.contiguous(2, n_nodes=0)
        with pytest.raises(ConfigurationError):
            ShardPlan(2, strategy="partitioner")  # no assignment
        with pytest.raises(ConfigurationError):
            ShardPlan(2, strategy="partitioner",
                      assignment=np.array([0, 5]))  # out of range
        with pytest.raises(ConfigurationError):
            ShardPlan.hashed(2).shard_of(-1)
        with pytest.raises(ConfigurationError):
            ShardPlan.hashed(2).nodes_of(7, 10)


class TestShardedBuild:
    @pytest.mark.parametrize("num_shards,strategy", [
        (1, "hash"), (2, "contiguous"), (4, "hash"), (5, "partitioner"),
        (3, "contiguous"), (8, "hash"), (4, "partitioner"),
    ])
    def test_build_bitwise_identical(self, graph, params, reference,
                                     num_shards, strategy):
        walker = ShardedIncrementalWalker(
            graph, ShardPlan.for_graph(graph, num_shards, strategy),
            params=params,
        )
        index = walker.build()
        assert np.array_equal(index.diagonal, reference.index.diagonal)
        assert (walker.system - reference.system).nnz == 0
        assert walker.last_touched_shards == frozenset(range(num_shards))

    def test_thread_backend_identical(self, graph, params, reference):
        # Pool backends too: threads, and processes materialising the graph
        # from shared memory.
        for backend in (ThreadBackend(max_workers=4),
                        ProcessBackend(max_workers=2)):
            walker = ShardedIncrementalWalker(
                graph, ShardPlan.hashed(4), params=params, backend=backend,
            )
            index = walker.build()
            walker.backend.shutdown()
            assert np.array_equal(index.diagonal, reference.index.diagonal)
            assert (walker.system - reference.system).nnz == 0

    def test_gather_matches_monolithic_estimation(self, graph, params):
        plan = ShardPlan.hashed(3)
        handle = SerialBackend().ensure_resident("graph", graph)
        triplets = [
            estimate_shard_rows(handle, plan.nodes_of(shard, graph.n_nodes), params)
            for shard in range(3)
        ]
        gathered = gather_shard_rows(triplets, graph.n_nodes)
        from repro.core import linear_system
        rows, cols, values = linear_system.build_rows_streamed(
            graph, range(graph.n_nodes), params
        )
        full = sparse.csr_matrix((values, (rows, cols)),
                                 shape=(graph.n_nodes, graph.n_nodes))
        assert (gathered - full).nnz == 0

    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("exact", [False, True])
    def test_built_system_is_the_gathered_csr(self, graph, params, num_shards,
                                              exact):
        """``build()`` keeps the gathered CSR as it is: canonical, and
        byte-equal (arrays and dtypes) to gathering the same rows."""
        from repro.core import linear_system

        plan = ShardPlan.hashed(num_shards)
        walker = ShardedIncrementalWalker(graph, plan, params=params, exact=exact)
        walker.build()
        if exact:
            exact_system = linear_system.build_exact_system(graph, params).tocoo()
            triplets = [(exact_system.row, exact_system.col, exact_system.data)]
        else:
            handle = SerialBackend().ensure_resident("graph", graph)
            triplets = [
                estimate_shard_rows(handle, plan.nodes_of(shard, graph.n_nodes), params)
                for shard in range(num_shards)
            ]
        expected = gather_shard_rows(triplets, graph.n_nodes)
        assert walker.system.has_canonical_format
        for name in ("indptr", "indices", "data"):
            ours, theirs = getattr(walker.system, name), getattr(expected, name)
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()

    def test_shard_build_timings_recorded(self, graph, params):
        walker = ShardedIncrementalWalker(graph, ShardPlan.hashed(3), params=params)
        walker.build()
        assert sorted(walker.shard_build_seconds) == [0, 1, 2]
        assert all(seconds >= 0.0 for seconds in walker.shard_build_seconds.values())

    def test_build_sharded_index_convenience(self, graph, params, reference):
        index, walker = build_sharded_index(
            graph, ShardingParams(num_shards=4), params=params
        )
        assert np.array_equal(index.diagonal, reference.index.diagonal)
        assert walker.plan.num_shards == 4

    def test_make_plan_respects_strategy(self, graph):
        plan = make_plan(graph, ShardingParams(num_shards=3, strategy="contiguous"))
        assert plan.strategy == "contiguous"
        assert plan.num_shards == 3


class TestShardedUpdates:
    @pytest.mark.parametrize("num_shards", [2, 4, 1, 3, 8])
    def test_add_edges_bitwise_identical(self, graph, params, num_shards):
        edges = [(0, 30), (2, 95), (95, 1)]  # includes node growth
        single = IncrementalCloudWalker(graph, params=params)
        single.build()
        single_info = single.add_edges(edges)

        walker = ShardedIncrementalWalker(graph, ShardPlan.hashed(num_shards),
                                          params=params)
        walker.build()
        sharded_info = walker.add_edges(edges)

        assert sharded_info["affected"] == single_info["affected"]
        assert np.array_equal(walker.index.diagonal, single.index.diagonal)
        assert (walker.system - single.system).nnz == 0
        # Only the shards owning affected rows were re-estimated.
        expected_touched = frozenset(
            walker.plan.shard_of(node) for node in sharded_info["affected"]
        )
        assert walker.last_touched_shards == expected_touched

    def test_localized_update_touches_shard_subset(self, params):
        # Disjoint communities on a contiguous plan: an edit inside the
        # first community can only affect shard 0.
        graph = generators.community_graph(4, 16, p_in=0.3, p_out=0.0, seed=3)
        walker = ShardedIncrementalWalker(
            graph, ShardPlan.contiguous(4, graph.n_nodes), params=params
        )
        walker.build()
        walker.add_edges([(0, 5)])
        assert walker.last_touched_shards == frozenset({0})

    def test_shard_systems_partition_full_system(self, graph, params):
        walker = ShardedIncrementalWalker(graph, ShardPlan.hashed(3), params=params)
        walker.build()
        # Before and after an update that splices a new system and grows
        # the graph.
        for edges in ([], [(0, 30), (2, 95), (95, 1)]):
            if edges:
                walker.add_edges(edges)
            blocks = walker.shard_systems()
            assert len(blocks) == 3
            assignment = walker.plan.assign(walker.graph.n_nodes)
            for shard, block in enumerate(blocks):
                row_nnz = np.diff(block.indptr)
                assert (row_nnz[assignment != shard] == 0).all()
            assert (sum(blocks) - walker.system).nnz == 0

    @pytest.mark.parametrize("num_shards,strategy", [
        (1, "hash"), (4, "hash"), (3, "contiguous"), (4, "contiguous"),
        (2, "partitioner"), (4, "partitioner"), (8, "hash"),
    ])
    def test_shard_systems_are_exact_row_slices(self, graph, params,
                                                num_shards, strategy):
        # Every block carries its shard's rows of the maintained system
        # byte-for-byte, before and after a six-edge update that splices a
        # new system and grows the graph past the planned range.
        walker = ShardedIncrementalWalker(
            graph, ShardPlan.for_graph(graph, num_shards, strategy),
            params=params,
        )
        walker.build()
        edges = [(0, 30), (2, 95), (95, 1), (4, 11), (11, 4), (60, 61)]
        for update in ([], edges):
            if update:
                walker.add_edges(update)
            assignment = walker.plan.assign(walker.system.shape[0])
            blocks = walker.shard_systems()
            assert len(blocks) == num_shards
            for shard, block in enumerate(blocks):
                _assert_exact_row_slice(block, walker.system,
                                        assignment == shard)

    def test_shard_systems_before_build_raises(self, graph, params):
        walker = ShardedIncrementalWalker(graph, ShardPlan.hashed(2), params=params)
        with pytest.raises(ConfigurationError):
            walker.shard_systems()


class TestSliceShardBlock:
    @pytest.mark.parametrize("selection", ["all", "none", "even", "random"])
    def test_block_is_canonical_row_slice(self, selection):
        # A non-canonical input (shuffled columns within each row, explicit
        # zeros) still yields sorted, zero-free rows, and the input is left
        # untouched.
        n = 40
        rng = np.random.default_rng(5)
        source = sparse.random(n, n, density=0.2, format="csr",
                               random_state=np.random.RandomState(5))
        shuffle = np.concatenate([
            start + rng.permutation(stop - start)
            for start, stop in zip(source.indptr[:-1], source.indptr[1:])])
        indices = source.indices[shuffle]
        data = source.data[shuffle]
        data[::7] = 0.0
        system = sparse.csr_matrix((data, indices, source.indptr.copy()),
                                   shape=(n, n))
        original = (system.data.copy(), system.indices.copy(),
                    system.indptr.copy())
        keep = {
            "all": np.ones(n, dtype=bool),
            "none": np.zeros(n, dtype=bool),
            "even": np.arange(n) % 2 == 0,
            "random": rng.random(n) < 0.3,
        }[selection]

        block = slice_shard_block(system, keep)

        _assert_exact_row_slice(block, system, keep)
        if selection == "none":
            assert block.nnz == 0
        for before, after in zip(original,
                                 (system.data, system.indices, system.indptr)):
            assert np.array_equal(before, after)

    def test_whole_canonical_system_is_not_copied(self):
        system = sparse.random(40, 40, density=0.2, format="csr",
                               random_state=np.random.RandomState(5))
        assert slice_shard_block(system, np.ones(40, dtype=bool)) is system


class TestShardedSnapshots:
    def _sharded(self, graph, params, num_shards=3):
        walker = ShardedIncrementalWalker(graph, ShardPlan.hashed(num_shards),
                                          params=params)
        index = walker.build()
        return walker, ShardedIndex(index=index, plan=walker.plan)

    def test_round_trip(self, graph, params, tmp_path):
        walker, sharded = self._sharded(graph, params)
        store = ShardedSnapshotStore(tmp_path / "snaps")
        version = store.save_snapshot(sharded, shard_systems=walker.shard_systems())
        assert version == 1
        loaded_version, loaded, system = store.load()
        assert loaded_version == 1
        assert np.array_equal(loaded.index.diagonal, sharded.index.diagonal)
        assert loaded.plan == sharded.plan
        assert (system - walker.system).nnz == 0

    def test_partial_write_rolls_back_to_consistent_version(
            self, graph, params, tmp_path):
        walker, sharded = self._sharded(graph, params)
        store = ShardedSnapshotStore(tmp_path / "snaps")
        store.save_snapshot(sharded, shard_systems=walker.shard_systems())
        # Simulate a crash that wrote version 2 to only one shard.
        store.shard_store(0).save_snapshot(sharded.index, version=2)
        assert store.versions() == [1]
        loaded_version, _loaded, _system = store.load()
        assert loaded_version == 1

    def test_stale_partial_write_is_replaced_not_adopted(
            self, graph, params, tmp_path):
        # A later save that reuses a crashed save's version number must
        # overwrite the stale shard file, never mix it into the snapshot.
        walker, sharded = self._sharded(graph, params)
        store = ShardedSnapshotStore(tmp_path / "snaps")
        store.save_snapshot(sharded, shard_systems=walker.shard_systems())
        # Crash debris: shard 0 alone holds a v2 with *update-A* data.
        walker.add_edges([(0, 5)])
        stale_diagonal = walker.index.diagonal.copy()
        store.shard_store(0).save_snapshot(walker.index, version=2)
        # A different history (update B) reaches v2 and snapshots it.
        fresh_walker, _ = self._sharded(graph, params)
        fresh_walker.add_edges([(1, 7)])
        fresh = ShardedIndex(index=fresh_walker.index, plan=fresh_walker.plan)
        version = store.save_snapshot(
            fresh, shard_systems=fresh_walker.shard_systems(), version=2
        )
        assert version == 2
        loaded_version, loaded, system = store.load()
        assert loaded_version == 2
        assert np.array_equal(loaded.index.diagonal, fresh_walker.index.diagonal)
        assert not np.array_equal(loaded.index.diagonal, stale_diagonal)
        assert (system - fresh_walker.system).nnz == 0
        # Re-saving a now-consistent version is still a per-shard no-op.
        before = store.shard_store(0).index_path(2).stat().st_mtime_ns
        store.save_snapshot(fresh, shard_systems=fresh_walker.shard_systems(),
                            version=2)
        assert store.shard_store(0).index_path(2).stat().st_mtime_ns == before

    def test_plan_is_immutable_per_directory(self, graph, params, tmp_path):
        walker, sharded = self._sharded(graph, params, num_shards=3)
        store = ShardedSnapshotStore(tmp_path / "snaps")
        store.save_snapshot(sharded, shard_systems=walker.shard_systems())
        other_walker, other = self._sharded(graph, params, num_shards=2)
        with pytest.raises(CloudWalkerError):
            store.save_snapshot(other, shard_systems=other_walker.shard_systems())

    def test_save_without_systems_loads_none(self, graph, params, tmp_path):
        _walker, sharded = self._sharded(graph, params)
        store = ShardedSnapshotStore(tmp_path / "snaps")
        store.save_snapshot(sharded)
        _version, _loaded, system = store.load()
        assert system is None

    def test_zero_retention_is_refused_before_anything_is_written(
            self, tmp_path):
        # Validated at construction, like SnapshotStore: a retain=0 store
        # must not get as far as writing shard_plan.json, which would leave
        # a plan-only directory that looks like a crashed first save.
        with pytest.raises(CloudWalkerError,
                           match="snapshot retention must be >= 1"):
            ShardedSnapshotStore(tmp_path / "snaps", retain=0)
        assert not (tmp_path / "snaps").exists()

    def test_prune_returns_the_removed_versions(self, graph, params, tmp_path):
        walker, sharded = self._sharded(graph, params)
        store = ShardedSnapshotStore(tmp_path / "snaps", retain=5)
        assert store.prune() == []  # no lineage yet
        for version in range(1, 4):
            store.save_snapshot(sharded, shard_systems=walker.shard_systems(),
                                version=version)
        assert store.prune(retain=1) == [1, 2]
        assert store.versions() == [3]
        assert store.prune(retain=1) == []

    def test_load_missing_or_unknown_version(self, graph, params, tmp_path):
        store = ShardedSnapshotStore(tmp_path / "empty")
        with pytest.raises(CloudWalkerError):
            store.load()
        _walker, sharded = self._sharded(graph, params)
        populated = ShardedSnapshotStore(tmp_path / "snaps")
        populated.save_snapshot(sharded)
        with pytest.raises(CloudWalkerError):
            populated.load(version=9)

    def test_prune_bounds_every_shard(self, graph, params, tmp_path):
        walker, sharded = self._sharded(graph, params)
        store = ShardedSnapshotStore(tmp_path / "snaps", retain=2)
        for version in range(1, 5):
            store.save_snapshot(sharded, shard_systems=walker.shard_systems(),
                                version=version)
        assert store.versions() == [3, 4]
        for shard in range(sharded.num_shards):
            assert store.shard_store(shard).versions() == [3, 4]


class TestShardedIndexDataclass:
    def test_versions_default_and_touch(self, graph, params):
        index, walker = build_sharded_index(
            graph, ShardingParams(num_shards=3), params=params
        )
        sharded = ShardedIndex(index=index, plan=walker.plan)
        assert sharded.shard_versions == [1, 1, 1]
        sharded.touch([1], version=5)
        assert sharded.shard_versions == [1, 5, 1]
        summary = sharded.summary()
        assert summary["num_shards"] == 3
        assert summary["shard_versions"] == [1, 5, 1]

    def test_version_length_mismatch_raises(self, graph, params):
        index, walker = build_sharded_index(
            graph, ShardingParams(num_shards=3), params=params
        )
        with pytest.raises(CloudWalkerError):
            ShardedIndex(index=index, plan=walker.plan, shard_versions=[1])

    def test_validate_for_delegates(self, graph, params):
        index, walker = build_sharded_index(
            graph, ShardingParams(num_shards=2), params=params
        )
        sharded = ShardedIndex(index=index, plan=walker.plan)
        sharded.validate_for(graph)
        other = generators.copying_model_graph(40, out_degree=3, seed=1)
        with pytest.raises(CloudWalkerError):
            sharded.validate_for(other)


class TestShardedSnapshotFaultInjection:
    """Crash and corruption drills for :class:`ShardedSnapshotStore`.

    Unlike the debris simulations above (which place partial files by
    hand), these kill the save *machinery itself* mid-flight — a
    monkeypatched shard store that fails on write — and corrupt the
    persisted plan, then assert the recovery contract: the consistent
    version is the intersection, partial writes are replaced (never
    adopted), and a corrupted ``shard_plan.json`` fails loudly on every
    surface instead of being silently rewritten.
    """

    def _sharded(self, graph, params, num_shards=3):
        walker = ShardedIncrementalWalker(graph, ShardPlan.hashed(num_shards),
                                          params=params)
        index = walker.build()
        return walker, ShardedIndex(index=index, plan=walker.plan)

    def test_save_killed_between_shard_writes_rolls_back_then_replaces(
            self, graph, params, tmp_path, monkeypatch):
        from repro.core.index import SnapshotStore

        walker, sharded = self._sharded(graph, params)
        store = ShardedSnapshotStore(tmp_path / "snaps")
        store.save_snapshot(sharded, shard_systems=walker.shard_systems())

        original = SnapshotStore.save_snapshot
        injected = {"armed": True}

        def dying_save(self, *args, **kwargs):
            if injected["armed"] and self.directory.name == "shard-01":
                raise OSError("injected: disk full between shard writes")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SnapshotStore, "save_snapshot", dying_save)
        with pytest.raises(OSError, match="between shard writes"):
            store.save_snapshot(sharded, shard_systems=walker.shard_systems())

        # Shard 0 wrote v2, shard 1 died, shard 2 never ran: the
        # intersection hides the partial version from every reader.
        assert store.shard_store(0).versions() == [1, 2]
        assert store.shard_store(1).versions() == [1]
        assert store.versions() == [1]
        assert store.latest_version() == 1
        version, loaded, system = store.load()
        assert version == 1
        assert np.array_equal(loaded.index.diagonal, sharded.index.diagonal)
        assert (system - walker.system).nnz == 0

        # Poison the orphaned partial so adoption (vs replacement) would be
        # observable, then retry the save with the fault disarmed.
        injected["armed"] = False
        partial_path = store.shard_store(0).index_path(2)
        partial_path.write_bytes(b"injected: torn partial write")
        version = store.save_snapshot(sharded,
                                      shard_systems=walker.shard_systems())
        assert version == 2
        assert store.versions() == [1, 2]
        version, reloaded, system = store.load()
        assert version == 2
        assert np.array_equal(reloaded.index.diagonal, sharded.index.diagonal)
        assert (system - walker.system).nnz == 0

    def test_service_save_crash_leaves_service_retryable(
            self, graph, params, tmp_path, monkeypatch):
        from repro.core.index import SnapshotStore
        from repro.service import ShardedQueryService

        service = ShardedQueryService.build(
            graph, params, sharding=ShardingParams(num_shards=2),
        )
        try:
            original = SnapshotStore.save_snapshot
            injected = {"armed": True}

            def dying_save(self, *args, **kwargs):
                if injected["armed"] and self.directory.name == "shard-01":
                    raise OSError("injected: shard crash")
                return original(self, *args, **kwargs)

            monkeypatch.setattr(SnapshotStore, "save_snapshot", dying_save)
            with pytest.raises(OSError):
                service.save_snapshot(tmp_path / "snaps")
            assert service.stats()["snapshots_written"] == 0
            injected["armed"] = False
            version, _path = service.save_snapshot(tmp_path / "snaps")
            assert version == service.index_version
            assert service.stats()["snapshots_written"] == 1
            assert ShardedSnapshotStore(tmp_path / "snaps").latest_version() \
                == version
        finally:
            service.close()

    @pytest.mark.parametrize("corruption", [
        b"{not json at all",
        b"{}",
        b'{"strategy": "hash"}',
    ])
    def test_corrupted_plan_fails_loudly_everywhere(
            self, graph, params, tmp_path, corruption):
        walker, sharded = self._sharded(graph, params)
        directory = tmp_path / "snaps"
        store = ShardedSnapshotStore(directory)
        store.save_snapshot(sharded, shard_systems=walker.shard_systems())
        (directory / ShardedSnapshotStore.PLAN_FILE).write_bytes(corruption)

        fresh = ShardedSnapshotStore(directory)
        with pytest.raises(CloudWalkerError, match="shard plan"):
            fresh.load_plan()
        with pytest.raises(CloudWalkerError, match="shard plan"):
            fresh.versions()
        with pytest.raises(CloudWalkerError, match="shard plan"):
            fresh.load()
        # A save must refuse too: overwriting a plan it cannot read could
        # silently re-route every node of an existing lineage.
        with pytest.raises(CloudWalkerError, match="shard plan"):
            fresh.save_snapshot(sharded,
                                shard_systems=walker.shard_systems())
