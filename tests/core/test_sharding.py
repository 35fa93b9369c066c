"""Tests for the sharded index build/maintenance machinery.

The load-bearing claims pinned here:

* a sharded build's gathered linear system — and therefore its solved
  diagonal — is bitwise-identical to the single-shard build, for every
  strategy and backend;
* incremental updates through the sharded walker splice to the exact same
  system and diagonal as a from-scratch build on the updated graph;
* :class:`ShardPlan` is a total, persistable routing function.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.config import ShardingParams, SimRankParams
from repro.core.index import ShardedIndex
from repro.core.sharding import (
    ShardedIncrementalWalker,
    _choose_rows,
    build_sharded_index,
    estimate_shard_rows,
    gather_shard_rows,
    make_plan,
)
from repro.core.walks import forward_reachable_set
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
def reference(graph, params, from_scratch):
    """The from-scratch build the sharded walker must match bitwise."""
    return from_scratch(graph, params)


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

    @pytest.mark.parametrize("strategy", ["hash", "contiguous", "partitioner"])
    def test_group_nodes_matches_shard_of_elementwise(self, graph, strategy):
        plan = ShardPlan.for_graph(graph, 4, strategy)
        # Duplicates, any order, and ids past the planned range (the
        # partitioner's hash fallback) — as a set, a list and an array.
        nodes = [graph.n_nodes + 6, 3, 0, 3, graph.n_nodes, 2 ** 40, 17, 1]
        expected = {}
        for node in sorted(nodes):
            expected.setdefault(plan.shard_of(node), []).append(node)
        for given_nodes in (nodes, np.asarray(nodes), frozenset(nodes)):
            groups = plan.group_nodes(given_nodes)
            reference = expected if not isinstance(given_nodes, frozenset) else {
                shard: sorted(set(group)) for shard, group in expected.items()}
            assert groups == reference
            assert all(type(node) is int for group in groups.values()
                       for node in group)
        assert plan.group_nodes([]) == {}
        with pytest.raises(ConfigurationError):
            plan.group_nodes([4, -1])

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
        rows, cols, values = linear_system.build_rows(
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
    def test_add_edges_bitwise_identical(self, graph, params, num_shards,
                                         from_scratch):
        edges = [(0, 30), (2, 95), (95, 1)]  # includes node growth
        walker = ShardedIncrementalWalker(graph, ShardPlan.hashed(num_shards),
                                          params=params)
        walker.build()
        result = walker.add_edges(edges)

        merged = graph.with_edges(edges)
        single = from_scratch(merged, params)
        assert result.affected == frozenset(forward_reachable_set(
            merged, {30, 95, 1}, params.walk_steps)) | {90, 91, 92, 93, 94, 95}
        assert np.array_equal(walker.index.diagonal, single.index.diagonal)
        assert (walker.system - single.system).nnz == 0
        # Only the shards owning re-estimated rows ran a task.
        expected_touched = frozenset(
            walker.plan.shard_of(node) for node in result.estimated
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

    def test_attach_under_another_plan_adopts_the_system_as_is(self, graph,
                                                              params):
        # A walker under another plan takes over the maintained system and
        # index themselves (no re-estimation, no copy, no per-shard
        # slicing), and its updates are the original walker's bit for bit:
        # the plan groups row tasks, it does not shape the system.
        walker = ShardedIncrementalWalker(graph, ShardPlan.hashed(3),
                                          params=params)
        walker.build()
        walker.add_edges([(0, 30), (2, 95)])
        other = ShardedIncrementalWalker(
            walker.graph, ShardPlan.contiguous(3, walker.graph.n_nodes),
            params=params)
        other.attach(walker.index, system=walker.system)
        assert other.system is walker.system
        assert other.index is walker.index
        walker.add_edges([(5, 40)])
        other.add_edges([(5, 40)])
        assert (other.system - walker.system).nnz == 0
        assert np.array_equal(other.index.diagonal, walker.index.diagonal)

    def test_add_edges_before_build_raises(self, graph, params):
        walker = ShardedIncrementalWalker(graph, ShardPlan.hashed(2),
                                          params=params)
        with pytest.raises(ConfigurationError, match="before add_edges"):
            walker.add_edges([(0, 1)])


class TestChooseRows:
    """The update splice: whole rows from one operand or the other."""

    def test_matches_a_dense_row_select(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            n = int(rng.integers(0, 10))
            # Either operand may have fewer rows (the pre-growth system):
            # rows past its end count as empty.
            operands = [sparse.random(int(rng.integers(0, n + 1)), n,
                                      density=0.4, format="csr",
                                      random_state=2 * trial + side)
                        for side in (0, 1)]
            dense = []
            for operand in operands:
                padded = np.zeros((n, n))
                padded[:operand.shape[0]] = operand.toarray()
                dense.append(padded)
            mask = rng.random(n) < rng.random()
            chosen = _choose_rows(mask, *operands)
            assert chosen.shape == (n, n)
            assert np.array_equal(chosen.toarray(),
                                  np.where(mask[:, None], *dense))
            assert chosen.has_sorted_indices
            assert np.count_nonzero(chosen.data) == chosen.nnz


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
