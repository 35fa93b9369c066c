"""Tests for the Broadcasting and RDD execution models.

The broadcasting model is exact: for any number of partitions its index is
byte-equal to the local estimator's and to the query service's, because
every row reads its own ``(seed, node)`` stream.  The RDD model samples
walks its own way, so it matches the local index up to Monte-Carlo noise
and must exercise the engine's shuffle machinery.  Both answer queries
consistently with the local engine.
"""

import numpy as np
import pytest

from repro.config import ClusterSpec, ExecutionOptions, SimRankParams
from repro.core.broadcast_impl import BroadcastingModel
from repro.core.diagonal import build_diagonal_index
from repro.core.rdd_impl import RDDModel, _spread_counts
from repro.engine import ClusterContext
from repro.errors import IndexNotBuiltError
from repro.graph import generators


@pytest.fixture(scope="module")
def graph():
    return generators.copying_model_graph(90, out_degree=4, copy_prob=0.5, seed=21)


@pytest.fixture(scope="module")
def params():
    return SimRankParams(c=0.6, walk_steps=5, jacobi_iterations=4,
                         index_walkers=120, query_walkers=400, seed=17)


@pytest.fixture(scope="module")
def local_index(graph, params):
    return build_diagonal_index(graph, params)


class TestBroadcastingModel:
    @pytest.mark.parametrize("num_partitions", [1, 2, 3, 4])
    def test_build_index_matches_local(self, graph, params, local_index,
                                       num_partitions):
        from repro.service import QueryService

        model = BroadcastingModel(graph, params=params,
                                  num_partitions=num_partitions)
        index = model.build_index()
        assert index.build_info.execution_model == "broadcasting"
        assert index.n_nodes == graph.n_nodes
        # Same rows, same Jacobi sweeps, whatever the partitioning.
        assert index.diagonal.tobytes() == local_index.diagonal.tobytes()
        served = QueryService.build(graph, params).index.diagonal
        assert index.diagonal.tobytes() == served.tobytes()
        model.shutdown()

    def test_engine_jobs_recorded(self, graph, params):
        model = BroadcastingModel(graph, params=params, num_partitions=3)
        index = model.build_index()
        assert index.build_info.extras["engine_tasks"] > 0
        assert index.build_info.extras["graph_broadcast_bytes"] == graph.memory_bytes()
        assert len(model.context.job_history) > 0
        model.shutdown()

    def test_queries_after_build(self, graph, params):
        model = BroadcastingModel(graph, params=params, num_partitions=2)
        model.build_index()
        value = model.single_pair(1, 5)
        assert 0.0 <= value <= 1.0
        scores = model.single_source(3)
        assert scores.shape == (graph.n_nodes,)
        assert scores[3] == pytest.approx(1.0)
        sample = model.all_pairs(nodes=[0, 1])
        assert sample.shape == (graph.n_nodes, graph.n_nodes)
        model.shutdown()

    def test_query_before_build_raises(self, graph, params):
        model = BroadcastingModel(graph, params=params)
        with pytest.raises(IndexNotBuiltError):
            model.single_pair(0, 1)
        model.shutdown()

    def test_feasibility_check(self, graph, params):
        tiny_cluster = ClusterSpec(machines=2, cores_per_machine=2,
                                   memory_per_machine_gb=1e-6)
        model = BroadcastingModel(graph, params=params)
        assert model.feasible_on()  # default local cluster has plenty of room
        assert not model.feasible_on(tiny_cluster)
        model.shutdown()

    def test_shared_context_reused(self, graph, params):
        ctx = ClusterContext(ExecutionOptions(backend="serial"))
        model = BroadcastingModel(graph, params=params, context=ctx)
        model.build_index()
        assert model.context is ctx
        ctx.shutdown()


class TestRDDModel:
    def test_build_index_matches_local(self, graph, params, local_index):
        model = RDDModel(graph, params=params, num_partitions=3)
        index = model.build_index()
        assert index.build_info.execution_model == "rdd"
        assert np.abs(index.diagonal - local_index.diagonal).mean() < 0.05
        model.shutdown()

    def test_shuffles_recorded(self, graph, params):
        model = RDDModel(graph, params=params, num_partitions=3)
        index = model.build_index()
        # The walk steps shuffle walker records around, so shuffle traffic
        # must be visible in the metrics — this is the structural difference
        # from the broadcasting model.
        assert index.build_info.extras["shuffle_bytes"] > 0
        model.shutdown()

    def test_walk_counts_by_step_conserves_walkers_on_cycle(self, params):
        cycle = generators.cycle_graph(12)
        model = RDDModel(cycle, params=params, num_partitions=2)
        per_step = model.walk_counts_by_step([0, 5], walkers_per_source=16)
        assert len(per_step) == params.walk_steps + 1
        for step_records in per_step:
            totals = {}
            for source, _node, count in step_records:
                totals[source] = totals.get(source, 0) + count
            assert totals == {0: 16, 5: 16}
        model.shutdown()

    def test_walkers_absorbed_on_star(self, params):
        star = generators.star_graph(5)
        model = RDDModel(star, params=params, num_partitions=2)
        per_step = model.walk_counts_by_step([1], walkers_per_source=8)
        assert len(per_step) == params.walk_steps + 1
        assert sum(count for _s, _n, count in per_step[0]) == 8
        assert sum(count for _s, _n, count in per_step[2]) == 0
        model.shutdown()

    def test_queries_match_local_engine(self, graph, params, local_index):
        from repro.core.queries import QueryEngine

        model = RDDModel(graph, params=params, num_partitions=2)
        model.build_index()
        local_engine = QueryEngine(graph, local_index, params)
        pair_rdd = model.single_pair(2, 9, walkers=3000)
        pair_local = local_engine.single_pair(2, 9, walkers=3000)
        assert pair_rdd == pytest.approx(pair_local, abs=0.05)
        source_rdd = model.single_source(4, walkers=2000)
        source_local = local_engine.single_source(4, walkers=2000)
        assert source_rdd[4] == 1.0
        assert np.abs(source_rdd - source_local).mean() < 0.02
        model.shutdown()

    def test_self_pair_is_one(self, graph, params):
        model = RDDModel(graph, params=params)
        model.build_index()
        assert model.single_pair(3, 3) == 1.0
        model.shutdown()

    def test_query_before_build_raises(self, graph, params):
        model = RDDModel(graph, params=params)
        with pytest.raises(IndexNotBuiltError):
            model.single_source(0)
        model.shutdown()

    def test_all_pairs_subset(self, graph, params):
        model = RDDModel(graph, params=params)
        model.build_index(index_walkers=40)
        matrix = model.all_pairs(nodes=[0, 1], walkers=50)
        assert matrix.shape == (graph.n_nodes, graph.n_nodes)
        assert matrix[0, 0] == 1.0
        model.shutdown()

    def test_reduced_walker_budget_recorded(self, graph, params):
        model = RDDModel(graph, params=params)
        index = model.build_index(index_walkers=25)
        assert index.build_info.extras["index_walkers_used"] == 25
        model.shutdown()


class TestSpreadCounts:
    def test_conserves_total(self):
        rng = np.random.default_rng(0)
        neighbors = np.array([3, 4, 5])
        spread = _spread_counts(rng, neighbors, 100)
        assert sum(count for _node, count in spread) == 100
        assert {node for node, _count in spread} <= {3, 4, 5}

    def test_single_neighbor_fast_path(self):
        rng = np.random.default_rng(0)
        assert _spread_counts(rng, np.array([7]), 13) == [(7, 13)]

    def test_empty_neighbors(self):
        rng = np.random.default_rng(0)
        assert _spread_counts(rng, np.array([], dtype=np.int64), 5) == []
        assert _spread_counts(rng, np.array([1]), 0) == []


class TestModelEquivalence:
    def test_three_models_agree_on_similarity_ranking(self, graph, params, local_index):
        """The three execution paths must produce interchangeable indexes."""
        from repro.core.exact import linearized_simrank_matrix, ranking_overlap

        broadcast_index = BroadcastingModel(graph, params=params).build_index()
        rdd_index = RDDModel(graph, params=params).build_index()
        reference = linearized_simrank_matrix(graph, local_index.diagonal, params)
        for other in (broadcast_index, rdd_index):
            matrix = linearized_simrank_matrix(graph, other.diagonal, params)
            assert ranking_overlap(reference, matrix, k=5) > 0.9
