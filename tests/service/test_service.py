"""QueryService behaviour: batch semantics, core equivalence, accounting."""

import numpy as np
import pytest

from repro.config import ServiceParams
from repro.core import montecarlo
from repro.errors import CloudWalkerError, ConfigurationError, NodeNotFoundError
from repro.service import PairQuery, QueryService, SourceQuery, TopKQuery


class TestBatchSemantics:
    def test_answers_align_with_query_order(self, make_service):
        service = make_service()
        answers = service.run_batch([
            PairQuery(3, 9), SourceQuery(3), TopKQuery(9, k=4), PairQuery(2, 2),
        ])
        assert isinstance(answers[0], float)
        assert isinstance(answers[1], np.ndarray)
        assert isinstance(answers[2], list) and len(answers[2]) == 4
        assert answers[3] == 1.0

    def test_batch_matches_single_query_paths(self, make_service):
        batch_service = make_service()
        single_service = make_service()
        queries = [PairQuery(3, 9), SourceQuery(7), TopKQuery(5, k=3)]
        batched = batch_service.run_batch(queries)
        assert single_service.single_pair(3, 9) == batched[0]
        assert np.array_equal(single_service.single_source(7), batched[1])
        assert single_service.top_k(5, k=3) == batched[2]

    def test_chunked_batch_identical_to_unchunked(self, make_service,
                                                  service_params):
        # The kernel alone sizes its blocks: two sources per block here.
        from unittest import mock

        from repro.core import walks

        queries = [SourceQuery(node) for node in range(9)]
        draws = service_params.query_walkers * service_params.walk_steps
        with mock.patch.object(walks, "_BLOCK_DRAWS", 2 * draws):
            left = make_service().run_batch(queries)
        right = make_service().run_batch(queries)
        for a, b in zip(left, right):
            assert a.tobytes() == b.tobytes()

    def test_symmetry_within_batch(self, make_service):
        service = make_service()
        forward, backward = service.run_batch([PairQuery(3, 9), PairQuery(9, 3)])
        assert forward == backward

    def test_empty_batch(self, make_service):
        assert make_service().run_batch([]) == []


class TestCoreEquivalence:
    """Service answers are bitwise-equal to direct core computations."""

    def test_pair_matches_direct_core_call(
        self, make_service, service_graph, service_params, direct_engine
    ):
        service = make_service()
        dist_3 = montecarlo.estimate_walk_distributions(service_graph, 3, service_params)
        dist_9 = montecarlo.estimate_walk_distributions(service_graph, 9, service_params)
        expected = direct_engine.combine_pair(dist_3, dist_9)
        assert service.single_pair(3, 9) == expected

    def test_source_matches_direct_core_call(
        self, make_service, service_graph, service_params, direct_engine
    ):
        service = make_service()
        dist = montecarlo.estimate_walk_distributions(service_graph, 7, service_params)
        expected = direct_engine.propagate_source(7, dist).dense()
        assert np.array_equal(service.single_source(7), expected)

    def test_topk_matches_engine_ranking_of_same_scores(self, make_service):
        service = make_service()
        from repro.core.queries import rank_top_k

        scores = service.single_source(5)
        assert service.top_k(5, k=6) == rank_top_k(scores, 5, 6)

    @pytest.mark.parametrize("call", [
        lambda service: service.run_batch([PairQuery(3, 9)], walkers=64),
        lambda service: service.single_pair(3, 9, walkers=64),
        lambda service: service.single_source(3, walkers=64),
        lambda service: service.top_k(3, k=4, walkers=64),
    ], ids=["run_batch", "single_pair", "single_source", "top_k"])
    def test_query_calls_take_no_walker_override(self, make_service, call):
        # One operating point per service: the walker count is the
        # service's query_walkers, never a per-call argument.
        service = make_service()
        with pytest.raises(TypeError, match="walkers"):
            call(service)
        assert len(service.cache) == 0

    def test_walker_count_matches_direct_core_call(
        self, service_graph, service_index, service_params, direct_engine
    ):
        service = QueryService(service_graph, service_index,
                               service_params.with_(query_walkers=64))
        dist_3 = montecarlo.estimate_walk_distributions(
            service_graph, 3, service_params, walkers=64
        )
        dist_9 = montecarlo.estimate_walk_distributions(
            service_graph, 9, service_params, walkers=64
        )
        expected = direct_engine.combine_pair(dist_3, dist_9)
        assert service.single_pair(3, 9) == expected
        assert {entry.walkers for entry in service.cache._entries.values()} == {64}

    def test_restart_reproduces_answers(self, make_service):
        first = make_service()
        second = make_service()
        assert first.single_pair(3, 9) == second.single_pair(3, 9)
        assert np.array_equal(first.single_source(7), second.single_source(7))


class TestValidationAndAccounting:
    def test_unknown_node_rejected_before_execution(self, make_service):
        service = make_service()
        with pytest.raises(NodeNotFoundError):
            service.run_batch([PairQuery(0, 10_000)])
        with pytest.raises(NodeNotFoundError):
            service.single_source(-1)
        assert service.stats()["queries"] == 0

    def test_invalid_k_rejected(self, make_service):
        with pytest.raises(CloudWalkerError):
            make_service().run_batch([TopKQuery(3, k=0)])

    def test_mismatched_index_rejected(self, service_index, service_params):
        from repro.graph import generators

        other_graph = generators.cycle_graph(12)
        with pytest.raises(CloudWalkerError):
            QueryService(other_graph, service_index, service_params)

    def test_invalid_service_params_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceParams(cache_capacity=-1)
        with pytest.raises(ConfigurationError):
            ServiceParams(default_top_k=0)

    def test_self_pair_needs_no_simulation(self, make_service):
        service = make_service()
        assert service.single_pair(4, 4) == 1.0
        stats = service.stats()
        assert stats["sources_simulated"] == 0 and stats["cache_size"] == 0

    def test_stats_counters(self, make_service):
        service = make_service()
        service.run_batch([
            PairQuery(3, 9), PairQuery(3, 9), SourceQuery(3), TopKQuery(9, k=2),
        ])
        stats = service.stats()
        assert stats["queries"] == 4 and stats["batches"] == 1
        assert stats["pair_queries"] == 2
        assert stats["source_queries"] == 1 and stats["topk_queries"] == 1
        # 6 source references collapse onto 2 distinct simulations.
        assert stats["sources_simulated"] == 2
        assert stats["sources_deduplicated"] == 4

    def test_repr_mentions_traffic(self, make_service):
        service = make_service()
        service.single_pair(1, 2)
        assert "queries=1" in repr(service)
