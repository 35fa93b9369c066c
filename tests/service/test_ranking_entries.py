"""Ranked-answer cache entries: what a hit skips, what drops them, what counts.

The ranking entries of :class:`~repro.service.WalkDistributionCache` hold
finished top-k answers keyed ``(CacheKey, k)``.  These tests pin the
serving-side contract around them: a hit skips the whole pipeline yet hands
out an independent list, every index version bump drops all of them in
every shard while distributions keep their per-ball invalidation, capacity 0
stores nothing, keys never collide across modes, and a batch answered from
them still feeds the rebalance planner.  (The random-interleaving property
against an uncached twin lives in ``tests/test_properties.py``.)
"""

import numpy as np
import pytest

from repro.core.queries import QueryEngine
from repro.core.walks import forward_reachable_set
from repro.service import (
    CacheKey,
    PairQuery,
    QueryService,
    SourceQuery,
    TopKQuery,
    WalkDistributionCache,
)
from repro.service import sharded as sharded_module

TOPK = [TopKQuery(3, k=5), TopKQuery(12, k=4), TopKQuery(3, k=5), TopKQuery(3, k=2)]


@pytest.fixture(params=["single", "sharded"])
def make_any(request, make_service, make_sharded):
    """The same tests against the single-shard and the sharded service."""
    return make_service if request.param == "single" else make_sharded


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a counting pass-through; returns the log."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestHitSkipsThePipeline:
    def test_cached_batch_runs_no_stage(self, make_any, monkeypatch):
        service = make_any()
        cold = service.run_batch(TOPK)
        propagated = count_calls(monkeypatch, QueryEngine, "propagate_source")
        scattered = count_calls(monkeypatch, sharded_module, "run_shard_tasks")
        lookups = count_calls(monkeypatch, WalkDistributionCache, "get")
        simulated_before = service.stats()["sources_simulated"]

        warm = service.run_batch(TOPK)

        assert propagated == [] and scattered == []
        # Three distinct (source, k): three ranking lookups, no distribution
        # lookup for their sources.
        assert len(lookups) == 3
        assert all(isinstance(key, tuple) for _cache, key in lookups)
        assert service.stats()["sources_simulated"] == simulated_before
        assert warm == cold and warm.index_version == cold.index_version
        stats = service.stats()
        assert stats["cache_ranking_hits"] == 3
        assert stats["cache_ranking_misses"] == 3
        assert stats["cache_ranking_entries"] == 3

    def test_answers_are_equal_but_independent_objects(self, make_any):
        service = make_any()
        first = service.run_batch(TOPK)
        assert first[0] == first[2] and first[0] is not first[2]
        second = service.run_batch(TOPK)
        assert second[0] == first[0] and second[0] is not first[0]
        # Scribbling on a served answer must not reach the stored entry.
        expected = list(second[0])
        second[0].clear()
        second[2][0] = (-1, -1.0)
        assert service.run_batch(TOPK)[0] == expected

    def test_only_the_missing_queries_go_down_the_pipeline(self, make_any,
                                                           monkeypatch):
        service = make_any()
        service.run_batch([TopKQuery(3, k=5)])
        propagated = count_calls(monkeypatch, QueryEngine, "propagate_source")
        mixed = [TopKQuery(3, k=5), TopKQuery(12, k=4), SourceQuery(7),
                 PairQuery(3, 9)]
        answers = service.run_batch(mixed)
        # One block propagation, for the uncached top-k and the source
        # query; node 3's vector is not recomputed.
        assert [list(args[1]) for args in propagated] == [[12, 7]]
        plain = make_any(cache_capacity=0).run_batch(mixed)
        assert answers[:2] == plain[:2] and answers[3] == plain[3]
        assert np.array_equal(answers[2], plain[2])

    def test_walkers_override_and_k_are_part_of_the_key(self, make_any):
        service = make_any()
        service.run_batch([TopKQuery(3, k=5)])
        service.run_batch([TopKQuery(3, k=5)], walkers=50)
        service.run_batch([TopKQuery(3, k=6)])
        assert service.stats()["cache_ranking_hits"] == 0
        assert service.stats()["cache_ranking_entries"] == 3


class TestInvalidation:
    def test_update_drops_every_shards_rankings_but_only_the_balls_distributions(
            self, service_graph, service_params):
        from repro.config import ShardingParams

        service = QueryService.build(
            service_graph, service_params,
            sharding=ShardingParams(num_shards=4))
        nodes = range(service_graph.n_nodes)
        service.run_batch([TopKQuery(node, k=3) for node in nodes])
        assert service.cache.ranking_entries == service_graph.n_nodes
        cached = {key.node for key in service.cache._entries}
        assert cached == set(nodes)

        tail, head = 0, 7
        assert not service_graph.has_edge(tail, head)
        result = service.add_edges([(tail, head)])
        ball = forward_reachable_set(service.graph, {head},
                                     service_params.walk_steps)
        assert result.affected == ball and len(ball) < len(cached)

        assert service.cache.ranking_entries == 0
        stats = service.stats()
        assert stats["cache_rankings_dropped"] == service_graph.n_nodes
        # Distributions keep the per-ball rule: exactly cached ∩ ball left.
        assert stats["cache_invalidations"] == len(ball & cached)
        assert stats["cache_size"] == len(cached - ball)
        assert {key.node for key in service.cache._entries} == cached - ball
        service.close()

    def test_answers_after_the_update_are_the_fresh_ones(self, make_any,
                                                         service_graph,
                                                         service_params):
        service = make_any()
        before = service.run_batch(TOPK)
        service.add_edges([(0, 3), (1, 12)])
        after = service.run_batch(TOPK)
        assert after.index_version == before.index_version + 1
        reference = QueryService.build(service.graph, service_params)
        assert after == reference.run_batch(TOPK)
        service.close()

    def test_readding_present_edges_keeps_the_entries(self, make_any,
                                                      service_graph):
        service = make_any()
        service.run_batch(TOPK)
        present = [tuple(edge) for edge in service_graph.edge_array()[:3].tolist()]
        assert service.add_edges(present) is None
        assert service.stats()["cache_ranking_entries"] == 3
        service.run_batch(TOPK)
        assert service.stats()["cache_ranking_hits"] == 3
        service.close()

    def test_plan_flip_keeps_rankings(self, make_sharded):
        service = make_sharded(num_shards=3)
        before = service.run_batch(TOPK)
        entries = service.stats()["cache_ranking_entries"]
        assert service.rebalance(force=True)["applied"]
        assert service.stats()["cache_ranking_entries"] == entries
        hits = service.stats()["cache_ranking_hits"]
        assert service.run_batch(TOPK) == before
        assert service.stats()["cache_ranking_hits"] == hits + entries
        service.close()


class TestKeysAndCapacity:
    def test_capacity_zero_stores_nothing(self, make_any):
        service = make_any(cache_capacity=0)
        first = service.run_batch(TOPK)
        assert service.run_batch(TOPK) == first
        stats = service.stats()
        assert stats["cache_size"] == 0 and stats["cache_ranking_entries"] == 0
        assert stats["cache_memory_bytes"] == 0
        assert stats["cache_hits"] == 0 and stats["cache_ranking_hits"] == 0
        assert len(service.cache._rankings) == 0

    def test_exact_and_approximate_modes_never_share_an_entry(self, make_service):
        exact = make_service()
        approx = make_service(accuracy_budget=0.1, approx_walkers=40,
                              approx_steps=3)
        for service in (exact, approx):
            service.run_batch([TopKQuery(3, k=5)])
        exact_keys = set(exact.cache._rankings)
        approx_keys = set(approx.cache._rankings)
        assert len(exact_keys) == len(approx_keys) == 1
        assert exact_keys.isdisjoint(approx_keys)
        (key, k), = approx_keys
        assert (key.walkers, key.steps, k) == (40, 3, 5)
        # An entry filed by one mode is a miss for the other.
        assert exact.cache.get(next(iter(approx_keys))) is None

    def test_ranking_key_is_the_distribution_key_plus_k(self, make_service,
                                                        service_params):
        service = make_service()
        service.run_batch([TopKQuery(3, k=5)])
        key = CacheKey.for_query(3, service_params, service_params.query_walkers)
        cache = service.cache
        assert key in cache and (key, 5) in cache
        assert (key, 4) not in cache
        entry = cache.get((key, 5))
        assert isinstance(entry, tuple) and len(entry) == 5
        assert all(isinstance(pair, tuple) for pair in entry)


class TestLoadAccountingSeesCachedSources:
    def test_batch_served_from_rankings_still_counts_its_sources(self,
                                                                 make_sharded):
        service = make_sharded(num_shards=3)
        service.run_batch(TOPK)
        before = service.stats()
        service.run_batch(TOPK)       # served entirely from ranking entries
        after = service.stats()
        assert after["cache_ranking_hits"] - before["cache_ranking_hits"] == 3
        distinct = len({query.source for query in TOPK})
        assert after["observed_sources"] - before["observed_sources"] == distinct
        routed = [row["sources_routed"] for row in after["shards"]]
        routed_before = [row["sources_routed"] for row in before["shards"]]
        assert sum(routed) - sum(routed_before) == distinct
        for source in {query.source for query in TOPK}:
            shard = service.shard_of(source)
            assert routed[shard] > routed_before[shard]

    def test_planner_input_does_not_depend_on_the_cache(self, make_sharded):
        """Hot top-k traffic proposes the same plan whether it was served
        from ranking entries or recomputed every time (the parent's
        behaviour, reproduced by ``cache_capacity=0``)."""
        hot = [[TopKQuery(3, k=5), TopKQuery(5, k=5), PairQuery(3, 40)],
               [TopKQuery(3, k=5), SourceQuery(9)],
               [TopKQuery(5, k=5), TopKQuery(3, k=5), PairQuery(7, 7)]] * 6
        cached, plain = make_sharded(num_shards=3), make_sharded(
            num_shards=3, cache_capacity=0)
        for batch in hot:
            cached.run_batch(batch)
            plain.run_batch(batch)
        assert cached.stats()["cache_ranking_hits"] > 0
        assert cached._node_loads == plain._node_loads
        assert cached._node_loads[3] == len(hot)    # once per batch, not per query
        n = cached.graph.n_nodes
        proposals = [service.plan_rebalance() for service in (cached, plain)]
        assert (proposals[0][0].assign(n) == proposals[1][0].assign(n)).all()
        assert proposals[0][1].to_dict() == proposals[1][1].to_dict()
        for left, right in zip(cached.stats()["shards"], plain.stats()["shards"]):
            assert left["sources_routed"] == right["sources_routed"]
