"""Score cache entries: what a hit skips, what drops them, what counts.

The score entries of :class:`~repro.service.WalkDistributionCache` hold one
source's :class:`~repro.core.queries.SourceScores` record under its id,
with the source's top-k rankings memoised per ``k``.
These tests pin the serving-side contract around them: a hit skips the
whole pipeline yet hands out independent answers, every ``k`` of a source
shares one entry, every applied update drops all of them
while distributions keep their per-ball invalidation, capacity 0 stores
nothing, services at different operating points keep separate caches, and
their bytes are counted.  (The
random-interleaving property against an uncached twin lives in
``tests/test_properties.py``.)
"""

import numpy as np
import pytest

from repro.core import montecarlo
from repro.core.queries import QueryEngine
from repro.core.walks import forward_reachable_set
from repro.service import (
    PairQuery,
    QueryService,
    SourceQuery,
    TopKQuery,
    WalkDistributionCache,
)
from repro.service import service as service_module
from repro.service import sharded as sharded_module
from repro.service.cache import ScoreEntry

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


def count_stages(monkeypatch):
    """Count every pipeline stage a batch can run: plan, scatter, walk
    simulation and propagation."""
    return {
        "plan": count_calls(monkeypatch, service_module, "plan_batch"),
        "scatter": count_calls(monkeypatch, sharded_module, "run_shard_tasks"),
        "simulate": count_calls(monkeypatch, montecarlo,
                                "estimate_walk_distributions_batch"),
        "propagate": count_calls(monkeypatch, QueryEngine, "propagate_source"),
    }


def assert_answers_equal(left, right):
    assert len(left) == len(right)
    for ours, theirs in zip(left, right):
        if isinstance(ours, np.ndarray):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        else:
            assert ours == theirs


class TestHitSkipsThePipeline:
    def test_cached_batch_runs_no_stage(self, make_any, monkeypatch):
        service = make_any()
        cold = service.run_batch(TOPK)
        stages = count_stages(monkeypatch)
        distribution_lookups = count_calls(monkeypatch, WalkDistributionCache,
                                           "get")
        score_lookups = count_calls(monkeypatch, WalkDistributionCache,
                                    "get_scores")
        simulated_before = service.stats()["sources_simulated"]

        warm = service.run_batch(TOPK)

        assert all(calls == [] for calls in stages.values())
        # Two distinct sources: two score lookups, no distribution lookup.
        assert len(score_lookups) == 2 and distribution_lookups == []
        assert service.stats()["sources_simulated"] == simulated_before
        assert warm == cold and warm.index_version == cold.index_version
        stats = service.stats()
        assert stats["cache_score_hits"] == 2
        assert stats["cache_score_misses"] == 2
        assert stats["cache_score_entries"] == 2

    def test_cached_source_and_topk_batch_runs_no_stage(self, make_any,
                                                        monkeypatch):
        service = make_any()
        batch = [SourceQuery(5), TopKQuery(5, k=3), TopKQuery(9, k=7),
                 SourceQuery(9), SourceQuery(5)]
        cold = service.run_batch(batch)
        stages = count_stages(monkeypatch)
        warm = service.run_batch(batch)
        assert all(calls == [] for calls in stages.values())
        assert service.last_batch_payload_bytes == 0
        assert_answers_equal(warm, cold)
        assert_answers_equal(warm, make_any(cache_capacity=0).run_batch(batch))

    def test_repeated_source_is_served_from_its_entry(self, make_any,
                                                      monkeypatch):
        service = make_any()
        first = service.run_batch([SourceQuery(7)])
        before = service.stats()
        stages = count_stages(monkeypatch)
        second = service.run_batch([SourceQuery(7)])
        after = service.stats()
        assert after["cache_hits"] - before["cache_hits"] == 1
        assert after["cache_score_hits"] - before["cache_score_hits"] == 1
        assert after["cache_misses"] == before["cache_misses"]
        assert after["sources_simulated"] == before["sources_simulated"]
        assert stages["simulate"] == [] and stages["propagate"] == []
        assert_answers_equal(second, first)

    def test_every_k_of_a_source_shares_one_entry(self, make_any, monkeypatch):
        service = make_any()
        top3 = service.run_batch([TopKQuery(3, k=3)])[0]
        propagated = count_calls(monkeypatch, QueryEngine, "propagate_source")
        top10 = service.run_batch([TopKQuery(3, k=10)])[0]
        stats = service.stats()
        assert propagated == []
        assert stats["cache_score_entries"] == 1
        assert (stats["cache_score_hits"], stats["cache_score_misses"]) == (1, 1)
        assert top10[:3] == top3 and len(top10) == 10
        plain = make_any(cache_capacity=0)
        assert plain.run_batch([TopKQuery(3, k=10)])[0] == top10

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

    def test_served_vectors_are_independent_of_the_entry(self, make_any):
        service = make_any()
        first, again = service.run_batch([SourceQuery(4), SourceQuery(4)])
        assert first is not again and np.array_equal(first, again)
        expected = first.copy()
        first[:] = -1.0
        again[4] = 7.0
        served = service.run_batch([SourceQuery(4)])[0]
        assert served.tobytes() == expected.tobytes()

    def test_only_the_missing_queries_go_down_the_pipeline(self, make_any,
                                                           monkeypatch):
        service = make_any()
        service.run_batch([TopKQuery(3, k=5)])
        propagated = count_calls(monkeypatch, QueryEngine, "propagate_source")
        mixed = [TopKQuery(3, k=5), TopKQuery(12, k=4), SourceQuery(7),
                 PairQuery(3, 9), SourceQuery(3)]
        answers = service.run_batch(mixed)
        # One block propagation, for the uncached top-k and the source
        # query; node 3's scores are not recomputed, whatever asks for them.
        assert [list(args[1]) for args in propagated] == [[12, 7]]
        assert_answers_equal(answers, make_any(cache_capacity=0).run_batch(mixed))

    def test_one_entry_per_source_whatever_k(
            self, make_any, service_graph, service_index, service_params):
        service = make_any()
        service.run_batch([TopKQuery(3, k=5)])
        service.run_batch([TopKQuery(3, k=6), SourceQuery(3)])
        assert service.stats()["cache_score_hits"] == 1
        assert service.stats()["cache_score_entries"] == 1
        # A service at another walker count files the source in its own
        # cache, from its own walks.
        other = QueryService(service_graph, service_index,
                             service_params.with_(query_walkers=50))
        other.run_batch([TopKQuery(3, k=5)])
        assert list(other.cache._scores) == [3]
        assert other.cache is not service.cache
        assert other.cache.get(3).walkers == 50


class TestInvalidation:
    def test_update_drops_every_shards_scores_but_only_the_balls_distributions(
            self, service_graph, service_params):
        from repro.config import ShardingParams

        service = QueryService.build(
            service_graph, service_params,
            sharding=ShardingParams(num_shards=4))
        nodes = range(service_graph.n_nodes)
        service.run_batch([TopKQuery(node, k=3) for node in nodes])
        assert service.cache.score_entries == service_graph.n_nodes
        cached = set(service.cache._entries)
        assert cached == set(nodes)

        tail, head = 0, 7
        assert not service_graph.has_edge(tail, head)
        result = service.add_edges([(tail, head)])
        ball = forward_reachable_set(service.graph, {head},
                                     service_params.walk_steps)
        assert result.affected == ball and len(ball) < len(cached)

        assert service.cache.score_entries == 0
        stats = service.stats()
        assert stats["cache_score_dropped"] == service_graph.n_nodes
        # Distributions keep the per-ball rule: exactly cached ∩ ball left.
        assert stats["cache_invalidations"] == len(ball & cached)
        assert stats["cache_size"] == len(cached - ball)
        assert set(service.cache._entries) == cached - ball
        service.close()

    def test_answers_after_the_update_are_the_fresh_ones(self, make_any,
                                                         service_graph,
                                                         service_params):
        service = make_any()
        batch = TOPK + [SourceQuery(3)]
        before = service.run_batch(batch)
        service.add_edges([(0, 3), (1, 12)])
        after = service.run_batch(batch)
        assert after.index_version == before.index_version + 1
        reference = QueryService.build(service.graph, service_params)
        assert_answers_equal(after, reference.run_batch(batch))
        service.close()

    def test_readding_present_edges_keeps_the_entries(self, make_any,
                                                      service_graph):
        service = make_any()
        service.run_batch(TOPK)
        present = [tuple(edge) for edge in service_graph.edge_array()[:3].tolist()]
        assert service.add_edges(present) is None
        assert service.stats()["cache_score_entries"] == 2
        service.run_batch(TOPK)
        assert service.stats()["cache_score_hits"] == 2
        service.close()

    def test_snapshot_save_keeps_scores(self, make_sharded, tmp_path):
        service = make_sharded(num_shards=3)
        before = service.run_batch(TOPK)
        entries = service.stats()["cache_score_entries"]
        service.save_snapshot(tmp_path)
        assert service.stats()["cache_score_entries"] == entries
        hits = service.stats()["cache_score_hits"]
        assert service.run_batch(TOPK) == before
        assert service.stats()["cache_score_hits"] == hits + entries
        service.close()


class TestKeysAndCapacity:
    def test_capacity_zero_stores_nothing(self, make_any):
        service = make_any(cache_capacity=0)
        batch = TOPK + [SourceQuery(3), SourceQuery(3)]
        first = service.run_batch(batch)
        assert_answers_equal(service.run_batch(batch), first)
        stats = service.stats()
        assert stats["cache_size"] == 0 and stats["cache_score_entries"] == 0
        assert stats["cache_memory_bytes"] == 0 and stats["cache_inserts"] == 0
        assert stats["cache_hits"] == 0 and stats["cache_score_hits"] == 0
        assert stats["cache_score_misses"] == 4
        assert len(service.cache._scores) == 0

    def test_exact_and_approximate_modes_never_share_an_entry(self, make_service):
        """Entries are keyed by source id alone; what keeps the modes apart
        is that each service owns its cache, and a service fixes its
        operating point at construction."""
        exact = make_service()
        approx = make_service(accuracy_budget=0.1, approx_walkers=40,
                              approx_steps=3)
        assert exact.cache is not approx.cache
        assert (approx.query_params.query_walkers,
                approx.query_params.walk_steps) == (40, 3)
        for service in (exact, approx):
            service.run_batch([TopKQuery(3, k=5)])
        assert list(exact.cache._scores) == list(approx.cache._scores) == [3]
        # Each holds what its own mode walked.
        for service in (exact, approx):
            entry = service.cache.get(3)
            assert (entry.walkers, entry.steps) == (
                service.query_params.query_walkers,
                service.query_params.walk_steps)
        assert exact.cache.get(3).walkers != 40

    def test_score_key_is_the_distribution_key(self, make_service,
                                               service_params):
        service = make_service()
        service.run_batch([TopKQuery(3, k=5)])
        cache = service.cache
        assert 3 in cache and 3 in cache._scores
        entry = cache.get_scores(3)
        assert isinstance(entry, ScoreEntry) and entry.scores.source == 3
        assert len(entry.top_k(5)) == 5

    def test_memory_bytes_counts_score_records(self, make_any):
        service = make_any()
        service.run_batch([SourceQuery(node) for node in (1, 2, 3)]
                          + [TopKQuery(4, k=3)])
        cache = service.cache
        distributions = sum(entry.offsets.nbytes + entry.nodes.nbytes
                            + entry.values.nbytes
                            for entry in cache._entries.values())
        records = sum(entry.scores.nodes.nbytes + entry.scores.values.nbytes
                      for entry in cache._scores.values())
        assert len(cache._scores) == 4 and records > 0
        assert service.stats()["cache_memory_bytes"] == distributions + records
        assert cache.drop_scores() == 4
        assert service.stats()["cache_memory_bytes"] == distributions
