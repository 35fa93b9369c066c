"""Cache correctness: accounting, LRU eviction, and result invariance."""

import numpy as np
import pytest

from repro.core import montecarlo
from repro.core.queries import SourceScores
from repro.errors import ConfigurationError
from repro.service import (
    PairQuery,
    SourceQuery,
    TopKQuery,
    WalkDistributionCache,
)
from repro.service.cache import SCORE_SLOT_BYTES, ScoreEntry


def _distribution(service_graph, service_params, node: int):
    return montecarlo.estimate_walk_distributions(
        service_graph, node, service_params
    )


class TestAccounting:
    def test_miss_then_hit(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=4)
        assert cache.get(1) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        entry = _distribution(service_graph, service_params, 1)
        cache.put(1, entry)
        assert cache.get(1) is entry
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.inserts == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_distinct_keys_do_not_collide(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=4)
        entry = _distribution(service_graph, service_params, 1)
        cache.put(1, entry)
        assert cache.get(2) is None and cache.get_scores(1) is None
        assert cache.get(1) is entry

    def test_contains_does_not_touch_stats_or_recency(
        self, service_graph, service_params
    ):
        cache = WalkDistributionCache(capacity=2)
        cache.put(1, _distribution(service_graph, service_params, 1))
        cache.put(2, _distribution(service_graph, service_params, 2))
        assert 1 in cache and 3 not in cache
        assert cache.stats.lookups == 0
        # Key 1 is still least-recently-used despite the membership test.
        cache.put(3, _distribution(service_graph, service_params, 3))
        assert 1 not in cache

    def test_memory_accounting(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=4)
        assert cache.memory_bytes() == 0
        cache.put(1, _distribution(service_graph, service_params, 1))
        assert cache.memory_bytes() > 0

    def test_served_entries_share_no_buffer(self, make_service):
        """Entries simulated and scored in one batch each own their arrays,
        so evicting one frees it and ``memory_bytes`` is what is actually
        resident."""
        service = make_service(cache_capacity=16)
        service.run_batch([SourceQuery(node) for node in (1, 2, 3, 4, 5)])
        entries = list(service.cache._entries.values())
        assert len(entries) == 5
        owners = {}
        for position, entry in enumerate(entries):
            for array in (entry.offsets, entry.nodes, entry.values):
                base = array if array.base is None else array.base
                assert base.flags.owndata
                owners.setdefault(id(base), (position, base.nbytes))
                assert owners[id(base)][0] == position
        scores = list(service.cache._scores.values())
        assert len(scores) == 5
        for position, entry in enumerate(scores, start=len(entries)):
            for array in (entry.scores.nodes, entry.scores.values):
                base = array if array.base is None else array.base
                assert base.flags.owndata
                owners.setdefault(id(base), (position, base.nbytes))
                assert owners[id(base)][0] == position
        assert service.cache.memory_bytes() == sum(
            nbytes for _position, nbytes in owners.values())

    def test_clear_keeps_stats(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=4)
        cache.put(1, _distribution(service_graph, service_params, 1))
        cache.get(1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1 and cache.stats.inserts == 1


def _scores(node: int, length: int) -> SourceScores:
    """A score record of ``length`` support nodes (values need not be real)."""
    return SourceScores(node, 64, np.arange(length, dtype=np.int64),
                        np.full(length, 0.5))


def _recount(cache: WalkDistributionCache) -> int:
    """``memory_bytes`` the slow way: walk every entry of both kinds."""
    total = 0
    for entry in cache._entries.values():
        for array in (entry.offsets, entry.nodes, entry.values):
            total += array.nbytes
    for entry in cache._scores.values():
        total += entry.scores.nodes.nbytes + entry.scores.values.nbytes
    return total


class TestRunningByteTotal:
    def test_total_equals_a_recount_after_any_operation_sequence(
        self, service_graph, service_params
    ):
        rng = np.random.default_rng(5)
        pool = {node: _distribution(service_graph, service_params, node)
                for node in range(12)}
        cache = WalkDistributionCache(capacity=6)
        seen = set()
        for _ in range(600):
            operation = rng.choice(
                ["put", "put", "put", "score", "score", "get", "invalidate",
                 "drop", "clear"],
                p=[0.2, 0.2, 0.2, 0.12, 0.12, 0.1, 0.03, 0.02, 0.01])
            node = int(rng.integers(0, 12))
            if operation == "put":           # insert, refresh or evict
                cache.put(node, pool[node])
            elif operation == "score":       # records of varying length
                cache.put_scores(node, _scores(node, int(rng.integers(0, 9))))
            elif operation == "get":
                cache.get(node)
                cache.get_scores(node)
            elif operation == "invalidate":
                cache.invalidate_sources(rng.integers(0, 12, size=3).tolist())
            elif operation == "drop":
                cache.drop_scores()
            else:
                cache.clear()
            assert cache.memory_bytes() == _recount(cache)
            assert len(cache) <= 6 and cache.score_entries <= 6
            seen.add((len(cache) > 0, cache.score_entries > 0))
        assert len(seen) == 4           # every mix of kinds was visited
        assert cache.stats.evictions > 0 and cache.stats.invalidations > 0
        assert cache.stats.score_dropped > 0

    def test_memory_bytes_does_not_walk_the_entries(
        self, service_graph, service_params
    ):
        cache = WalkDistributionCache(capacity=4)
        cache.put(1, _distribution(service_graph, service_params, 1))
        cache.put_scores(1, _scores(1, 2))
        expected = _recount(cache)

        class Unwalkable(dict):
            def values(self):
                raise AssertionError("memory_bytes iterated the entries")

        cache._entries = Unwalkable(cache._entries)
        cache._scores = Unwalkable(cache._scores)
        assert cache.memory_bytes() == expected

    def test_service_stats_report_the_running_total(self, make_service):
        service = make_service(cache_capacity=3)
        for node in range(8):
            service.run_batch([PairQuery(node, node + 1),
                               TopKQuery(node, k=4), SourceQuery(node + 2)])
        assert service.stats()["cache_evictions"] > 0
        cache = service.cache
        assert service.stats()["cache_memory_bytes"] == _recount(cache)


class TestScoreEntries:
    def test_kinds_keep_separate_lru_orders(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=2)
        for node in (1, 2):
            cache.put(node, _distribution(service_graph, service_params, node))
        # Score entries never push a distribution out, however many arrive,
        # though they share its keys ...
        for node in range(5):
            cache.put_scores(node, _scores(node, 1))
        assert 1 in cache and 2 in cache and len(cache) == 2
        # ... and evict among themselves, least recently used first.
        assert cache.score_entries == 2 and cache.stats.evictions == 3
        assert list(cache._scores) == [3, 4]

    def test_lookups_count_once_overall_and_once_per_kind(self):
        cache = WalkDistributionCache(capacity=2)
        assert cache.get_scores(1) is None
        stored = cache.put_scores(1, _scores(1, 0))  # empty support hits too
        assert cache.get_scores(1) is stored
        assert cache.get(1) is None
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 2)
        assert (stats.score_hits, stats.score_misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(1 / 3)
        assert stats.score_hit_rate == pytest.approx(1 / 2)
        assert stats.to_dict()["score_hit_rate"] == stats.score_hit_rate

    def test_a_score_hit_keeps_the_sources_distribution_warm(
            self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=3)
        for node in (1, 2, 3):
            cache.put(node, _distribution(service_graph, service_params, node))
        cache.put_scores(1, _scores(1, 2))
        # Source 1 is asked only for its scores while new distributions
        # churn through: each score hit moves its distribution to the
        # most-recent end, so the churn evicts the others.
        for node in (4, 5, 6, 7):
            assert cache.get_scores(1) is not None
            cache.put(node, _distribution(service_graph, service_params, node))
        assert 1 in cache
        assert list(cache._entries) == [6, 1, 7]
        # The refresh is no lookup: only the four score hits were counted.
        assert (cache.stats.hits, cache.stats.misses) == (4, 0)
        assert cache.stats.score_hits == 4
        # A score hit with no resident distribution stores none.
        cache.put_scores(9, _scores(9, 1))
        assert cache.get_scores(9) is not None and 9 not in cache

    def test_put_scores_at_capacity_zero_returns_an_unstored_entry(self):
        cache = WalkDistributionCache(capacity=0)
        entry = cache.put_scores(1, _scores(1, 3))
        assert isinstance(entry, ScoreEntry) and entry.nbytes == 3 * 16
        assert cache.score_entries == 0 and cache.memory_bytes() == 0
        assert cache.stats.inserts == 0

    def test_refreshing_a_score_entry_replaces_its_bytes(self):
        cache = WalkDistributionCache(capacity=2)
        cache.put_scores(1, _scores(1, 4))
        cache.put_scores(2, _scores(2, 1))
        fresh = cache.put_scores(1, _scores(1, 2))
        assert cache.memory_bytes() == (2 + 1) * 16
        assert list(cache._scores) == [2, 1]
        assert cache._scores[1] is fresh and cache.stats.evictions == 0

    def test_score_kind_is_bounded_in_bytes_too(self):
        cache = WalkDistributionCache(capacity=4)
        budget = 4 * SCORE_SLOT_BYTES
        two_slots = 2 * SCORE_SLOT_BYTES // 16      # support nodes of 2 slots' bytes
        for node in range(3):
            cache.put_scores(node, _scores(node, two_slots))
        # Three records of two slots each overrun four slots' bytes: the
        # least recently used one leaves, though the entry count is below 4.
        assert list(cache._scores) == [1, 2]
        assert cache.memory_bytes() == budget and cache.stats.evictions == 1
        # A record larger than the whole budget still stays, alone: the
        # entry just stored is never the one evicted.
        cache.put_scores(9, _scores(9, budget // 16 + 1))
        assert list(cache._scores) == [9]
        assert cache.get_scores(9) is not None
        assert cache.memory_bytes() == _recount(cache)

    def test_rankings_are_memoised_per_k_and_served_fresh(self):
        record = SourceScores(2, 6, np.array([0, 2, 4]),
                              np.array([0.25, 1.0, 0.5]))
        entry = ScoreEntry(record)
        first = entry.top_k(2)
        assert first == record.top_k(2) == [(4, 0.5), (0, 0.25)]
        again = entry.top_k(2)
        assert again == first and again is not first
        first.clear()
        assert entry.top_k(2) == again
        assert entry.top_k(9) == record.top_k(9)
        assert sorted(entry._rankings) == [2, 9]

    def test_drop_scores_leaves_distributions_and_counts_apart(
        self, service_graph, service_params
    ):
        cache = WalkDistributionCache(capacity=4)
        cache.put(1, _distribution(service_graph, service_params, 1))
        cache.put_scores(1, _scores(1, 1))
        cache.put_scores(2, _scores(2, 1))
        assert cache.invalidate_sources([2]) == 0     # scores are not its business
        assert cache.score_entries == 2
        assert cache.drop_scores() == 2 and cache.drop_scores() == 0
        assert 1 in cache and cache.score_entries == 0
        assert cache.stats.score_dropped == 2
        assert cache.stats.invalidations == 0

    def test_drop_scores_hashes_no_key(self):
        """An update drops every score entry; that must not cost a hash per key."""
        hashes = []

        class CountedNode(int):
            def __hash__(self):
                hashes.append(1)
                return int.__hash__(self)

        cache = WalkDistributionCache(capacity=8)
        for node in range(5):
            cache.put_scores(CountedNode(node), _scores(node, 2))
        hashes.clear()
        assert cache.drop_scores() == 5
        assert hashes == [] and cache.memory_bytes() == 0

    def test_invalidation_pops_the_stale_nodes_without_a_scan(
            self, service_graph, service_params):
        """An update's invalidation looks up each stale node; it never
        walks the resident keys (counted here as hashes of resident
        entries' keys)."""
        hashes = []

        class CountedNode(int):
            def __hash__(self):
                hashes.append(int(self))
                return int.__hash__(self)

        cache = WalkDistributionCache(capacity=8)
        for node in range(6):
            cache.put(CountedNode(node),
                      _distribution(service_graph, service_params, node))
        hashes.clear()
        assert cache.invalidate_sources([1, 4, 4, 40]) == 2
        assert hashes == []
        assert sorted(cache._entries) == [0, 2, 3, 5]
        assert cache.stats.invalidations == 2
        assert cache.memory_bytes() == _recount(cache)


class TestEviction:
    def test_eviction_at_capacity_is_lru(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=2)
        for node in (1, 2):
            cache.put(node, _distribution(service_graph, service_params, node))
        cache.get(1)  # 2 becomes least recently used
        cache.put(3, _distribution(service_graph, service_params, 3))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert 2 not in cache
        assert 1 in cache and 3 in cache

    def test_reinsert_refreshes_instead_of_evicting(
        self, service_graph, service_params
    ):
        cache = WalkDistributionCache(capacity=2)
        entry = _distribution(service_graph, service_params, 1)
        cache.put(1, entry)
        cache.put(1, entry)
        assert len(cache) == 1 and cache.stats.evictions == 0

    def test_capacity_zero_disables_storage(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=0)
        cache.put(1, _distribution(service_graph, service_params, 1))
        assert len(cache) == 0
        assert cache.get(1) is None
        assert cache.stats.misses == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            WalkDistributionCache(capacity=-1)


class TestResultInvariance:
    def test_cache_hit_never_changes_answers(self, make_service):
        service = make_service(cache_capacity=64)
        queries = [PairQuery(3, 9), SourceQuery(3)]
        cold = service.run_batch(queries)
        warm = service.run_batch(queries)
        stats = service.stats()
        assert stats["cache_hits"] > 0
        assert stats["sources_simulated"] == 2  # second batch was all hits
        assert warm[0] == cold[0]
        assert np.array_equal(warm[1], cold[1])

    def test_cached_equals_uncached_service(self, make_service):
        cached = make_service(cache_capacity=64)
        uncached = make_service(cache_capacity=0)
        queries = [PairQuery(3, 9), SourceQuery(7)]
        first = cached.run_batch(queries)
        second = uncached.run_batch(queries)
        # Warm the cache, then ask again: still identical to the uncached path.
        third = cached.run_batch(queries)
        assert first[0] == second[0] == third[0]
        assert np.array_equal(first[1], second[1])
        assert np.array_equal(first[1], third[1])

    def test_eviction_churn_never_changes_answers(self, make_service):
        service = make_service(cache_capacity=1)
        baseline = {node: service.single_source(node) for node in (1, 2, 3)}
        # Round-robin through more sources than the cache can hold.
        for _ in range(3):
            for node in (1, 2, 3):
                assert np.array_equal(service.single_source(node), baseline[node])
        assert service.stats()["cache_evictions"] > 0
