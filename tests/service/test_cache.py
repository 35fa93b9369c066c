"""Cache correctness: accounting, LRU eviction, and result invariance."""

import numpy as np
import pytest

from repro.core import montecarlo
from repro.errors import ConfigurationError
from repro.service import CacheKey, PairQuery, SourceQuery, WalkDistributionCache


def _key(node: int) -> CacheKey:
    return CacheKey(node=node, steps=5, walkers=300, seed=13)


def _distribution(service_graph, service_params, node: int):
    return montecarlo.estimate_walk_distributions(
        service_graph, node, service_params
    )


class TestAccounting:
    def test_miss_then_hit(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=4)
        assert cache.get(_key(1)) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        entry = _distribution(service_graph, service_params, 1)
        cache.put(_key(1), entry)
        assert cache.get(_key(1)) is entry
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.inserts == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_distinct_keys_do_not_collide(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=4)
        entry = _distribution(service_graph, service_params, 1)
        cache.put(_key(1), entry)
        assert cache.get(CacheKey(node=1, steps=5, walkers=999, seed=13)) is None
        assert cache.get(CacheKey(node=1, steps=5, walkers=300, seed=99)) is None
        assert cache.get(_key(1)) is entry

    def test_contains_does_not_touch_stats_or_recency(
        self, service_graph, service_params
    ):
        cache = WalkDistributionCache(capacity=2)
        cache.put(_key(1), _distribution(service_graph, service_params, 1))
        cache.put(_key(2), _distribution(service_graph, service_params, 2))
        assert _key(1) in cache and _key(3) not in cache
        assert cache.stats.lookups == 0
        # Key 1 is still least-recently-used despite the membership test.
        cache.put(_key(3), _distribution(service_graph, service_params, 3))
        assert _key(1) not in cache

    def test_memory_accounting(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=4)
        assert cache.memory_bytes() == 0
        cache.put(_key(1), _distribution(service_graph, service_params, 1))
        assert cache.memory_bytes() > 0

    def test_served_entries_share_no_buffer(self, make_service):
        """Entries simulated in one batch each own their arrays, so evicting
        one frees it and ``memory_bytes`` is what is actually resident."""
        service = make_service(cache_capacity=16)
        service.run_batch([SourceQuery(node) for node in (1, 2, 3, 4, 5)])
        entries = list(service.cache._entries.values())
        assert len(entries) == 5
        owners = {}
        for position, entry in enumerate(entries):
            for nodes, values in entry.per_step:
                for array in (nodes, values):
                    base = array if array.base is None else array.base
                    assert base.flags.owndata
                    owners.setdefault(id(base), (position, base.nbytes))
                    assert owners[id(base)][0] == position
        assert service.cache.memory_bytes() == sum(
            nbytes for _position, nbytes in owners.values())

    def test_clear_keeps_stats(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=4)
        cache.put(_key(1), _distribution(service_graph, service_params, 1))
        cache.get(_key(1))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1 and cache.stats.inserts == 1


class TestEviction:
    def test_eviction_at_capacity_is_lru(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=2)
        for node in (1, 2):
            cache.put(_key(node), _distribution(service_graph, service_params, node))
        cache.get(_key(1))  # 2 becomes least recently used
        cache.put(_key(3), _distribution(service_graph, service_params, 3))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert _key(2) not in cache
        assert _key(1) in cache and _key(3) in cache

    def test_reinsert_refreshes_instead_of_evicting(
        self, service_graph, service_params
    ):
        cache = WalkDistributionCache(capacity=2)
        entry = _distribution(service_graph, service_params, 1)
        cache.put(_key(1), entry)
        cache.put(_key(1), entry)
        assert len(cache) == 1 and cache.stats.evictions == 0

    def test_capacity_zero_disables_storage(self, service_graph, service_params):
        cache = WalkDistributionCache(capacity=0)
        cache.put(_key(1), _distribution(service_graph, service_params, 1))
        assert len(cache) == 0
        assert cache.get(_key(1)) is None
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
