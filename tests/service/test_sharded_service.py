"""Tests for the scatter-gather :class:`QueryService`.

The headline contract — answers at any ``K`` are bitwise-identical to the
single-shard service for every query type, before and after live updates —
is pinned both here (example-based, several ``K``) and in the property
suite (``tests/test_properties.py``, random graphs, K in {1, 2, 5}).
"""

import numpy as np
import pytest

import repro.service.sharded as sharded_module
from repro.config import ShardingParams, UpdateParams
from repro.core.index import SnapshotStore
from repro.core.queries import merge_top_k, rank_top_k
from repro.errors import CloudWalkerError
from repro.graph import generators
from repro.service import (
    PairQuery,
    QueryService,
    SourceQuery,
    TopKQuery,
    plan_batch,
)

QUERIES = [
    PairQuery(3, 7), PairQuery(7, 3), PairQuery(9, 9), SourceQuery(12),
    TopKQuery(3, k=6), TopKQuery(50, k=10_000), SourceQuery(3),
]


def assert_answers_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        if isinstance(a, float):
            assert a == b
        elif isinstance(a, list):
            assert a == b
        else:
            assert np.array_equal(a, b)


class TestAnswerEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5, 8])
    def test_bitwise_identical_to_single_shard(self, make_service, make_sharded,
                                               num_shards):
        single = make_service()
        sharded = make_sharded(num_shards=num_shards)
        reference = single.run_batch(QUERIES)
        answers = sharded.run_batch(QUERIES)
        assert_answers_equal(reference, answers)
        assert answers.index_version == reference.index_version

    def test_cached_second_batch_identical(self, make_service, make_sharded):
        single = make_service()
        sharded = make_sharded()
        single.run_batch(QUERIES)
        sharded.run_batch(QUERIES)
        # Second pass is served from the per-shard caches.
        assert_answers_equal(single.run_batch(QUERIES), sharded.run_batch(QUERIES))
        assert sharded.stats()["cache_hits"] > 0

    def test_single_query_conveniences(self, make_service, make_sharded):
        single = make_service()
        sharded = make_sharded()
        assert sharded.single_pair(3, 7) == single.single_pair(3, 7)
        assert np.array_equal(sharded.single_source(5), single.single_source(5))
        assert sharded.top_k(5, k=4) == single.top_k(5, k=4)


class TestScatterGatherTopK:
    def test_sparse_ranking_equals_dense_ranking(self, make_sharded):
        sharded = make_sharded(num_shards=4)
        distributions = sharded._resolve_distributions(
            plan_batch([SourceQuery(5)]))
        scores = sharded.query_engine.propagate_source(5, distributions[5])
        for k in (1, 7, sharded.graph.n_nodes + 2):
            expected = rank_top_k(scores.dense(), 5, k)
            assert scores.top_k(k) == expected
            assert sharded.top_k(5, k=k) == expected

    def test_ties_merge_canonically(self):
        # Equal scores must break ties by node id no matter how candidates
        # are split into the ranked lists being merged.
        scores = np.array([0.5, 0.25, 0.25, 0.25, 0.1])
        whole = rank_top_k(scores, 0, 3, include_self=True)
        assert whole == [(0, 0.5), (1, 0.25), (2, 0.25)]
        partials = [[(2, 0.25), (4, 0.1)], [(0, 0.5), (1, 0.25), (3, 0.25)]]
        assert merge_top_k(partials, 3) == whole

    def test_k_larger_than_graph(self, make_service, make_sharded):
        single = make_service()
        sharded = make_sharded(num_shards=5)
        assert sharded.top_k(2, k=10_000) == single.top_k(2, k=10_000)

    def test_source_without_in_links_pads_zero_scores(self, make_service,
                                                      make_sharded):
        # Its score vector is exactly e_source: every ranked node is a
        # zero-score pad, lowest ids first, never the source.
        sharded = make_sharded(num_shards=3)
        graph = sharded.graph
        sources = np.flatnonzero(graph.in_degrees() == 0)
        assert len(sources)
        source = int(sources[0])
        ranked = sharded.top_k(source, k=4)
        expected = [node for node in range(graph.n_nodes) if node != source][:4]
        assert ranked == [(node, 0.0) for node in expected]
        assert ranked == make_service().top_k(source, k=4)


class TestShardRouting:
    def test_misses_are_simulated_and_cached_once(self, make_sharded):
        sharded = make_sharded(num_shards=3)
        sources = (4, 9, 17, 13)       # 17 and 13 can meet: walked
        sharded.run_batch([SourceQuery(4), SourceQuery(9), PairQuery(17, 13)])
        assert set(sharded.cache._entries) == set(sources)
        assert sharded.stats()["sources_simulated"] == len(sources)

    def test_per_shard_capacity(self, make_sharded):
        sharded = make_sharded(num_shards=2, cache_capacity=1)
        sharded.run_batch([SourceQuery(node) for node in range(10)])
        stats = sharded.stats()
        assert stats["cache_capacity"] == 2
        assert stats["cache_size"] <= 2

    def test_stats_shape(self, make_sharded):
        sharded = make_sharded(num_shards=3)
        sharded.run_batch(QUERIES)
        stats = sharded.stats()
        assert stats["num_shards"] == 3
        # No shard assignment is kept, so there is nothing per shard.
        assert "shards" not in stats and "shard_strategy" not in stats


class TestLiveUpdates:
    EDIT = [(0, 60), (2, 121), (121, 1)]

    def _services(self, service_graph, params, num_shards=3):
        single = QueryService.build(service_graph, params)
        sharded = QueryService.build(
            service_graph, params,
            sharding=ShardingParams(num_shards=num_shards),
        )
        return single, sharded

    def test_update_answers_identical(self, service_graph, service_params):
        single, sharded = self._services(service_graph, service_params)
        single.add_edges(self.EDIT)
        sharded.add_edges(self.EDIT)
        assert_answers_equal(single.run_batch(QUERIES), sharded.run_batch(QUERIES))
        assert sharded.index_version == single.index_version == 2

    def test_deferred_updates_drain_identically(self, service_graph, service_params):
        single, sharded = self._services(service_graph, service_params)
        single.add_edges(self.EDIT, defer=True)
        sharded.add_edges(self.EDIT, defer=True)
        assert sharded.pending_updates == len(self.EDIT)
        reference = single.run_batch(QUERIES)
        answers = sharded.run_batch(QUERIES)
        assert_answers_equal(reference, answers)
        assert answers.index_version == 2
        assert sharded.pending_updates == 0

    def test_an_update_invalidates_only_its_ball(self, service_params):
        # Disjoint communities: an edit inside community 0 drops only
        # cached sources of community 0.
        graph = generators.community_graph(4, 16, p_in=0.35, p_out=0.0, seed=3)
        sharded = QueryService.build(
            graph, service_params, sharding=ShardingParams(num_shards=4),
        )
        sharded.run_batch([SourceQuery(node) for node in range(0, 64, 4)])
        cached_before = set(sharded.cache._entries)
        result = sharded.add_edges([(0, 5)])
        assert result is not None
        assert result.affected <= set(range(16))
        dropped = cached_before - set(sharded.cache._entries)
        assert dropped and dropped == cached_before & result.affected

    @pytest.mark.parametrize("num_shards", [1, 3, 5])
    def test_version_bumps_once_per_applied_update(self, service_graph,
                                                   service_params, num_shards):
        # One version per applied update at any K: the rows an update
        # estimates, however they are split, never mint versions.
        single, sharded = self._services(service_graph, service_params,
                                         num_shards)
        present = tuple(map(int, service_graph.edge_array()[0]))
        for edges, expected in ((self.EDIT[:1], 2), ([present], 2),
                                (self.EDIT[1:], 3)):
            single.add_edges(edges)
            sharded.add_edges(edges)
            assert sharded.index_version == single.index_version == expected
        assert_answers_equal(single.run_batch(QUERIES),
                             sharded.run_batch(QUERIES))

    def test_duplicate_edges_are_noops(self, service_graph, service_params):
        _single, sharded = self._services(service_graph, service_params, 2)
        edge = next(iter(map(tuple, service_graph.edge_array()[:1])))
        assert sharded.add_edges([edge]) is None
        assert sharded.index_version == 1

    @staticmethod
    def _added(service):
        return service.stats()["edges_added"]

    def test_edges_added_counter(self, service_graph, service_params):
        _single, sharded = self._services(service_graph, service_params, 2)
        sharded.add_edges(self.EDIT)
        assert self._added(sharded) == len(self.EDIT)

    def test_an_all_present_batch_adds_no_edge(self, service_graph,
                                               service_params):
        _single, sharded = self._services(service_graph, service_params, 3)
        present = [tuple(map(int, edge))
                   for edge in service_graph.edge_array()[:3]]
        assert sharded.add_edges(present) is None
        assert self._added(sharded) == 0

    def test_duplicates_and_present_edges_are_not_counted(
            self, service_graph, service_params):
        _single, sharded = self._services(service_graph, service_params, 3)
        present = tuple(map(int, service_graph.edge_array()[0]))
        new = [edge for edge in ((100, head) for head in range(3, 60))
               if not service_graph.has_edge(*edge)][:2]
        result = sharded.add_edges([new[0], present, new[0], new[1]])
        assert result.edges_added == 2
        assert self._added(sharded) == 2

    def test_a_deferred_edge_is_counted_when_drained(self, service_graph,
                                                     service_params):
        _single, sharded = self._services(service_graph, service_params, 3)
        edge = (100, 3)
        assert not service_graph.has_edge(*edge)
        sharded.add_edges([edge], defer=True)
        assert self._added(sharded) == 0
        sharded.flush_updates()
        assert self._added(sharded) == 1


class TestShardedPersistence:
    def test_snapshot_round_trip_resumes_incrementally(self, service_graph,
                                                       service_params, tmp_path):
        sharded = QueryService.build(
            service_graph, service_params,
            sharding=ShardingParams(num_shards=3),
        )
        sharded.add_edges([(0, 60)])
        version, path = sharded.save_snapshot(tmp_path / "snaps")
        assert version == 2
        restored = QueryService.from_snapshot(
            sharded.graph, tmp_path / "snaps",
            sharding=ShardingParams(num_shards=3),
        )
        assert restored.index_version == 2
        assert restored.num_shards == 3
        # The restored system lets the next update run incrementally.
        assert restored._walker is not None
        assert_answers_equal(sharded.run_batch(QUERIES), restored.run_batch(QUERIES))
        result = restored.add_edges([(1, 40)])
        assert result is not None and restored.index_version == 3

    def test_save_same_version_twice_is_noop(self, service_graph, service_params,
                                             tmp_path):
        sharded = QueryService.build(
            service_graph, service_params, sharding=ShardingParams(num_shards=2),
        )
        sharded.save_snapshot(tmp_path / "snaps")
        written = sharded.stats()["snapshots_written"]
        sharded.save_snapshot(tmp_path / "snaps")
        assert sharded.stats()["snapshots_written"] == written

    def test_snapshot_requires_directory(self, make_sharded):
        with pytest.raises(CloudWalkerError):
            make_sharded().save_snapshot()

    def test_auto_snapshot_cadence(self, service_graph, service_params, tmp_path):
        sharded = QueryService.build(
            service_graph, service_params,
            update_params=UpdateParams(snapshot_every=1,
                                       snapshot_dir=str(tmp_path / "snaps")),
            sharding=ShardingParams(num_shards=2),
        )
        sharded.add_edges([(0, 60)])
        store = SnapshotStore(tmp_path / "snaps")
        assert store.latest_version() == 2

    def test_from_index_file_cold_start(self, service_graph, service_index,
                                        service_params, tmp_path, make_service):
        path = tmp_path / "index.npz"
        service_index.save(path)
        sharded = QueryService.from_index_file(
            service_graph, path, params=service_params,
            sharding=ShardingParams(num_shards=3),
        )
        single = make_service()
        assert_answers_equal(single.run_batch(QUERIES), sharded.run_batch(QUERIES))
        # First update attaches (estimates the system shard-by-shard).
        result = sharded.add_edges([(0, 60)])
        assert result is not None and sharded.index_version == 2


class TestLifecycle:
    @pytest.fixture()
    def every_batch_crosses(self, monkeypatch):
        """A one-walker-step grain: a toy batch's misses cross to the pool
        instead of being walked inline, so the pool is started."""
        monkeypatch.setattr(sharded_module, "SCATTER_GRAIN", 1)

    @pytest.mark.usefixtures("every_batch_crosses")
    def test_close_releases_serve_pool_and_service_revives(self, make_service,
                                                           make_sharded):
        sharded = make_sharded(serve_backend="processes", serve_workers=2)
        single = make_service()
        assert_answers_equal(single.run_batch(QUERIES), sharded.run_batch(QUERIES))
        assert sharded._serve_backend._pool is not None
        sharded.close()
        assert sharded._serve_backend._pool is None
        sharded.close()  # idempotent
        # A closed service still serves (the pool revives transparently).
        assert_answers_equal(single.run_batch(QUERIES), sharded.run_batch(QUERIES))
        sharded.close()

    @pytest.mark.usefixtures("every_batch_crosses")
    def test_context_manager_closes_pool(self, make_sharded):
        with make_sharded(serve_backend="processes", serve_workers=2) as sharded:
            sharded.run_batch(QUERIES)
            assert sharded._serve_backend._pool is not None
        assert sharded._serve_backend._pool is None

    def test_close_shuts_down_walker_backend(self, service_graph, service_params):
        sharded = QueryService.build(
            service_graph, service_params,
            sharding=ShardingParams(num_shards=2, backend="processes",
                                    max_workers=2),
        )
        walker_backend = sharded._walker.backend
        assert walker_backend._pool is not None  # the build fanned out
        sharded.close()
        assert walker_backend._pool is None

    def test_single_shard_close_is_noop_context_manager(self, make_service):
        with make_service() as single:
            single.run_batch(QUERIES)
        single.close()
        assert single.run_batch(QUERIES)  # still serving

    def test_stats_report_serve_backend(self, make_sharded):
        with make_sharded(serve_backend="processes", serve_workers=3) as sharded:
            stats = sharded.stats()
            assert stats["serve_backend"] == "processes"
            assert stats["serve_workers"] == 3

class TestConstruction:
    def test_repr_mentions_shards(self, make_sharded):
        assert "shards=3" in repr(make_sharded())
