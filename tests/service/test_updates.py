"""Live updates through the service: versions, invalidation, equivalence."""

import numpy as np
import pytest

from repro.config import (
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.core.index import SnapshotStore
from repro.core.walks import forward_reachable_set
from repro.errors import CloudWalkerError, ConfigurationError
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.service import (
    BatchAnswers,
    PairQuery,
    QueryService,
    SourceQuery,
    TopKQuery,
)


@pytest.fixture(scope="module")
def update_params_cheap() -> SimRankParams:
    return SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=3,
                         index_walkers=40, query_walkers=120, seed=17)


@pytest.fixture()
def update_graph():
    return generators.copying_model_graph(80, out_degree=4, copy_prob=0.6, seed=29)


@pytest.fixture()
def live_service(update_graph, update_params_cheap):
    """An update-ready service (linear system kept in memory)."""
    return QueryService.build(update_graph, update_params_cheap)


def _merged(graph: DiGraph, edges) -> DiGraph:
    return DiGraph(
        max(graph.n_nodes, max(max(u, v) for u, v in edges) + 1),
        np.vstack([graph.edge_array(),
                   np.asarray(edges, dtype=np.int64).reshape(-1, 2)]),
        name=graph.name,
    )


class TestUpdateSemantics:
    def test_add_edges_applies_and_bumps_version(self, live_service):
        assert live_service.index_version == 1
        result = live_service.add_edges([(0, 40)])
        assert result is not None
        assert live_service.index_version == 2
        assert 40 in result.affected
        assert result.edges_added == 1
        assert live_service.graph.has_edge(0, 40)

    def test_result_carries_the_walkers_phases(self, live_service):
        from repro.core.sharding import PHASES

        result = live_service.add_edges([(0, 40), (3, 50)])
        phases = [getattr(result, phase) for phase in PHASES]
        assert all(seconds > 0.0 for seconds in phases)
        # The phases partition the walker's clock, which is the result's.
        assert sum(phases) == pytest.approx(result.update_seconds)

    def test_affected_set_is_forward_ball_of_heads(self, live_service):
        edges = [(3, 50), (7, 61)]
        result = live_service.add_edges(edges)
        expected = forward_reachable_set(
            live_service.graph, {50, 61}, live_service.params.walk_steps
        )
        assert result.affected == frozenset(expected)

    def test_deferred_updates_drain_as_one_at_next_batch(self, live_service):
        live_service.add_edges([(2, 30)], defer=True)
        live_service.add_edges([(4, 31)], defer=True)
        assert live_service.pending_updates == 2
        assert live_service.index_version == 1  # nothing applied yet
        answers = live_service.run_batch([PairQuery(1, 5)])
        # Both deferred inserts merged into ONE applied update.
        assert live_service.pending_updates == 0
        assert answers.index_version == 2
        assert live_service.stats()["updates_applied"] == 1
        assert live_service.stats()["edges_added"] == 2

    def test_flush_updates_with_empty_queue_is_noop(self, live_service):
        assert live_service.flush_updates() is None
        assert live_service.index_version == 1

    @pytest.mark.parametrize("num_shards", [None, 2])
    def test_failed_drain_requeues_its_edges(self, update_graph,
                                             update_params_cheap, num_shards,
                                             monkeypatch):
        """A re-index that raises loses no queued edge: the queue is as it
        was, and the next drain applies those edges."""
        from repro.config import ShardingParams

        service = QueryService.build(
            update_graph, update_params_cheap,
            sharding=ShardingParams(num_shards=num_shards or 1))
        service.add_edges([(2, 30), (4, 31)], defer=True)

        def broken(_edges):
            raise RuntimeError("re-index failed")

        monkeypatch.setattr(service._walker, "add_edges", broken)
        with pytest.raises(RuntimeError, match="re-index failed"):
            service.flush_updates()
        assert service.pending_updates == 2
        assert service.index_version == 1
        monkeypatch.undo()
        result = service.flush_updates()
        assert result is not None and result.edges_added == 2
        assert service.pending_updates == 0 and service.index_version == 2
        assert service.graph.has_edge(2, 30) and service.graph.has_edge(4, 31)
        service.close()

    def test_new_node_becomes_queryable(self, live_service):
        old_n = live_service.graph.n_nodes
        result = live_service.add_edges([(0, old_n)])
        assert result.new_nodes == 1
        assert live_service.graph.n_nodes == old_n + 1
        scores = live_service.single_source(old_n)
        assert scores.shape == (old_n + 1,)

    def test_deferred_overflow_drains_eagerly(self, update_graph, update_params_cheap):
        service = QueryService.build(
            update_graph, update_params_cheap,
            update_params=UpdateParams(max_pending_edges=2),
        )
        service.add_edges([(0, 40), (3, 50)], defer=True)
        # A deferred batch that would overflow applies the queue first.
        service.add_edges([(7, 61)], defer=True)
        assert service.index_version == 2
        assert service.pending_updates == 1
        # A single deferred batch larger than the bound cannot queue, so it
        # is applied immediately (together with anything pending).
        result = service.add_edges([(2, 30), (4, 31), (5, 33)], defer=True)
        assert result is not None and result.edges_added == 4
        assert service.pending_updates == 0
        assert service.index_version == 3

    def test_bad_edges_rejected_at_submission_not_at_drain(self, live_service):
        live_service.add_edges([(2, 30)], defer=True)
        # Immediate path: validation fails before anything is mutated...
        with pytest.raises(CloudWalkerError):
            live_service.add_edges([(-1, 5)])
        # ...and the deferred path rejects at enqueue, so the queue can
        # never be poisoned by an edge that would wedge every later drain.
        with pytest.raises(CloudWalkerError):
            live_service.add_edges([(0, -7)], defer=True)
        assert live_service.pending_updates == 1
        assert live_service.index_version == 1
        live_service.flush_updates()
        assert live_service.graph.has_edge(2, 30)
        assert live_service.index_version == 2

    @pytest.mark.parametrize("defer", [False, True])
    def test_refused_edges_are_never_routed_or_queued(
            self, update_graph, update_params_cheap, defer):
        """Intake validation runs before routing: a refused edge names
        itself and leaves the routed counts, the queue and the version as
        they were."""
        from repro.config import ShardingParams

        with QueryService.build(
                update_graph, update_params_cheap,
                update_params=UpdateParams(max_node_growth=10),
                sharding=ShardingParams(num_shards=2)) as service:
            for bad, message in (((-1, 3), "negative endpoint"),
                                 ((0, 500), "would grow the graph"),
                                 ((3, -2), "negative endpoint")):
                pattern = rf"edge \({bad[0]}, {bad[1]}\) (has a|would)"
                with pytest.raises(CloudWalkerError, match=pattern) as info:
                    service.add_edges([bad], defer=defer)
                assert message in str(info.value)
            assert service.stats()["edges_added"] == 0
            assert service.pending_updates == 0
            assert service.index_version == 1

    def test_runaway_node_growth_rejected(self, update_graph, update_params_cheap):
        service = QueryService.build(
            update_graph, update_params_cheap,
            update_params=UpdateParams(max_node_growth=10),
        )
        with pytest.raises(CloudWalkerError):
            service.add_edges([(0, update_graph.n_nodes + 10)])
        with pytest.raises(CloudWalkerError):
            service.add_edges([(0, 999_999_999)], defer=True)
        assert service.index_version == 1
        # Growth inside the bound is allowed.
        result = service.add_edges([(0, update_graph.n_nodes + 9)])
        assert result.new_nodes == 10

    def test_existing_edge_is_a_noop(self, live_service):
        src = int(live_service.graph.edge_array()[0, 0])
        dst = int(live_service.graph.edge_array()[0, 1])
        warm = live_service.single_source(src)
        assert live_service.add_edges([(src, dst)]) is None
        assert live_service.index_version == 1
        assert live_service.stats()["updates_applied"] == 0
        assert live_service.stats()["cache_invalidations"] == 0
        assert np.array_equal(live_service.single_source(src), warm)
        # A mixed batch applies only the genuinely new edges.
        result = live_service.add_edges([(src, dst), (0, 40), (0, 40)])
        assert result is not None and result.edges_added == 1

    def test_batch_answers_behave_like_lists(self, live_service):
        answers = live_service.run_batch([PairQuery(3, 3)])
        assert isinstance(answers, BatchAnswers)
        assert answers == [1.0]
        assert answers.index_version == 1
        assert live_service.run_batch([]) == []

    def test_versions_strictly_increase_across_updates(self, live_service):
        seen = [live_service.index_version]
        for head in (20, 21, 22):
            live_service.add_edges([(0, head)])
            seen.append(live_service.index_version)
        assert seen == sorted(set(seen))
        assert seen[-1] == 4

    def test_updates_work_on_prebuilt_index_service(
        self, update_graph, update_params_cheap
    ):
        # A service around a pre-built index attaches a maintainer lazily.
        from repro.core.diagonal import build_diagonal_index

        index = build_diagonal_index(update_graph, update_params_cheap)
        service = QueryService(update_graph, index, update_params_cheap)
        result = service.add_edges([(1, 44)])
        assert result.affected_rows > 0
        assert service.index_version == 2
        assert 0.0 <= service.single_pair(1, 44) <= 1.0

    def test_invalid_update_params_rejected(self):
        with pytest.raises(ConfigurationError):
            UpdateParams(max_pending_edges=0)
        with pytest.raises(ConfigurationError):
            UpdateParams(snapshot_retain=0)
        with pytest.raises(ConfigurationError):
            UpdateParams(snapshot_every=-1)
        with pytest.raises(ConfigurationError):
            UpdateParams(snapshot_every=3)  # requires snapshot_dir


class TestTargetedInvalidation:
    def _warm_all(self, service):
        service.run_batch([SourceQuery(node) for node in service.graph.nodes()])

    def test_exactly_affected_entries_invalidated(self, live_service):
        self._warm_all(live_service)
        n_cached = live_service.stats()["cache_size"]
        assert n_cached == live_service.graph.n_nodes

        edges = [(5, 33)]
        result = live_service.add_edges(edges)
        stats = live_service.stats()
        assert stats["cache_invalidations"] == len(result.affected)
        assert stats["cache_size"] == n_cached - len(result.affected)

        for node in live_service.graph.nodes():
            if node in result.affected:
                assert node not in live_service.cache
            else:
                assert node in live_service.cache

    def test_unaffected_traffic_stays_cached_after_update(self, live_service):
        self._warm_all(live_service)
        result = live_service.add_edges([(5, 33)])
        unaffected = [node for node in live_service.graph.nodes()
                      if node not in result.affected]
        before = live_service.stats()["sources_simulated"]
        live_service.run_batch([SourceQuery(node) for node in unaffected])
        # Every unaffected source was served from cache: zero new simulations.
        assert live_service.stats()["sources_simulated"] == before

    def test_invalidation_at_another_walker_count(self, update_graph,
                                                  update_params_cheap):
        service = QueryService.build(
            update_graph, update_params_cheap.with_(query_walkers=64))
        service.single_source(10)
        assert {entry.walkers for entry in service.cache._entries.values()} == {64}
        # Node 10 is its own head -> certainly affected.
        result = service.add_edges([(3, 10)])
        assert 10 in result.affected
        assert service.stats()["cache_size"] == 0


class TestRebuildEquivalence:
    """Updated services must be indistinguishable from rebuilt ones."""

    def test_answers_bitwise_equal_to_fresh_rebuild(
        self, update_graph, update_params_cheap
    ):
        service = QueryService.build(update_graph, update_params_cheap)
        service.run_batch([SourceQuery(node) for node in range(0, 80, 7)])
        edges = [(2, 41), (9, 17), (0, 80)]  # includes a brand-new node
        service.add_edges(edges)

        rebuilt = QueryService.build(_merged(update_graph, edges), update_params_cheap)
        assert np.array_equal(service.index.diagonal, rebuilt.index.diagonal)
        for node in range(rebuilt.graph.n_nodes):
            assert np.array_equal(service.single_source(node),
                                  rebuilt.single_source(node))
        assert service.top_k(2, k=8) == rebuilt.top_k(2, k=8)
        assert service.single_pair(3, 9) == rebuilt.single_pair(3, 9)

    def test_cached_unaffected_distributions_match_fresh_simulation(
        self, update_graph, update_params_cheap
    ):
        # Warm BEFORE the update; unaffected entries survive it, and must
        # still be bitwise-equal to what the rebuilt service simulates
        # fresh on the updated graph.
        service = QueryService.build(update_graph, update_params_cheap)
        service.run_batch([SourceQuery(node) for node in update_graph.nodes()])
        result = service.add_edges([(6, 25)])

        rebuilt = QueryService.build(_merged(update_graph, [(6, 25)]),
                                     update_params_cheap)
        before = service.stats()["sources_simulated"]
        for node in update_graph.nodes():
            if node in result.affected:
                continue
            assert np.array_equal(service.single_source(node),
                                  rebuilt.single_source(node))
        assert service.stats()["sources_simulated"] == before

    def test_chained_updates_equal_single_rebuild(
        self, update_graph, update_params_cheap
    ):
        service = QueryService.build(update_graph, update_params_cheap)
        first, second = [(1, 30)], [(2, 31), (30, 2)]
        service.add_edges(first)
        service.add_edges(second)
        rebuilt = QueryService.build(_merged(update_graph, first + second),
                                     update_params_cheap)
        assert np.array_equal(service.index.diagonal, rebuilt.index.diagonal)


class TestServiceSnapshots:
    def test_save_and_restore_resumes_versions_and_answers(
        self, update_graph, update_params_cheap, tmp_path
    ):
        service = QueryService.build(
            update_graph, update_params_cheap,
            update_params=UpdateParams(snapshot_dir=str(tmp_path)),
        )
        service.add_edges([(4, 27)])
        version, path = service.save_snapshot()
        assert version == 2 and str(tmp_path) in path

        restarted = QueryService.from_snapshot(service.graph, tmp_path)
        assert restarted.index_version == 2
        assert restarted.single_pair(3, 9) == service.single_pair(3, 9)

    def test_restored_service_updates_incrementally(
        self, update_graph, update_params_cheap, tmp_path
    ):
        service = QueryService.build(update_graph, update_params_cheap)
        service.save_snapshot(tmp_path)
        restarted = QueryService.from_snapshot(update_graph, tmp_path)
        # The snapshot carried the system, so the maintainer is attached
        # and the next update re-estimates only affected rows.
        assert restarted._walker is not None
        result = restarted.add_edges([(3, 22)])
        assert result.affected_rows < update_graph.n_nodes
        assert restarted.index_version == 2

        rebuilt = QueryService.build(_merged(update_graph, [(3, 22)]),
                                     update_params_cheap)
        assert np.array_equal(restarted.index.diagonal, rebuilt.index.diagonal)

    def test_auto_snapshot_cadence(self, update_graph, update_params_cheap, tmp_path):
        service = QueryService.build(
            update_graph, update_params_cheap,
            update_params=UpdateParams(snapshot_every=2, snapshot_dir=str(tmp_path)),
        )
        for head in (50, 51, 52, 53):
            service.add_edges([(0, head)])
        store = SnapshotStore(tmp_path)
        # Updates 2 and 4 snapshotted, at service versions 3 and 5.
        assert store.versions() == [3, 5]
        assert service.stats()["snapshots_written"] == 2

    def test_save_same_version_twice_is_noop(
        self, update_graph, update_params_cheap, tmp_path
    ):
        service = QueryService.build(update_graph, update_params_cheap)
        service.save_snapshot(tmp_path)
        service.save_snapshot(tmp_path)
        assert service.stats()["snapshots_written"] == 1

    def test_directory_ahead_of_service_rejected(
        self, update_graph, update_params_cheap, tmp_path
    ):
        ahead = QueryService.build(update_graph, update_params_cheap)
        ahead.add_edges([(0, 50)])
        ahead.save_snapshot(tmp_path)  # version 2
        fresh = QueryService.build(update_graph, update_params_cheap)  # version 1
        with pytest.raises(CloudWalkerError):
            fresh.save_snapshot(tmp_path)

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_index_only_lineage_restores_and_continues(
        self, update_graph, update_params_cheap, tmp_path, num_shards
    ):
        service = QueryService.build(update_graph, update_params_cheap)
        # Index files and nothing else, at v2 (once refused as a
        # single-store lineage).
        service.index.save(tmp_path / "index-v00000001.npz")
        service.index.save(tmp_path / "index-v00000002.npz")
        # A service at v1 does not write behind it; a restore adopts v2,
        # estimates the system on its first update and continues at v3.
        with pytest.raises(CloudWalkerError, match="ahead of this service"):
            service.save_snapshot(tmp_path)
        restored = QueryService.from_snapshot(
            update_graph, tmp_path,
            sharding=ShardingParams(num_shards=num_shards))
        assert restored.index_version == 2
        restored.add_edges([(0, 50)])
        service.add_edges([(0, 50)])
        assert restored.run_batch([SourceQuery(3)])[0].tobytes() == \
            service.run_batch([SourceQuery(3)])[0].tobytes()
        assert restored.save_snapshot(tmp_path)[0] == 3
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "index-v00000001.npz", "index-v00000002.npz",
            "index-v00000003.npz", "system-v00000003.npz"]

    def test_save_without_directory_rejected(self, live_service):
        with pytest.raises(CloudWalkerError):
            live_service.save_snapshot()

    def test_from_snapshot_rejects_stale_graph(
        self, update_graph, update_params_cheap, tmp_path
    ):
        service = QueryService.build(update_graph, update_params_cheap)
        service.add_edges([(3, 22)])  # same node count, one more edge
        service.save_snapshot(tmp_path)
        # Restoring with the pre-update graph must fail loudly, not serve
        # answers for a graph the snapshot was not built for.
        with pytest.raises(CloudWalkerError):
            QueryService.from_snapshot(update_graph, tmp_path)

    def test_stats_expose_update_counters(self, live_service):
        live_service.add_edges([(0, 33)])
        stats = live_service.stats()
        assert stats["index_version"] == 2
        assert stats["updates_applied"] == 1
        assert stats["pending_updates"] == 0
        assert "cache_invalidations" in stats
