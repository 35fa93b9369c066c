"""Scatter-payload regression: task bytes stay O(sources), not O(graph).

The zero-copy serving path's load-bearing property is *what ships per
task*: with the graph resident on the serve pool, a batch's scatter
payload must be a function of the batch (source ids, parameters, handle)
and **independent of graph size** — otherwise residency has silently
regressed and every batch is paying an O(graph) serialisation tax again.

The instrumentation is the real one: :class:`~repro.engine.executor.
ProcessBackend` records every task's pickled size as a by-product of its
fail-fast picklability check.  The backend subclass below keeps that
accounting — and the real shared-memory residency export — but executes
tasks inline, so the regression test measures exactly the bytes a worker
pool would receive without paying fork costs per parametrisation.

Also here: the executor-lifecycle guarantee that
:meth:`ShardedQueryService.close` releases every shared-memory segment,
including after the serve pool broke mid-flight.
"""

from concurrent.futures import BrokenExecutor
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.config import ServiceParams, ShardingParams, SimRankParams
from repro.engine.executor import ProcessBackend
from repro.graph import generators
from repro.service import PairQuery, QueryService, ShardedQueryService, TopKQuery

NUM_SHARDS = 4


class InlineProcessBackend(ProcessBackend):
    """A :class:`ProcessBackend` that runs tasks inline.

    Keeps the real payload accounting (``last_payload_bytes`` /
    ``total_payload_bytes`` from the pickle check) and the real
    shared-memory residency export, but skips the worker pool — the
    pickled bytes are identical to what a pooled run would ship.
    """

    def run(self, tasks):
        self._record_payload(self._payload_check(tasks))
        return [task() for task in tasks]


def _die_hard():
    import os

    os._exit(13)


def _params():
    return SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=2,
                         index_walkers=20, query_walkers=60, seed=11)


def _service(graph, resident):
    service = ShardedQueryService(
        graph,
        _build_index(graph),
        _params(),
        ServiceParams(cache_capacity=0, resident_graph=resident),
        sharding=ShardingParams(num_shards=NUM_SHARDS),
    )
    service._serve_backend = InlineProcessBackend(max_workers=1)
    return service


def _build_index(graph):
    from repro.core.diagonal import build_diagonal_index

    return build_diagonal_index(graph, _params())


def _batch_scatter_bytes(service, queries):
    """Total pickled task bytes of one batch, via the real accounting."""
    before = service._serve_backend.total_payload_bytes
    service.run_batch(queries)
    return service._serve_backend.total_payload_bytes - before


def _pair_queries(count):
    return [PairQuery(2 * i, 2 * i + 1) for i in range(count)]


class TestScatterPayloadIndependentOfGraphSize:
    def test_resident_payload_does_not_grow_with_the_graph(self):
        small = generators.copying_model_graph(300, out_degree=5, seed=7)
        large = generators.copying_model_graph(3000, out_degree=5, seed=7)
        queries = _pair_queries(16)
        with _service(small, resident=True) as service:
            small_bytes = _batch_scatter_bytes(service, queries)
        with _service(large, resident=True) as service:
            large_bytes = _batch_scatter_bytes(service, queries)
        # A 10x larger graph must not move the scatter payload: allow only
        # incidental slack (token strings, pickling framing).
        assert large_bytes <= small_bytes * 1.25, (
            f"resident scatter payload grew with the graph: "
            f"{small_bytes}B at n=300 vs {large_bytes}B at n=3000"
        )
        assert large_bytes < 64 * 1024

    def test_nonresident_payload_does_grow_with_the_graph(self):
        """Sanity check on the instrument: without residency the graph
        rides inside every task, so the same measurement must see growth —
        otherwise the regression test above is vacuous."""
        small = generators.copying_model_graph(300, out_degree=5, seed=7)
        large = generators.copying_model_graph(3000, out_degree=5, seed=7)
        queries = _pair_queries(16)
        with _service(small, resident=False) as service:
            small_bytes = _batch_scatter_bytes(service, queries)
        with _service(large, resident=False) as service:
            large_bytes = _batch_scatter_bytes(service, queries)
        assert large_bytes > small_bytes * 4
        with _service(large, resident=True) as service:
            resident_bytes = _batch_scatter_bytes(service, queries)
        assert large_bytes > resident_bytes * 5, (
            "residency should cut per-batch scatter bytes by >= 5x here"
        )

    def test_resident_payload_scales_with_sources_only(self):
        graph = generators.copying_model_graph(2000, out_degree=5, seed=7)
        with _service(graph, resident=True) as service:
            few_bytes = _batch_scatter_bytes(service, _pair_queries(8))
            many_bytes = _batch_scatter_bytes(service, _pair_queries(64))
        # 8x the sources: payload grows (it carries the source ids) but
        # stays within the O(sources) envelope.
        assert few_bytes < many_bytes <= few_bytes * 8 + 8192

    def test_resident_answers_identical_to_single_shard(self):
        graph = generators.copying_model_graph(400, out_degree=5, seed=7)
        queries = _pair_queries(10) + [TopKQuery(3, k=5)]
        reference = QueryService(graph, _build_index(graph),
                                 _params()).run_batch(queries)
        with _service(graph, resident=True) as service:
            answers = service.run_batch(queries)
        for left, right in zip(reference, answers):
            if isinstance(left, (float, list)):
                assert left == right
            else:
                assert np.array_equal(left, right)


def _answers_equal(left, right):
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if isinstance(a, (float, list)):
            if a != b:
                return False
        elif not np.array_equal(a, b):
            return False
    return True


def _build_service(graph, resident, num_shards=NUM_SHARDS):
    """A ``.build`` service (owns update state) on an inline process pool."""
    service = ShardedQueryService.build(
        graph, _params(),
        service_params=ServiceParams(cache_capacity=0,
                                     resident_graph=resident),
        sharding=ShardingParams(num_shards=num_shards,
                                resident_graph=resident),
    )
    service._serve_backend = InlineProcessBackend(max_workers=1)
    return service


def _mixed_queries(count, topk=4):
    return _pair_queries(count) + [TopKQuery(i, k=6) for i in range(topk)]


class TestResidentSystemLifecycle:
    """Epoch lockstep of the resident system/owned-node views (satellite).

    The payload-free ranking path is only safe if every lineage event —
    an applied ``add_edges``, a rebalance plan flip, a snapshot restore —
    re-registers the system view and the owned-node arrays under a fresh
    epoch.  These tests pin the token bumps through the *real* service
    entry points, with the real shared-memory export (inline execution).
    """

    def test_add_edges_bumps_system_epoch(self):
        graph = generators.copying_model_graph(300, out_degree=5, seed=7)
        with _build_service(graph, resident=True) as service:
            before = service.run_batch(_mixed_queries(8))
            first = service._serve_backend.resident_handle("system")
            assert first is not None and first.kind == "shm"
            service.add_edges([(0, 150), (3, 290)])
            after = service.run_batch(_mixed_queries(8))
            second = service._serve_backend.resident_handle("system")
            assert second.token != first.token, (
                "an adopted update must re-register the system view"
            )
            assert len(before) == len(after)

    def test_rebalance_flip_bumps_system_and_nodes_epochs(self):
        from repro.graph.partition import ShardPlan

        graph = generators.copying_model_graph(300, out_degree=5, seed=7)
        with _build_service(graph, resident=True) as service:
            service.run_batch(_mixed_queries(8))
            system_before = service._serve_backend.resident_handle("system")
            nodes_before = service._serve_backend.resident_handle("shard_nodes")
            assert system_before is not None and nodes_before is not None
            outcome = service.rebalance(
                plan=ShardPlan.contiguous(NUM_SHARDS, graph.n_nodes),
                force=True,
            )
            assert outcome["applied"]
            service.run_batch(_mixed_queries(8))
            system_after = service._serve_backend.resident_handle("system")
            nodes_after = service._serve_backend.resident_handle("shard_nodes")
            assert system_after.token != system_before.token
            assert nodes_after.token != nodes_before.token, (
                "a plan flip must re-register the owned-node arrays"
            )

    def test_snapshot_restore_serves_from_fresh_registration(self, tmp_path):
        graph = generators.copying_model_graph(300, out_degree=5, seed=7)
        queries = _mixed_queries(8)
        with _build_service(graph, resident=True) as service:
            reference = service.run_batch(queries)
            service.save_snapshot(tmp_path)
        restored = ShardedQueryService.from_snapshot(
            graph, tmp_path,
            service_params=ServiceParams(cache_capacity=0,
                                         resident_graph=True),
        )
        restored._serve_backend = InlineProcessBackend(max_workers=1)
        with restored:
            answers = restored.run_batch(queries)
            handle = restored._serve_backend.resident_handle("system")
            assert handle is not None and handle.kind == "shm", (
                "a restored lineage must register a fresh system view"
            )
        assert _answers_equal(reference, answers)

    def test_payload_free_identity_across_updates_and_migration(self):
        """Bitwise identity vs ship-per-task, before/after live updates
        and across a forced rebalance migration (acceptance gate)."""
        from repro.graph.partition import ShardPlan

        graph = generators.copying_model_graph(300, out_degree=5, seed=7)
        queries = _mixed_queries(10)
        edges = [(0, 150), (3, 290), (290, 7)]
        plan = ShardPlan.contiguous(NUM_SHARDS, graph.n_nodes)

        single = QueryService.build(graph, _params(),
                                    service_params=ServiceParams(
                                        cache_capacity=0))
        before_reference = single.run_batch(queries)
        single.add_edges(edges)
        after_reference = single.run_batch(queries)

        for resident in (True, False):
            with _build_service(graph, resident=resident) as service:
                assert _answers_equal(before_reference,
                                      service.run_batch(queries))
                service.add_edges(edges)
                assert _answers_equal(after_reference,
                                      service.run_batch(queries))
                assert service.rebalance(plan=plan, force=True)["applied"]
                assert _answers_equal(after_reference,
                                      service.run_batch(queries)), (
                    f"resident={resident} diverged after a plan migration"
                )

    def test_system_payload_independent_of_system_size(self):
        """Per-batch scatter bytes stay O(sources) when the service owns a
        full maintained system (not just a pre-built index)."""
        queries = _mixed_queries(8)
        small = generators.copying_model_graph(300, out_degree=5, seed=7)
        large = generators.copying_model_graph(3000, out_degree=5, seed=7)
        with _build_service(small, resident=True) as service:
            small_bytes = _batch_scatter_bytes(service, queries)
        with _build_service(large, resident=True) as service:
            large_bytes = _batch_scatter_bytes(service, queries)
        assert large_bytes <= small_bytes * 1.25, (
            f"scatter payload grew with the maintained system: "
            f"{small_bytes}B at n=300 vs {large_bytes}B at n=3000"
        )

    def test_topk_payload_carries_no_score_slices(self):
        """The satellite accounting fix made ranking payloads visible:
        with residency on, a top-k heavy batch must not ship per-shard
        score slices (O(n/K) floats each) — only handles + scalars."""
        graph = generators.copying_model_graph(2000, out_degree=5, seed=7)
        topk_queries = [TopKQuery(i, k=8) for i in range(6)]
        with _service(graph, resident=True) as service:
            resident_bytes = _batch_scatter_bytes(service, topk_queries)
            assert service.last_batch_payload_bytes == resident_bytes
            assert service.stats()["scatter_payload_bytes"] >= resident_bytes
        with _service(graph, resident=False) as service:
            shipped_bytes = _batch_scatter_bytes(service, topk_queries)
        # Score slices alone are ~ 8 bytes x n/K x shards x queries; the
        # payload-free path ships none of them.
        assert resident_bytes * 4 < shipped_bytes
        assert resident_bytes < 96 * 1024


class TestWorkerScoreCache:
    """The per-worker score LRU behind the payload-free batch ranking."""

    def test_entries_own_their_memory_and_small_lru_still_answers(
            self, monkeypatch):
        import repro.service.sharded as sharded_module

        graph = generators.copying_model_graph(300, out_degree=5, seed=7)
        queries = [TopKQuery(i, k=4) for i in range(6)] + [TopKQuery(2, k=7)]
        reference = QueryService(graph, _build_index(graph),
                                 _params()).run_batch(queries)
        # Fewer LRU slots than the batch has sources: a task must still
        # rank every request from the vectors it just built.
        monkeypatch.setattr(sharded_module, "_WORKER_SCORE_CAPACITY", 2)
        sharded_module._WORKER_SCORES.clear()
        with _service(graph, resident=True) as service:
            assert _answers_equal(reference, service.run_batch(queries))
        cached = list(sharded_module._WORKER_SCORES.values())
        assert len(cached) == 2
        # A view would pin its whole n x B block for the LRU's lifetime.
        assert all(vector.base is None for vector in cached)


class TestCloseReleasesSharedMemory:
    def _segment_exists(self, name):
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return False
        segment.close()
        return True

    def test_close_unlinks_serve_pool_segments(self):
        graph = generators.copying_model_graph(300, out_degree=5, seed=3)
        service = ShardedQueryService(
            graph, _build_index(graph), _params(),
            ServiceParams(cache_capacity=0, serve_backend="processes",
                          serve_workers=1),
            sharding=ShardingParams(num_shards=2),
        )
        service.run_batch(_pair_queries(4))
        handle = service._serve_backend.resident_handle("graph")
        assert handle is not None and self._segment_exists(handle.shm_name)
        service.close()
        assert not self._segment_exists(handle.shm_name)
        service.close()  # idempotent

    def test_close_unlinks_system_and_nodes_segments(self):
        """The full working set — graph, system view, owned-node arrays —
        is released on close, including after the pool broke."""
        graph = generators.copying_model_graph(300, out_degree=5, seed=3)
        service = ShardedQueryService(
            graph, _build_index(graph), _params(),
            ServiceParams(cache_capacity=0, serve_backend="processes",
                          serve_workers=1),
            sharding=ShardingParams(num_shards=2),
        )
        service.run_batch(_pair_queries(4) + [TopKQuery(1, k=5)])
        handles = {key: service._serve_backend.resident_handle(key)
                   for key in ("graph", "system", "shard_nodes")}
        for key, handle in handles.items():
            assert handle is not None, f"{key} must be resident after a batch"
            assert self._segment_exists(handle.shm_name)
        with pytest.raises(BrokenExecutor):
            service._serve_backend.run([_die_hard])
        for key, handle in handles.items():
            assert not self._segment_exists(handle.shm_name), (
                f"broken-pool recovery leaked the {key} segment"
            )
        service.close()  # must stay a no-op for already-released segments

    def test_close_releases_segments_after_pool_breaks(self):
        """The satellite guarantee: a broken pool cannot leak segments.

        Both release points are exercised: the broken-run recovery path
        frees the registration immediately, and the service-level
        ``close`` afterwards must succeed (and stay a no-op for the
        already-unlinked segment) instead of raising.
        """
        graph = generators.copying_model_graph(300, out_degree=5, seed=3)
        service = ShardedQueryService(
            graph, _build_index(graph), _params(),
            ServiceParams(cache_capacity=0, serve_backend="processes",
                          serve_workers=1),
            sharding=ShardingParams(num_shards=2),
        )
        service.run_batch(_pair_queries(4))
        handle = service._serve_backend.resident_handle("graph")
        assert handle is not None
        with pytest.raises(BrokenExecutor):
            service._serve_backend.run([_die_hard])
        assert not self._segment_exists(handle.shm_name), (
            "broken-pool recovery must release resident segments"
        )
        service.close()
        # The service stays usable: pool re-forks, residency re-registers.
        answers = service.run_batch(_pair_queries(4))
        fresh = service._serve_backend.resident_handle("graph")
        assert fresh is not None and fresh.token != handle.token
        assert len(answers) == 4
        service.close()
        assert not self._segment_exists(fresh.shm_name)
