"""Scatter-payload regression: task bytes stay O(sources), not O(graph).

The serving path's load-bearing property is *what ships per task*: the
graph is resident on the serve pool, so a batch's scatter payload must be
a function of the batch's cache misses (source ids, parameters, handle)
and **independent of graph size** — and scoring and ranking, which run in
the serving process, must ship nothing at all.

The instrumentation is the real one: :class:`~repro.engine.executor.
ProcessBackend` records every task's pickled size as a by-product of its
fail-fast picklability check.  The backend subclass below keeps that
accounting — and the real shared-memory residency export — but executes
tasks inline, so the regression test measures exactly the bytes a worker
pool would receive without paying fork costs per parametrisation.

Also here: the executor-lifecycle guarantee that
:meth:`QueryService.close` releases every shared-memory segment,
including after the serve pool broke mid-flight.

Every test measures what a batch ships once it reaches the pool.  Toy
batches carry far fewer walker-steps than
:data:`repro.service.sharded.SCATTER_GRAIN`, and one run is walked inline,
so the module lowers the grain to one walker-step and gives each pool two
workers: then every batch of two or more misses crosses.
"""

import glob
from concurrent.futures import BrokenExecutor
from functools import partial
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.config import ServiceParams, ShardingParams, SimRankParams
from repro.core import montecarlo
from repro.engine.executor import ProcessBackend
from repro.graph import generators
from repro.service import (
    PairQuery,
    QueryService,
    SourceQuery,
    TopKQuery,
)

NUM_SHARDS = 4


@pytest.fixture(autouse=True)
def _every_batch_crosses(monkeypatch):
    import repro.service.sharded as sharded_module

    monkeypatch.setattr(sharded_module, "SCATTER_GRAIN", 1)


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


def _simulate_shipping_the_graph(graph, sources, params):
    """A scatter task that closes over the graph itself, not a handle."""
    return montecarlo.estimate_walk_distributions_batch(graph, sources, params)


def _service(graph):
    service = QueryService(
        graph,
        _build_index(graph),
        _params(),
        ServiceParams(cache_capacity=0),
        sharding=ShardingParams(num_shards=NUM_SHARDS),
    )
    service._serve_backend = InlineProcessBackend(max_workers=2)
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
        with _service(small) as service:
            small_bytes = _batch_scatter_bytes(service, queries)
        with _service(large) as service:
            large_bytes = _batch_scatter_bytes(service, queries)
        # A 10x larger graph must not move the scatter payload: allow only
        # incidental slack (token strings, pickling framing).
        assert large_bytes <= small_bytes * 1.25, (
            f"resident scatter payload grew with the graph: "
            f"{small_bytes}B at n=300 vs {large_bytes}B at n=3000"
        )
        assert large_bytes < 64 * 1024

    def test_nonresident_payload_does_grow_with_the_graph(self):
        """Sanity check on the instrument: a hand-built task that carries
        the graph itself must be seen to grow by the same measurement —
        otherwise the regression test above is vacuous."""
        small = generators.copying_model_graph(300, out_degree=5, seed=7)
        large = generators.copying_model_graph(3000, out_degree=5, seed=7)
        backend = InlineProcessBackend(max_workers=1)
        shipped = []
        for graph in (small, large):
            backend.run([partial(_simulate_shipping_the_graph, graph, [0, 1],
                                 _params())])
            shipped.append(backend.last_payload_bytes[0])
        assert shipped[1] > shipped[0] * 4
        with _service(large) as service:
            resident_bytes = _batch_scatter_bytes(service, _pair_queries(16))
        assert shipped[1] > resident_bytes * 5, (
            "one ship-the-graph task should outweigh a whole resident batch"
        )

    def test_resident_payload_scales_with_sources_only(self):
        graph = generators.copying_model_graph(2000, out_degree=5, seed=7)
        with _service(graph) as service:
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
        with _service(graph) as service:
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


def _build_service(graph, service_params=ServiceParams(cache_capacity=0)):
    """A ``.build`` service (owns update state); inline process pool unless
    ``service_params`` names a real serve backend."""
    service = QueryService.build(
        graph, _params(), service_params=service_params,
        sharding=ShardingParams(num_shards=NUM_SHARDS),
    )
    if service_params.serve_backend == "serial":
        service._serve_backend = InlineProcessBackend(max_workers=2)
    return service


def _mixed_queries(count, topk=4):
    return _pair_queries(count) + [TopKQuery(i, k=6) for i in range(topk)]


class TestResidentSystemLifecycle:
    """What the serve pool holds and receives across lineage events.

    Only the graph is resident on the serve backend; scores and rankings
    are computed in the serving process, and migration slices of the
    maintained system run in-process.  These tests drive the *real*
    service entry points — live updates and a snapshot restore — with the
    real shared-memory export.
    """

    def test_snapshot_restore_serves_from_fresh_registration(self, tmp_path):
        graph = generators.copying_model_graph(300, out_degree=5, seed=7)
        queries = _mixed_queries(8)
        with _build_service(graph) as service:
            reference = service.run_batch(queries)
            service.save_snapshot(tmp_path)
        restored = QueryService.from_snapshot(
            graph, tmp_path,
            service_params=ServiceParams(cache_capacity=0),
        )
        restored._serve_backend = InlineProcessBackend(max_workers=2)
        with restored:
            answers = restored.run_batch(queries)
            handle = restored._serve_backend.resident_handle("graph")
            assert handle is not None and handle.kind == "shm", (
                "a restored lineage must register the graph afresh"
            )
        assert _answers_equal(reference, answers)

    def test_identity_on_every_backend(self):
        """Bitwise identity vs the single-shard service on every serve
        backend, before and after each of two live updates: every update
        re-registers the graph on the serve pool (acceptance gate)."""
        graph = generators.copying_model_graph(300, out_degree=5, seed=7)
        queries = _mixed_queries(10)
        edges = [(0, 150), (3, 290), (290, 7)]
        more_edges = [(5, 100), (100, 299)]

        single = QueryService.build(graph, _params(),
                                    service_params=ServiceParams(
                                        cache_capacity=0))
        before_reference = single.run_batch(queries)
        single.add_edges(edges)
        after_reference = single.run_batch(queries)
        single.add_edges(more_edges)
        last_reference = single.run_batch(queries)

        for backend in ("serial", "processes"):
            service_params = ServiceParams(
                cache_capacity=0, serve_backend=backend, serve_workers=2)
            with _build_service(graph, service_params) as service:
                assert _answers_equal(before_reference,
                                      service.run_batch(queries))
                service.add_edges(edges)
                assert _answers_equal(after_reference,
                                      service.run_batch(queries))
                service.add_edges(more_edges)
                assert _answers_equal(last_reference,
                                      service.run_batch(queries)), (
                    f"{backend} diverged after a second update"
                )

    def test_system_payload_independent_of_system_size(self):
        """Per-batch scatter bytes stay O(sources) when the service owns a
        full maintained system (not just a pre-built index)."""
        queries = _mixed_queries(8)
        small = generators.copying_model_graph(300, out_degree=5, seed=7)
        large = generators.copying_model_graph(3000, out_degree=5, seed=7)
        with _build_service(small) as service:
            small_bytes = _batch_scatter_bytes(service, queries)
        with _build_service(large) as service:
            large_bytes = _batch_scatter_bytes(service, queries)
        assert large_bytes <= small_bytes * 1.25, (
            f"scatter payload grew with the maintained system: "
            f"{small_bytes}B at n=300 vs {large_bytes}B at n=3000"
        )

    def test_topk_payload_carries_no_score_slices(self):
        """A top-k heavy batch ships exactly what simulating its sources
        ships: ranking sends no per-shard score slices (O(n/K) floats
        each) — nothing — to the pool."""
        graph = generators.copying_model_graph(2000, out_degree=5, seed=7)
        topk_queries = [TopKQuery(i, k=8) for i in range(6)]
        with _service(graph) as service:
            topk_bytes = _batch_scatter_bytes(service, topk_queries)
            assert service.last_batch_payload_bytes == topk_bytes
            assert service.stats()["scatter_payload_bytes"] >= topk_bytes
            # cache_capacity=0: the same sources re-simulate, rank nothing.
            assert topk_bytes == _batch_scatter_bytes(
                service, [SourceQuery(i) for i in range(6)])
        # One shard's slices alone would be 8 bytes x n/K x queries.
        assert topk_bytes < 8 * graph.n_nodes // NUM_SHARDS * len(topk_queries)

    def test_processes_pool_receives_only_simulate_tasks(self):
        """On a real ``processes`` pool: a fully cached top-k batch sends
        the pool nothing and registers nothing beyond the graph; a batch
        with cache misses sends handle-sized simulate tasks only, and
        answers exactly as the ``serial`` backend does."""
        graph = generators.copying_model_graph(400, out_degree=5, seed=7)
        topk_queries = [TopKQuery(i, k=6) for i in range(8)]
        sharding = ShardingParams(num_shards=NUM_SHARDS)
        with QueryService(
                graph, _build_index(graph), _params(),
                ServiceParams(cache_capacity=64), sharding=sharding) as serial:
            reference = serial.run_batch(topk_queries)
        with QueryService(
                graph, _build_index(graph), _params(),
                ServiceParams(cache_capacity=64, serve_backend="processes",
                              serve_workers=2),
                sharding=sharding) as service:
            backend = service._serve_backend
            cold = service.run_batch(topk_queries)
            assert 0 < len(backend.last_payload_bytes) <= NUM_SHARDS
            assert max(backend.last_payload_bytes) < 4096, (
                "simulate tasks must ship a handle and source ids only"
            )
            shipped = backend.total_payload_bytes
            warm = service.run_batch(topk_queries)
            assert backend.total_payload_bytes == shipped, (
                "a fully cached top-k batch must send the pool nothing"
            )
            assert service.last_batch_payload_bytes == 0
            assert set(backend._residents) == {"graph"}
        assert _answers_equal(reference, cold)
        assert _answers_equal(reference, warm)


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
        service = QueryService(
            graph, _build_index(graph), _params(),
            ServiceParams(cache_capacity=0, serve_backend="processes",
                          serve_workers=2),
            sharding=ShardingParams(num_shards=2),
        )
        service.run_batch(_pair_queries(4))
        handle = service._serve_backend.resident_handle("graph")
        assert handle is not None and self._segment_exists(handle.shm_name)
        service.close()
        assert not self._segment_exists(handle.shm_name)
        service.close()  # idempotent

    def test_close_unlinks_system_and_nodes_segments(self, tmp_path):
        """A ``processes`` build backend through an update and a snapshot
        registers only the graph (splicing the maintained system is
        in-process), and ``close`` leaves no segment behind."""
        before = set(glob.glob("/dev/shm/psm_*"))
        graph = generators.copying_model_graph(300, out_degree=5, seed=3)
        with QueryService.build(
            graph, _params(),
            service_params=ServiceParams(cache_capacity=0),
            sharding=ShardingParams(num_shards=2, backend="processes",
                                    max_workers=1),
        ) as service:
            assert service.add_edges([(0, 150), (3, 290)]) is not None
            service.save_snapshot(tmp_path)
            backend = service._walker.backend
            assert set(backend._residents) == {"graph"}
            handle = backend.resident_handle("graph")
            assert self._segment_exists(handle.shm_name)
        assert not self._segment_exists(handle.shm_name)
        assert set(glob.glob("/dev/shm/psm_*")) <= before

    def test_close_releases_segments_after_pool_breaks(self):
        """The satellite guarantee: a broken pool cannot leak segments.

        Both release points are exercised: the broken-run recovery path
        frees the registration immediately, and the service-level
        ``close`` afterwards must succeed (and stay a no-op for the
        already-unlinked segment) instead of raising.
        """
        graph = generators.copying_model_graph(300, out_degree=5, seed=3)
        service = QueryService(
            graph, _build_index(graph), _params(),
            ServiceParams(cache_capacity=0, serve_backend="processes",
                          serve_workers=2),
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
