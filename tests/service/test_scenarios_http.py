"""Scenario replays through the HTTP tier: stress, identity and teardown.

The HTTP replay driver (:func:`repro.service.scenarios.replay_trace_http`)
is pinned against the in-process driver: bursty and update-storm traces
through the coalescer must yield the *same answer checksum* as an
in-process replay of the same trace on an identically built service,
observe monotone index versions, and never see an error status beyond the
documented 429/503 backpressure responses (which the driver retries).
Concurrent replays against a ``max_in_flight=1`` server exercise the
503-retry path; a ``max_pending_edges`` bound exercises the deterministic
429 failure; the processes-backend teardown must leave ``/dev/shm`` clean.
"""

import asyncio
import sys
import threading
import time

import pytest

from repro.config import (
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.errors import CloudWalkerError, ConfigurationError
from repro.graph import generators
from repro.service import (
    ReplayOptions,
    QueryService,
    generate_trace,
    replay_trace,
    replay_trace_http,
)
from repro.service.http import HttpServiceServer

PARAMS = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                       index_walkers=15, query_walkers=40, seed=23)
N_NODES = 90


def _graph():
    return generators.copying_model_graph(N_NODES, out_degree=4, seed=3)


def _sharded(graph, update_params=None, **service_overrides):
    service_overrides.setdefault("serve_backend", "threads")
    service_overrides.setdefault("serve_workers", 2)
    service_params = ServiceParams(
        cache_capacity=32, coalesce_window=0.005, **service_overrides,
    )
    return QueryService.build(
        graph, PARAMS, service_params=service_params,
        update_params=update_params,
        sharding=ShardingParams(num_shards=3),
    )


class _LoopThread:
    """Runs a started server's event loop on a daemon thread, so real
    ``http.client`` replay threads can hammer it (test_http.py pattern)."""

    def __init__(self, server):
        self.server = server
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=60), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                  self.loop)
        future.result(timeout=120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        self.loop.close()
        return False


def _shm_segments():
    """Python shared-memory segments currently in /dev/shm (Linux only)."""
    import pathlib

    shm = pathlib.Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {entry.name for entry in shm.iterdir()
            if entry.name.startswith("psm_")}


@pytest.mark.parametrize("scenario,kwargs", [
    ("bursty", {"n_events": 30, "burst_size": 8}),
    ("update_storm", {"n_events": 24, "storm_every": 8}),
])
def test_http_replay_matches_in_process_bitwise(scenario, kwargs):
    graph = _graph()
    trace = generate_trace(scenario, N_NODES, seed=5, **kwargs)
    options = ReplayOptions(batch_size=8, update_wait=True)

    reference_service = _sharded(graph)
    try:
        reference = replay_trace(reference_service, trace, options)
    finally:
        reference_service.close()

    service = _sharded(graph)
    try:
        with _LoopThread(HttpServiceServer(service, port=0)) as loop:
            result = replay_trace_http(trace, "127.0.0.1",
                                       loop.server.port, options)
    finally:
        service.close()

    assert result.transport == "http"
    assert result.mode == "exact"
    assert result.answer_checksum == reference.answer_checksum
    assert result.versions_monotonic
    assert result.n_queries == trace.n_queries
    assert result.n_updates == trace.n_updates
    if scenario == "update_storm":
        assert result.index_versions[1] > result.index_versions[0]


def test_concurrent_replays_survive_503_backpressure():
    """Three replay threads against a one-batch server (``max_in_flight``
    admits exactly one replay batch of queries at a time): every replay
    must complete (retrying documented 503s) and answer bitwise-identically
    to the single-threaded in-process reference."""
    graph = _graph()
    trace = generate_trace("bursty", N_NODES, n_events=24, burst_size=8,
                           seed=7)
    options = ReplayOptions(batch_size=6, max_attempts=300)

    reference_service = _sharded(graph)
    try:
        reference = replay_trace(reference_service, trace, options)
    finally:
        reference_service.close()

    service = _sharded(graph)
    results, errors = [], []

    def replay(port):
        try:
            results.append(replay_trace_http(trace, "127.0.0.1", port,
                                             options))
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    try:
        with _LoopThread(HttpServiceServer(service, port=0,
                                           max_in_flight=6)) as loop:
            threads = [threading.Thread(target=replay,
                                        args=(loop.server.port,))
                       for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        service.close()

    assert not errors, errors
    assert len(results) == 3
    for result in results:
        assert result.answer_checksum == reference.answer_checksum
        assert result.versions_monotonic


def test_update_storm_exhausting_429_retries_fails_loudly():
    """An update burst beyond ``max_pending_edges`` is refused with 429;
    once retries are exhausted the replay raises instead of dropping the
    update silently."""
    graph = _graph()
    trace = generate_trace("update_storm", N_NODES, n_events=8,
                           storm_every=4, storm_edges=5, seed=2)
    service = _sharded(graph,
                       update_params=UpdateParams(max_pending_edges=2))
    try:
        with _LoopThread(HttpServiceServer(service, port=0)) as loop:
            with pytest.raises(CloudWalkerError, match="429/503"):
                replay_trace_http(
                    trace, "127.0.0.1", loop.server.port,
                    ReplayOptions(batch_size=8, update_wait=False,
                                  max_attempts=2),
                )
    finally:
        service.close()


def test_persistent_backpressure_hits_the_sleep_cap_with_line_number():
    """A persistent 429 must fail once cumulative backoff would pass
    ``max_retry_seconds`` — long before a large ``max_attempts`` runs out
    (linear backoff over 300 attempts would otherwise sleep ~¾ of an
    hour per stuck event) — and the error names the trace line of the
    exhausted event."""
    graph = _graph()
    trace = generate_trace("update_storm", N_NODES, n_events=4,
                           storm_every=4, storm_edges=5, seed=2)
    # The storm is the 5th event -> trace line 6 (header + 1-based events).
    service = _sharded(graph,
                       update_params=UpdateParams(max_pending_edges=2))
    start = time.perf_counter()
    try:
        with _LoopThread(HttpServiceServer(service, port=0)) as loop:
            with pytest.raises(CloudWalkerError,
                               match=r"trace line 6.*429/503"):
                replay_trace_http(
                    trace, "127.0.0.1", loop.server.port,
                    ReplayOptions(batch_size=8, update_wait=False,
                                  max_attempts=10_000,
                                  max_retry_seconds=0.02),
                )
    finally:
        service.close()
    assert time.perf_counter() - start < 30


def test_max_retry_seconds_validation():
    with pytest.raises(ConfigurationError):
        ReplayOptions(max_retry_seconds=0.0)
    with pytest.raises(ConfigurationError):
        ReplayOptions(max_retry_seconds=-1.0)


@pytest.mark.skipif(sys.platform != "linux",
                    reason="/dev/shm is a Linux construct")
def test_processes_backend_replay_leaves_no_shm_segments():
    before = _shm_segments()
    graph = _graph()
    trace = generate_trace("zipf", N_NODES, n_events=16, seed=9)
    service = _sharded(graph, serve_backend="processes", serve_workers=2)
    try:
        with _LoopThread(HttpServiceServer(service, port=0)) as loop:
            result = replay_trace_http(trace, "127.0.0.1", loop.server.port,
                                       ReplayOptions(batch_size=8))
    finally:
        service.close()
    assert result.n_queries == trace.n_queries
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
