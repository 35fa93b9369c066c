"""Networked HTTP serving — coalesced concurrent clients vs the serial REPL.

The REPL (``repro serve``) answers one request at a time: each client batch
is its own ``run_batch``, so a hot source shared by eight concurrent
clients is simulated eight times.  The HTTP tier
(:class:`repro.service.http.HttpServiceServer`) closes that gap with
cross-connection coalescing: requests arriving within
``ServiceParams.coalesce_window`` are merged into ONE planned batch, the
planner dedups sources *across connections*, and the scatter fans out
once.  This benchmark drives both paths with the same request stream —
eight concurrent ``http.client`` threads drawing from a shared hot-source
pool against the server, and the identical requests replayed one at a
time against an identically configured service (the serial REPL shape) —
with ``cache_capacity=0`` on both so the win measured is coalescing, not
caching.

Gates:

* sustained HTTP throughput must be >= 2x the serial REPL path's QPS with
  8 concurrent clients;
* request p99 latency must stay under a fixed bound (backpressure and
  coalescing must not trade throughput for an unbounded tail);
* every HTTP response must decode to answers **bitwise-identical** to the
  sequential in-process path at the same index version — before AND after
  a live (``"wait": true``) update through ``POST /update``.

Runs standalone too::

    PYTHONPATH=src python benchmarks/bench_http_serve.py
"""

import asyncio
import http.client
import json
import math
import threading
import time

GRAPH_NODES = 2_000
OUT_DEGREE = 6
WALK_STEPS = 6
INDEX_WALKERS = 40
QUERY_WALKERS = 4_000
NUM_SHARDS = 4
SEED = 47

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 12
HOT_SOURCES = 16
PAIRS_PER_REQUEST = 6
TOP_K = 10
COALESCE_WINDOW = 0.005
MAX_IN_FLIGHT = 256

MIN_QPS_SPEEDUP = 2.0
MAX_P99_SECONDS = 1.0

UPDATE_EDGES = ((0, 1500), (3, 1200), (1500, 7))
POST_UPDATE_REQUESTS = 16


def _params():
    from repro.config import SimRankParams

    return SimRankParams(
        c=0.6, walk_steps=WALK_STEPS, jacobi_iterations=3,
        index_walkers=INDEX_WALKERS, query_walkers=QUERY_WALKERS, seed=SEED,
    )


def _make_service(graph, index):
    from repro.config import ServiceParams, ShardingParams
    from repro.service import QueryService

    return QueryService(
        graph, index, _params(),
        ServiceParams(cache_capacity=0, coalesce_window=COALESCE_WINDOW,
                      max_in_flight=MAX_IN_FLIGHT),
        sharding=ShardingParams(num_shards=NUM_SHARDS),
    )


def _request_stream(n_nodes, n_requests):
    """Deterministic request batches over a shared hot-source pool.

    Every request draws its pair/top-k sources from the same small pool
    (rotated by request index), so concurrent clients overlap heavily —
    the traffic shape cross-connection coalescing exists for.  The serial
    baseline replays the *same* stream, so both paths pay for the same
    queries; only the dedup differs.
    """
    pool = [source % n_nodes for source in range(HOT_SOURCES)]
    requests = []
    for index in range(n_requests):
        picks = [pool[(index + j) % len(pool)]
                 for j in range(2 * PAIRS_PER_REQUEST + 1)]
        lines = [f"pair {picks[2 * j]} {picks[2 * j + 1]}"
                 for j in range(PAIRS_PER_REQUEST)]
        lines.append(f"topk {picks[-1]} {TOP_K}")
        requests.append(lines)
    return requests


def _reference_answers(service, requests):
    """The serial REPL path: one ``run_batch`` per request, timed.

    Returns the per-request JSON-shaped answers (via the same
    :func:`~repro.service.http.encode_answer` the server uses, so floats
    compare exactly after a JSON round trip) plus the wall-clock of the
    sequential replay.
    """
    from repro.service import parse_query
    from repro.service.http import encode_answer

    default_k = service.service_params.default_top_k
    encoded = []
    start = time.perf_counter()
    for lines in requests:
        queries = [parse_query(line, default_k=default_k) for line in lines]
        answers = service.run_batch(queries)
        encoded.append([encode_answer(query, answer)
                        for query, answer in zip(queries, answers)])
    return encoded, time.perf_counter() - start


class _ServerThread:
    """Runs an :class:`HttpServiceServer` event loop on a daemon thread."""

    def __init__(self, server):
        self.server = server
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="bench-http-loop")

    def _run(self):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def start(self):
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("HTTP server failed to start within 60s")

    def stop(self):
        future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                  self.loop)
        future.result(timeout=120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        self.loop.close()


def _post_json(connection, path, payload):
    body = json.dumps(payload).encode("utf-8")
    connection.request("POST", path, body,
                       {"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


def _client_worker(port, jobs, barrier, statuses, payloads, latencies):
    """One concurrent client: keep-alive connection, one POST per request."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        barrier.wait(timeout=60)
        for index, lines in jobs:
            start = time.perf_counter()
            status, payload = _post_json(connection, "/query",
                                         {"queries": lines})
            latencies.append(time.perf_counter() - start)
            statuses[index] = status
            payloads[index] = payload
    finally:
        connection.close()


def _run_clients(port, requests):
    """Fan the request stream over ``N_CLIENTS`` concurrent threads."""
    statuses = [None] * len(requests)
    payloads = [None] * len(requests)
    latencies = []
    barrier = threading.Barrier(N_CLIENTS + 1)
    threads = []
    for client in range(N_CLIENTS):
        jobs = [(index, requests[index])
                for index in range(client, len(requests), N_CLIENTS)]
        thread = threading.Thread(
            target=_client_worker,
            args=(port, jobs, barrier, statuses, payloads, latencies),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - start
    return statuses, payloads, latencies, elapsed


def _percentile(values, fraction):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(math.ceil(fraction * len(ordered)) - 1, 0)
    return ordered[rank]


def _identity_of(payloads, expected, version):
    """True iff every response matches the serial answers at ``version``."""
    identical = True
    for payload, answers in zip(payloads, expected):
        identical &= (payload is not None
                      and payload.get("index_version") == version
                      and payload.get("answers") == answers)
    return identical


def http_serve_experiment():
    from repro.core.diagonal import build_diagonal_index
    from repro.graph import generators
    from repro.service.http import HttpServiceServer

    params = _params()
    graph = generators.copying_model_graph(
        GRAPH_NODES, out_degree=OUT_DEGREE, seed=SEED, name="http-serve"
    )
    index = build_diagonal_index(graph, params)
    requests = _request_stream(graph.n_nodes,
                               N_CLIENTS * REQUESTS_PER_CLIENT)
    edges = [(u % graph.n_nodes, v % graph.n_nodes) for u, v in UPDATE_EDGES]

    # Serial REPL path: same service configuration, one request at a time.
    reference = _make_service(graph, index)
    with reference:
        version_before = reference.index_version
        expected_before, serial_seconds = _reference_answers(reference,
                                                             requests)
        reference.add_edges(edges)
        version_after = reference.index_version
        expected_after, _ = _reference_answers(
            reference, requests[:POST_UPDATE_REQUESTS]
        )

    # Networked path: 8 concurrent clients against the coalescing tier.
    server = HttpServiceServer(_make_service(graph, index),
                               host="127.0.0.1", port=0)
    runner = _ServerThread(server)
    runner.start()
    try:
        statuses, payloads, latencies, http_seconds = _run_clients(
            server.port, requests
        )
        all_ok = all(status == 200 for status in statuses)
        identical = _identity_of(payloads, expected_before, version_before)

        probe = http.client.HTTPConnection("127.0.0.1", server.port,
                                           timeout=120)
        try:
            update_status, update_payload = _post_json(
                probe, "/update",
                {"edges": [list(edge) for edge in edges], "wait": True},
            )
            probe.request("GET", "/stats", None, {})
            stats_response = probe.getresponse()
            coalescer_stats = json.loads(
                stats_response.read().decode("utf-8")
            ).get("coalescer", {})
        finally:
            probe.close()
        update_ok = (update_status == 200
                     and update_payload.get("index_version") == version_after)

        after_statuses, after_payloads, _, _ = _run_clients(
            server.port, requests[:POST_UPDATE_REQUESTS]
        )
        all_ok &= all(status == 200 for status in after_statuses)
        identical &= update_ok
        identical &= _identity_of(after_payloads, expected_after,
                                  version_after)
    finally:
        runner.stop()

    serial_qps = len(requests) / max(serial_seconds, 1e-9)
    http_qps = len(requests) / max(http_seconds, 1e-9)
    qps_speedup = http_qps / max(serial_qps, 1e-9)
    p99 = _percentile(latencies, 0.99)
    all_identical = bool(identical and all_ok)
    gate_passed = bool(all_identical
                       and qps_speedup >= MIN_QPS_SPEEDUP
                       and p99 <= MAX_P99_SECONDS)
    return {
        "rows": [
            {
                "path": "serial-repl",
                "clients": 1,
                "requests": len(requests),
                "seconds": round(serial_seconds, 4),
                "qps": round(serial_qps, 1),
                "p99_ms": None,
            },
            {
                "path": "http-coalesced",
                "clients": N_CLIENTS,
                "requests": len(requests),
                "seconds": round(http_seconds, 4),
                "qps": round(http_qps, 1),
                "p99_ms": round(p99 * 1e3, 2),
            },
        ],
        "qps_speedup": round(qps_speedup, 2),
        "p99_seconds": round(p99, 4),
        "all_identical": all_identical,
        "gate_passed": gate_passed,
        "coalesced_submissions": coalescer_stats.get("coalesced_submissions", 0),
        "batches": coalescer_stats.get("batches", 0),
        "graph_nodes": graph.n_nodes,
        "graph_edges": graph.n_edges,
        "num_shards": NUM_SHARDS,
        "n_requests": len(requests),
        "hot_sources": HOT_SOURCES,
        "coalesce_window": COALESCE_WINDOW,
    }


def _check_and_render(result) -> str:
    from repro.bench import reporting

    rendered = reporting.format_table(
        result["rows"],
        title=(f"HTTP serving of {result['n_requests']} requests over a "
               f"{result['hot_sources']}-source hot pool "
               f"({result['graph_nodes']}-node graph, {result['num_shards']} "
               f"shards, window={result['coalesce_window']}s; "
               f"{result['coalesced_submissions']} submissions coalesced "
               f"into {result['batches']} batches)"),
    )
    assert result["all_identical"], (
        "an HTTP response diverged bitwise from the serial in-process "
        "answers (or a request/update failed)"
    )
    assert result["qps_speedup"] >= MIN_QPS_SPEEDUP, (
        f"HTTP QPS is only {result['qps_speedup']:.2f}x the serial REPL "
        f"path (needs >= {MIN_QPS_SPEEDUP}x with {N_CLIENTS} clients)"
    )
    assert result["p99_seconds"] <= MAX_P99_SECONDS, (
        f"request p99 is {result['p99_seconds']:.3f}s "
        f"(bound {MAX_P99_SECONDS}s)"
    )
    return rendered


def test_http_serve(benchmark, results_dir):
    from repro.bench import reporting

    result = benchmark.pedantic(http_serve_experiment, rounds=1, iterations=1)
    rendered = _check_and_render(result)
    reporting.save_results("http_serve", result, rendered, results_dir)
    print("\n" + rendered)


if __name__ == "__main__":
    from repro.bench import reporting

    outcome = http_serve_experiment()
    rendered = _check_and_render(outcome)
    reporting.save_results("http_serve", outcome, rendered)
    print(rendered)
    print(f"HTTP QPS speedup over serial REPL at {N_CLIENTS} clients: "
          f"{outcome['qps_speedup']:.1f}x, p99 {outcome['p99_seconds']*1e3:.0f}ms, "
          f"answers bitwise-identical: {outcome['all_identical']}")
