"""Service throughput — batched + cached queries vs naive per-query calls.

The whole point of the serving layer is that real query traffic is skewed:
many concurrent queries reference the same hot sources, so deduplicating a
batch and caching walk distributions across batches removes most of the
Monte-Carlo work.  This benchmark generates a 1k-node graph, builds the
index once, and replays a Zipf-skewed workload two ways:

``naive``
    Every query independently re-estimates the walk distributions of both
    endpoints (the one-shot library path a client loop would hit).
``service``
    The same queries answered by :class:`repro.service.QueryService` in
    batches, with the walk-distribution cache on.

Both paths produce bitwise-identical answers (asserted below); the service
path must be at least 3x faster.

Runs standalone too::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
"""

import time

import numpy as np

from repro.config import ServiceParams, SimRankParams
from repro.core import montecarlo
from repro.core.diagonal import build_diagonal_index
from repro.core.queries import QueryEngine
from repro.graph import generators
from repro.service import PairQuery, QueryService

GRAPH_NODES = 1_000
N_QUERIES = 400
N_BATCHES = 8
HOT_SOURCES = 60
ZIPF_EXPONENT = 1.3


def _workload(n_nodes: int, seed: int):
    """Zipf-skewed pair queries over a small hot set (typical service traffic)."""
    rng = np.random.default_rng(seed)
    hot = rng.choice(n_nodes, size=HOT_SOURCES, replace=False)
    ranks = rng.zipf(ZIPF_EXPONENT, size=2 * N_QUERIES) % HOT_SOURCES
    endpoints = hot[ranks]
    return [PairQuery(int(endpoints[2 * q]), int(endpoints[2 * q + 1]))
            for q in range(N_QUERIES)]


def service_throughput_experiment():
    graph = generators.copying_model_graph(GRAPH_NODES, out_degree=6,
                                           copy_prob=0.6, seed=31)
    params = SimRankParams(c=0.6, walk_steps=8, jacobi_iterations=3,
                           index_walkers=60, query_walkers=600, seed=31)
    index = build_diagonal_index(graph, params)
    queries = _workload(graph.n_nodes, seed=77)
    batches = [queries[start::N_BATCHES] for start in range(N_BATCHES)]

    # Naive path: one fresh Monte-Carlo estimate per endpoint per query.
    engine = QueryEngine(graph, index, params)
    start = time.perf_counter()
    naive_answers = []
    for query in queries:
        if query.source == query.target:
            naive_answers.append(1.0)
            continue
        dist_i = montecarlo.estimate_walk_distributions(graph, query.source, params)
        dist_j = montecarlo.estimate_walk_distributions(graph, query.target, params)
        naive_answers.append(engine.combine_pair(dist_i, dist_j))
    naive_seconds = time.perf_counter() - start

    # Service path: the same queries, batched, over a shared cache.
    service = QueryService(graph, index, params,
                           ServiceParams(cache_capacity=256))
    start = time.perf_counter()
    service_answers = []
    for batch in batches:
        service_answers.extend(service.run_batch(batch))
    service_seconds = time.perf_counter() - start

    # Batching and caching must not change a single answer.
    order = [query for batch in batches for query in batch]
    by_query = dict(zip(order, service_answers))
    mismatches = sum(
        1 for query, naive in zip(queries, naive_answers)
        if by_query[query] != naive
    )

    stats = service.stats()
    speedup = naive_seconds / service_seconds if service_seconds else float("inf")
    rows = [
        {
            "path": "naive per-query",
            "seconds": naive_seconds,
            "queries_per_second": N_QUERIES / naive_seconds,
            "simulations": sum(2 for q in queries if q.source != q.target),
            "speedup": 1.0,
        },
        {
            "path": "service (batched+cached)",
            "seconds": service_seconds,
            "queries_per_second": N_QUERIES / service_seconds,
            "simulations": stats["sources_simulated"],
            "speedup": speedup,
        },
    ]
    return {
        "rows": rows,
        "speedup": speedup,
        "mismatches": mismatches,
        "cache_hit_rate": stats["cache_hit_rate"],
        "sources_simulated": stats["sources_simulated"],
        "sources_deduplicated": stats["sources_deduplicated"],
        "n_queries": N_QUERIES,
        "n_batches": N_BATCHES,
        "graph_nodes": GRAPH_NODES,
    }


def _check_and_render(result) -> str:
    from repro.bench import reporting

    rendered = reporting.format_table(
        result["rows"],
        title=(f"Service throughput — {result['n_queries']} Zipf-skewed pair "
               f"queries on a {result['graph_nodes']}-node graph"),
    )
    assert result["mismatches"] == 0, "service answers diverged from naive path"
    assert result["speedup"] >= 3.0, (
        f"batched+cached service is only {result['speedup']:.2f}x faster "
        "than naive per-query calls (needs >= 3x)"
    )
    return rendered


def test_service_throughput(benchmark, results_dir):
    from repro.bench import reporting

    result = benchmark.pedantic(service_throughput_experiment, rounds=1, iterations=1)
    rendered = _check_and_render(result)
    reporting.save_results("service_throughput", result, rendered, results_dir)
    print("\n" + rendered)


if __name__ == "__main__":
    from repro.bench import reporting

    outcome = service_throughput_experiment()
    rendered = _check_and_render(outcome)
    reporting.save_results("service_throughput", outcome, rendered)
    print(rendered)
    print(f"speedup: {outcome['speedup']:.1f}x, "
          f"cache hit rate {outcome['cache_hit_rate']:.2%}, "
          f"{outcome['sources_simulated']} simulations for "
          f"{outcome['n_queries']} queries")
