"""Scenario harness — trace replay across workload shapes + accuracy budget.

Every other serving benchmark drives one workload shape (uniform batches);
this one replays the full scenario registry
(:data:`repro.service.scenarios.TRACE_GENERATORS` — uniform, Zipf-skewed,
bursty, adversarial update storms, multi-tenant interleaving) against
a 4-shard ``QueryService`` and gates two properties:

* **exact-mode identity**: every scenario's answer checksum on the sharded
  service equals the single-shard ``QueryService`` reference — the serving
  stack's bitwise contract holds on every workload shape, updates included;
* **approximate-mode budget**: with ``ServiceParams.accuracy_budget`` set,
  the calibrated reduced-walker operating point must realize a mean error
  within the declared budget on every replayed scenario *and* improve p99
  batch latency by >= 1.5x on at least one scenario.

The per-scenario records (``result["scenarios"]``) are persisted with the
rest of the result (``benchmark_results/scenarios.json``).

Runs standalone too::

    PYTHONPATH=src python benchmarks/bench_scenarios.py
"""

GRAPH_NODES = 1_200
OUT_DEGREE = 5
WALK_STEPS = 5
INDEX_WALKERS = 25
QUERY_WALKERS = 1_000
NUM_SHARDS = 4
N_EVENTS = 120
BATCH_SIZE = 32
ACCURACY_BUDGET = 0.05
APPROX_SCENARIOS = ("zipf", "bursty")
MIN_P99_IMPROVEMENT = 1.5
SEED = 29


def _params():
    from repro.config import SimRankParams

    return SimRankParams(
        c=0.6, walk_steps=WALK_STEPS, jacobi_iterations=3,
        index_walkers=INDEX_WALKERS, query_walkers=QUERY_WALKERS, seed=SEED,
    )


def _traces(n_nodes):
    from repro.service import scenarios

    return {
        name: generator(n_nodes, n_events=N_EVENTS, seed=SEED)
        for name, generator in scenarios.TRACE_GENERATORS.items()
    }


def _replay(service, trace, reference=None):
    from repro.service import scenarios

    try:
        return scenarios.replay_trace(service, trace, batch_size=BATCH_SIZE,
                                      reference=reference)
    finally:
        service.close()


def scenarios_experiment():
    from repro.analysis.accuracy import (
        calibrate_query_budget,
        exact_linearized_matrix,
    )
    from repro.config import ServiceParams, ShardingParams
    from repro.core.diagonal import build_diagonal_index
    from repro.graph import generators
    from repro.service import QueryService

    params = _params()
    graph = generators.copying_model_graph(
        GRAPH_NODES, out_degree=OUT_DEGREE, seed=SEED, name="scenarios"
    )
    index = build_diagonal_index(graph, params)
    traces = _traces(graph.n_nodes)
    sharding = ShardingParams(num_shards=NUM_SHARDS)

    # --- exact mode: sharded vs single-shard reference, every scenario ---
    rows, records = [], []
    all_identical = True
    exact_p99 = {}
    for name, trace in sorted(traces.items()):
        single = _replay(QueryService(graph, index, params), trace)
        sharded = _replay(
            QueryService(graph, index, params, sharding=sharding),
            trace,
        )
        identical = (sharded.answer_checksum == single.answer_checksum
                     and sharded.versions_monotonic)
        all_identical &= identical
        exact_p99[name] = sharded.p99_latency_seconds
        records.append(sharded.to_record())
        rows.append({
            "scenario": name,
            "queries": sharded.n_queries,
            "updates": sharded.n_updates,
            "qps": round(sharded.qps, 1),
            "p50_ms": round(sharded.p50_latency_seconds * 1e3, 3),
            "p99_ms": round(sharded.p99_latency_seconds * 1e3, 3),
            "cache_hit_rate": round(sharded.cache_hit_rate, 3),
            "bitwise_identical": identical,
        })

    # --- approximate mode: calibrated budget on the query-only shapes ---
    # (update scenarios would invalidate the precomputed ground truth).
    reference = exact_linearized_matrix(graph, params)
    calibration = calibrate_query_budget(graph, index, params,
                                         ACCURACY_BUDGET)
    approx_service_params = ServiceParams(
        accuracy_budget=ACCURACY_BUDGET,
        approx_walkers=calibration.walkers,
        approx_steps=calibration.walk_steps,
    )
    approx_rows = []
    within_budget = True
    improvements = []
    for name in APPROX_SCENARIOS:
        approx = _replay(
            QueryService(graph, index, params, approx_service_params,
                                sharding=sharding),
            traces[name], reference=reference,
        )
        records.append(approx.to_record())
        improvement = exact_p99[name] / max(approx.p99_latency_seconds, 1e-9)
        improvements.append(improvement)
        within = (approx.realized_mean_error is not None
                  and approx.realized_mean_error <= ACCURACY_BUDGET)
        within_budget &= within
        approx_rows.append({
            "scenario": name,
            "exact_p99_ms": round(exact_p99[name] * 1e3, 3),
            "approx_p99_ms": round(approx.p99_latency_seconds * 1e3, 3),
            "p99_improvement": round(improvement, 2),
            "realized_mean_error": round(approx.realized_mean_error, 5),
            "budget": ACCURACY_BUDGET,
            "within_budget": within,
        })

    best_improvement = max(improvements)
    return {
        "rows": rows,
        "approx_rows": approx_rows,
        "scenarios": records,
        "all_identical": all_identical,
        "approx_within_budget": within_budget,
        "approx_p99_improvement": best_improvement,
        "gate_passed": bool(within_budget
                            and best_improvement >= MIN_P99_IMPROVEMENT),
        "accuracy_budget": ACCURACY_BUDGET,
        "calibration": calibration.to_dict(),
        "graph_nodes": graph.n_nodes,
        "graph_edges": graph.n_edges,
        "num_shards": NUM_SHARDS,
        "n_events": N_EVENTS,
        "batch_size": BATCH_SIZE,
    }


def _check_and_render(result) -> str:
    from repro.bench import reporting

    rendered = reporting.format_table(
        result["rows"],
        title=(f"Scenario replay on a {result['graph_nodes']}-node graph "
               f"({result['num_shards']} shards, {result['n_events']} events "
               "per trace; sharded vs single-shard reference)"),
    )
    rendered += "\n" + reporting.format_table(
        result["approx_rows"],
        title=(f"Approximate serving at accuracy budget "
               f"{result['accuracy_budget']} (calibrated to "
               f"{result['calibration']['walkers']} walkers x "
               f"{result['calibration']['walk_steps']} steps)"),
    )
    assert len(result["rows"]) >= 4, (
        f"scenario sweep shrank to {len(result['rows'])} shapes (needs >= 4)"
    )
    assert result["all_identical"], (
        "an exact-mode scenario replay diverged bitwise from the "
        "single-shard reference"
    )
    assert result["approx_within_budget"], (
        "an approximate replay exceeded its declared accuracy budget"
    )
    assert result["approx_p99_improvement"] >= MIN_P99_IMPROVEMENT, (
        f"approximate mode improved p99 only "
        f"{result['approx_p99_improvement']:.2f}x "
        f"(needs >= {MIN_P99_IMPROVEMENT}x on at least one scenario)"
    )
    return rendered


def test_scenarios(benchmark, results_dir):
    from repro.bench import reporting

    result = benchmark.pedantic(scenarios_experiment, rounds=1, iterations=1)
    rendered = _check_and_render(result)
    reporting.save_results("scenarios", result, rendered, results_dir)
    print("\n" + rendered)


if __name__ == "__main__":
    from repro.bench import reporting

    outcome = scenarios_experiment()
    rendered = _check_and_render(outcome)
    reporting.save_results("scenarios", outcome, rendered)
    print(rendered)
    print(f"exact identical on {len(outcome['rows'])} scenarios: "
          f"{outcome['all_identical']}; approx p99 improvement "
          f"{outcome['approx_p99_improvement']:.1f}x within budget: "
          f"{outcome['approx_within_budget']}")
