"""Per-layer metrics of one traced slice, from spans and counter deltas.

A layer is a module under ``src/repro/``; every metric is named after the
module that does the work.  Times are per client request (total span time
in the traced slice divided by the query requests the clients completed),
counts likewise, so a longer or shorter run reports the same figure.
``README.md`` lists, for each metric, the end-to-end metric and workload it
is expected to move.
"""

from __future__ import annotations

import bisect
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from spans import Span, self_seconds

Metric = Tuple[float, str]

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def per_layer_units() -> Dict[str, str]:
    """name -> unit of every per-layer metric, in report order: read from
    the contract itself, so the two cannot drift apart."""
    contract = json.loads(BENCHMARK_JSON.read_text())
    return {entry["name"]: entry["unit"] for entry in contract["per_layer"]}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def subtree_self_share(spans: List[Span], root_name: str) -> float:
    """Sum of self times under every ``root_name`` span over their total
    duration — 1.0 when children nest properly inside their parents."""
    own = self_seconds(spans)
    children: Dict[int, List[int]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span.id)
    total = covered = 0.0
    for span in spans:
        if span.name != root_name:
            continue
        total += span.seconds
        stack = [span.id]
        while stack:
            current = stack.pop()
            covered += own[current]
            stack.extend(children.get(current, ()))
    return _ratio(covered, total)


def per_layer_metrics(
    *,
    target: Any,
    setup_spans: List[Span],
    spans: List[Span],
    samples: List[Any],
    stats_before: Dict[str, Any],
    stats_after: Dict[str, Any],
    shm_residue: int,
    trace_overhead_share: float,
    slowdown: float,
    setup_slowdown: float,
) -> Dict[str, Metric]:
    """Every metric of :func:`per_layer_units` for one traced slice.

    ``spans`` are those of the slice (benchmark process and, over HTTP, the
    server child); ``setup_spans`` those recorded while the target was
    built; ``samples`` the client-side observations of the slice.  Times are
    divided by the host's slowdown over the slice (``setup_slowdown`` for
    the build-time figures), like the end-to-end metrics — see ``hostspeed``.
    """
    queries = [sample for sample in samples if sample.answered]
    updates = [sample for sample in samples
               if sample.request.kind == "update" and sample.reply.ok]
    requests = len(queries)

    def delta(key: str, section: str = "") -> float:
        before = stats_before.get(section, {}) if section else stats_before
        after = stats_after.get(section, {}) if section else stats_after
        return after.get(key, 0) - before.get(key, 0)

    seconds_by_name: Dict[str, float] = {}
    for span in spans:
        seconds_by_name[span.name] = (seconds_by_name.get(span.name, 0.0)
                                      + span.seconds)

    def span_ms(name: str) -> float:
        return _ratio(seconds_by_name.get(name, 0.0) * 1e3, requests)

    scatters = [span for span in spans if span.name == "core.sharding.scatter"]
    simulate_seconds = sum(span.attrs["task_sum"] for span in scatters
                           if span.attrs["kind"] == "simulate")
    rank_seconds = sum(span.attrs["task_sum"] for span in scatters
                       if span.attrs["kind"] == "rank")
    scatter_wall = sum(span.seconds for span in scatters)
    scatter_max = sum(span.attrs["task_max"] for span in scatters)
    build_tasks = [span for span in setup_spans
                   if span.name == "core.sharding.build_tasks"]

    routed_before = {row["shard"]: row["sources_routed"]
                     for row in stats_before.get("shards", [])}
    routed = [row["sources_routed"] - routed_before.get(row["shard"], 0)
              for row in stats_after.get("shards", [])]

    latencies_ms = [sample.raw_seconds * 1e3 for sample in queries]
    update_ms = [sample.raw_seconds * 1e3 for sample in updates]
    results = [sample.reply.update for sample in updates
               if sample.reply.update is not None]
    by_index = {sample.index: sample for sample in queries}
    after_storm_ms = [by_index[sample.index + 1].raw_seconds * 1e3
                      for sample in updates if sample.index + 1 in by_index]

    # Over HTTP a request's server-side time is the coalesced batch that
    # answered it: the last ``run_batch`` to end before its ``submit`` did
    # (one collector, one worker strand, so batches never overlap).
    batches = sorted((span for span in spans
                      if span.name == "service.sharded.run_batch"),
                     key=lambda span: span.end)
    batch_ends = [span.end for span in batches]
    submit_seconds: List[float] = []
    served_seconds: List[float] = []
    for span in spans:
        if span.name != "service.coalesce.submit":
            continue
        position = bisect.bisect_right(batch_ends, span.end) - 1
        if position >= 0 and batches[position].start >= span.start:
            submit_seconds.append(span.seconds)
            served_seconds.append(batches[position].seconds)
    http = bool(submit_seconds)
    roundtrip_ms = float(np.mean(latencies_ms)) if http else 0.0
    served_ms = float(np.mean(served_seconds)) * 1e3 if http else 0.0

    own = self_seconds(spans)
    run_batch_self = sum(own[span.id] for span in batches)
    info = target.build_info

    values: Dict[str, float] = {
        "graph.generators.generate_s": target.generate_seconds,
        "core.incremental.monte_carlo_s": info.monte_carlo_seconds,
        "core.jacobi.solve_s": info.solve_seconds,
        "core.sharding.build_task_s_max": sum(
            span.attrs["task_max"] for span in build_tasks),
        "core.sharding.build_task_s_sum": sum(
            span.attrs["task_sum"] for span in build_tasks),
        "service.batching.parse_ms": span_ms("service.batching.parse"),
        "service.batching.plan_ms": span_ms("service.batching.plan"),
        "service.batching.dedup_ratio": _ratio(
            delta("sources_deduplicated"),
            sum(sample.request.required_sources for sample in queries)),
        "service.cache.get_ms": span_ms("service.cache.get"),
        "service.cache.put_ms": span_ms("service.cache.put"),
        "service.cache.hit_rate": _ratio(
            delta("cache_hits"), delta("cache_hits") + delta("cache_misses")),
        "service.cache.evictions": _ratio(delta("cache_evictions"), requests),
        "service.cache.invalidations": _ratio(delta("cache_invalidations"),
                                              requests),
        "service.cache.memory_mb":
            stats_after.get("cache_memory_bytes", 0) / 2**20,
        "core.montecarlo.simulate_ms": _ratio(simulate_seconds * 1e3, requests),
        "core.montecarlo.sources_simulated": _ratio(
            delta("sources_simulated"), requests),
        "core.montecarlo.us_per_source": _ratio(
            simulate_seconds * 1e6, delta("sources_simulated")),
        "core.queries.combine_pair_ms": span_ms("core.queries.combine_pair"),
        "core.queries.propagate_ms": span_ms("core.queries.propagate"),
        "core.queries.rank_ms": _ratio(rank_seconds * 1e3, requests),
        "core.queries.merge_ms": span_ms("core.queries.merge"),
        "core.queries.topk_calls": _ratio(delta("topk_queries"), requests),
        "core.queries.pair_calls": _ratio(delta("pair_queries"), requests),
        "core.sharding.scatter_wall_ms": _ratio(scatter_wall * 1e3, requests),
        "core.sharding.scatter_task_ms_max": _ratio(scatter_max * 1e3, requests),
        "core.sharding.scatter_overhead_ms": _ratio(
            (scatter_wall - scatter_max) * 1e3, requests),
        "core.sharding.scatter_tasks": _ratio(
            sum(span.attrs["tasks"] for span in scatters), requests),
        "service.sharded.shard_load_imbalance": _ratio(
            max(routed, default=0), float(np.mean(routed)) if routed else 0.0),
        "engine.executor.payload_bytes_per_request": _ratio(
            delta("scatter_payload_bytes"), requests),
        "engine.executor.resident_register_ms": span_ms(
            "engine.executor.resident_register"),
        "engine.executor.shm_residue": float(shm_residue),
        "service.updates.apply_ms": _ratio(
            sum(result.update_seconds for result in results) * 1e3,
            len(results)),
        "core.reachability.routing_ms": _ratio(
            sum(result.routing_seconds for result in results) * 1e3,
            len(results)),
        "service.updates.affected_rows": _ratio(
            sum(result.affected_rows for result in results), len(results)),
        "service.updates.edges_added": _ratio(
            sum(result.edges_added for result in results), len(results)),
        "service.updates.update_p50_ms": _percentile(update_ms, 50),
        "service.updates.update_p90_ms": _percentile(update_ms, 90),
        "service.updates.query_p95_after_storm_ms":
            _percentile(after_storm_ms, 95),
        "service.http.roundtrip_ms": roundtrip_ms,
        "service.http.encode_ms": span_ms("service.http.encode"),
        "service.http.overhead_ms": roundtrip_ms - served_ms if http else 0.0,
        "service.coalesce.wait_ms":
            float(np.mean(submit_seconds)) * 1e3 - served_ms if http else 0.0,
        "service.coalesce.submissions_per_batch": _ratio(
            delta("submissions", "coalescer"), delta("batches", "coalescer")),
        "service.coalesce.rejected":
            float(delta("rejected_submissions", "coalescer")),
        "service.sharded.run_batch_ms": span_ms("service.sharded.run_batch"),
        "service.sharded.self_ms": _ratio(run_batch_self * 1e3, requests),
        "query_p99_ms": _percentile(latencies_ms, 99),
        "trace_overhead_share": trace_overhead_share,
    }
    units = per_layer_units()
    if set(values) != set(units):
        raise RuntimeError("per-layer metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if unit == "s":
            value /= setup_slowdown
        elif unit in ("ms", "us"):
            value /= slowdown
        metrics[name] = (value, unit)
    return metrics
