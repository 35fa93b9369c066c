#!/usr/bin/env python3
"""The spine benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/spine/run.py --workload zipf_hot --seed 0 \\
        --seconds 18 --trace 0 [--out results.jsonl] [--toy]

One run = set-up (repeated, median reported) -> untimed warm-up -> a timed
closed loop of ``--seconds`` -> answer check against a from-scratch
single-shard replay.  ``--trace 0`` reports the end-to-end metrics, measured
with no instrumentation; ``--trace 1`` records spans around each layer's
public entry points for the middle three quarters of the time (the first and
last eighth stay untraced, to price the wrappers) and reports the per-layer
metrics.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Exit code 0 only when every check passed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.service import QueryService, parse_query  # noqa: E402
from repro.service.http import encode_answer  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import spans as tracing  # noqa: E402
import targets  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME,
    CHECKED_REQUESTS,
    FULL,
    SEGMENTS,
    TOY,
    WORKLOADS,
    Request,
    Scale,
    Workload,
)

Metric = layers.Metric

#: Checksums of the first CHECKED_REQUESTS timed requests at PINNED_SEED,
#: full scale — any change means the served answers changed.
PINNED_SEED = 0
PINNED_PATH = HERE / "pinned_checksums.json"
#: Share of ``--seconds`` a traced run spends untraced (half before, half
#: after the traced slice), to measure what the wrappers cost.
UNTRACED_SHARE = 0.25
#: Calibration samples taken before and after each set-up repeat.
SETUP_CALIBRATION_BURST = 10


@dataclass
class Sample:
    """One operation of a timed phase as its client saw it."""

    index: int
    request: Request
    reply: targets.Reply
    slowdown: float = 1.0       # host slowdown around it (see hostspeed)

    @property
    def raw_seconds(self) -> float:
        return self.reply.end - self.reply.start

    @property
    def seconds(self) -> float:
        """Stopwatch time at the reference host's nominal speed."""
        return self.raw_seconds / self.slowdown

    @property
    def answered(self) -> bool:
        return self.request.kind == "query" and self.reply.ok


def run_phase(target: Any, requests: List[Request], first: int,
              seconds: Optional[float], digest_until: int) -> List[Sample]:
    """Closed loop: each client sends its next request when the previous
    one returned, until the time is up or the stream is exhausted.

    Every ``target.calibrate_every`` requests the clients meet at a
    barrier — nothing is in flight, the service is idle — and one of them
    runs the host-speed kernel.  Returns the samples in completion order,
    each with the host slowdown measured nearest to it.
    """
    deadline = None if seconds is None else time.perf_counter() + seconds
    samples: List[Sample] = []
    calibrations: List[Tuple[float, float]] = []
    lock = threading.Lock()
    quiet = threading.Barrier(target.clients)
    cursor = [first]

    def client() -> None:
        sent = 0
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests) or (
                        deadline is not None
                        and time.perf_counter() >= deadline):
                    quiet.abort()      # the others must not wait for us
                    return
                cursor[0] += 1
            request = requests[index]
            try:
                reply = target.send(request, index, index < digest_until)
            except Exception as exc:  # noqa: BLE001 — counted, not fatal
                now = time.perf_counter()
                reply = targets.Reply(now, now, False,
                                      error=f"{type(exc).__name__}: {exc}")
            samples.append(Sample(index, request, reply))
            sent += 1
            if sent % target.calibrate_every == 0:
                try:
                    if quiet.wait() == 0:
                        for _ in range(target.calibrate_every):
                            calibrations.append((time.perf_counter(),
                                                 hostspeed.sample()))
                    quiet.wait()
                except threading.BrokenBarrierError:
                    pass               # a client finished: phase is ending

    threads = [threading.Thread(target=client) for _ in range(target.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda sample: sample.reply.end)
    times = [when for when, _ in calibrations]
    values = [value for _, value in calibrations]
    for sample in samples:
        sample.slowdown = hostspeed.slowdown_at(sample.reply.end, times, values)
    return samples


def segment_medians(samples: List[Sample], clients: int) -> Dict[str, float]:
    """qps / p50 / p90 per segment, then the median over the segments.

    Operations (in completion order) are cut into ``SEGMENTS`` equal
    slices.  A slice's throughput is queries answered over the time its
    clients spent waiting for replies (update time included), so client
    think time — parsing, digesting, calibrating — is not charged to the
    service.  Both readings are given: host-speed-normalised and raw.
    """
    per_segment: Dict[str, List[float]] = {}
    for chunk in np.array_split(np.arange(len(samples)), SEGMENTS):
        ops = [samples[position] for position in chunk]
        answered = [sample for sample in ops if sample.answered]
        if not answered:
            continue
        queries = sum(len(sample.request.lines) for sample in answered)
        for prefix, seconds in (("", lambda sample: sample.seconds),
                                ("raw_", lambda sample: sample.raw_seconds)):
            latencies = [seconds(sample) * 1e3 for sample in answered]
            busy = sum(seconds(sample) for sample in ops) / clients
            for key, value in ((prefix + "qps", queries / busy),
                               (prefix + "p50", np.percentile(latencies, 50)),
                               (prefix + "p90", np.percentile(latencies, 90))):
                per_segment.setdefault(key, []).append(float(value))
    return {key: float(np.median(values))
            for key, values in per_segment.items()}


def reference_digests(target: Any, requests: List[Request]) -> List[str]:
    """Digests of ``requests`` replayed on a from-scratch single-shard
    ``QueryService`` over the same generated graph."""
    reference = QueryService.build(target.graph, target.params)
    digests = []
    for request in requests:
        if request.kind == "update":
            result = reference.add_edges(list(request.edges))
            digests.append(
                targets.digest_update(result, reference.index_version))
        else:
            queries = [parse_query(line) for line in request.lines]
            answers = reference.run_batch(queries)
            digests.append(targets.digest_answers(
                [encode_answer(query, answer)
                 for query, answer in zip(queries, answers)]))
    return digests


def split_warmup(requests: List[Request], count: int) -> int:
    """Index where the timed stream starts: after ``count`` query requests."""
    seen = 0
    for position, request in enumerate(requests):
        if seen == count:
            return position
        seen += request.kind == "query"
    return len(requests)


@dataclass
class Measurement:
    """Everything one run observed, before any judgement."""

    target: Any
    requests: List[Request]
    setup_seconds: List[float]          # normalised, one per repeat
    setup_slowdown: float               # of the last repeat
    warmup: List[Sample]
    untraced: List[Sample]              # the whole timed phase when untraced
    traced: List[Sample]
    stats_start: Dict[str, Any]         # before / after the timed phase
    stats_end: Dict[str, Any]
    stats_traced: Tuple[Dict[str, Any], Dict[str, Any]]   # around the slice
    rss_mb: float
    close_outcomes: List[Dict[str, Any]]
    setup_spans: List[tracing.Span]
    spans: List[tracing.Span]


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            scale: Scale) -> Measurement:
    """Set-up (repeated) -> warm-up -> timed phase(s) -> close."""
    requests = workload.requests(seed, scale)
    timed_from = split_warmup(requests, scale.warmup_requests)
    digest_until = timed_from + CHECKED_REQUESTS
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer) if trace else (lambda: None)
    target = None
    close_outcomes = []
    try:
        # Set-up, several times over so one slow fork or page-cache miss
        # does not decide the figure; the last instance is the one measured.
        setup_seconds: List[float] = []
        for repeat in range(scale.setup_repeats):
            last = repeat == scale.setup_repeats - 1
            burst = [hostspeed.sample() for _ in range(SETUP_CALIBRATION_BURST)]
            tracer.enabled = trace and last
            start = time.perf_counter()
            if workload.transport == "http":
                target = targets.HttpTarget(workload, scale, seed, trace)
            else:
                target = targets.InProcessTarget(workload, scale, seed, tracer)
            elapsed = time.perf_counter() - start
            tracer.enabled = False
            burst += [hostspeed.sample() for _ in range(SETUP_CALIBRATION_BURST)]
            setup_slowdown = hostspeed.slowdown(burst)
            setup_seconds.append(elapsed / setup_slowdown)
            if not last:
                close_outcomes.append(target.close())
                target = None
        setup_spans, tracer.spans = tracer.spans, []

        warmup = run_phase(
            target, [request for request in requests[:timed_from]
                     if request.kind == "query"], 0, None, 0)
        stats_start = target.stats()
        stats_traced = (stats_start, stats_start)
        traced: List[Sample] = []
        traced_from = 0.0
        if trace:
            # Untraced - traced - untraced, so a drift along the stream
            # (caches filling, the graph growing) weighs on both alike and
            # the difference in mean latency is what the wrappers cost.
            def set_tracing(enabled: bool) -> None:
                tracer.enabled = enabled
                if workload.transport == "http":
                    target.toggle_tracing()

            edge = seconds * UNTRACED_SHARE / 2
            untraced = run_phase(target, requests, timed_from, edge,
                                 digest_until)
            before = target.stats()
            set_tracing(True)
            traced_from = time.perf_counter()
            traced = run_phase(target, requests, timed_from + len(untraced),
                               seconds - 2 * edge, digest_until)
            set_tracing(False)
            stats_traced = (before, target.stats())
            untraced += run_phase(
                target, requests, timed_from + len(untraced) + len(traced),
                edge, digest_until)
        else:
            untraced = run_phase(target, requests, timed_from, seconds,
                                 digest_until)
        stats_end = target.stats()
        rss_mb = targets.peak_rss_mb(target.pids())
    finally:
        uninstall()
        if target is not None:
            close_outcomes.append(target.close())
    spans = [span for span in
             tracer.spans + close_outcomes[-1].pop("spans", [])
             if span.start >= traced_from]
    return Measurement(target, requests, setup_seconds, setup_slowdown,
                       warmup, untraced, traced, stats_start, stats_end,
                       stats_traced, rss_mb, close_outcomes, setup_spans,
                       spans)


def check(run: Measurement, workload: Workload, seed: int, scale: Scale,
          shm_residue: int, leftover_children: List[int]
          ) -> Tuple[List[str], int, Dict[str, Any]]:
    """Every correctness check; returns (problems, failed requests, facts)."""
    problems: List[str] = []
    for position, outcome in enumerate(run.close_outcomes):
        if not outcome.get("graceful", True):
            problems.append(f"server {position} did not shut down "
                            f"gracefully: {outcome}")
    problems += [f"warm-up request {sample.index}: {sample.reply.error}"
                 for sample in run.warmup if not sample.reply.ok]
    samples = sorted(run.untraced + run.traced,
                     key=lambda sample: sample.reply.end)
    failed = 0
    for sample in samples:
        if not sample.reply.ok:
            failed += 1
            problems.append(f"request {sample.index}: {sample.reply.error}")

    checked = sorted((sample for sample in samples
                      if sample.reply.digest is not None),
                     key=lambda sample: sample.index)
    expected = reference_digests(run.target,
                                 [sample.request for sample in checked])
    for sample, digest in zip(checked, expected):
        if sample.reply.digest != digest:
            failed += 1
            problems.append(f"request {sample.index}: answers differ from "
                            "the single-shard reference replay")
    prefix_checksum = hashlib.sha256(
        "\n".join(sample.reply.digest for sample in checked).encode("ascii")
    ).hexdigest()
    pinned = None
    if (scale is FULL and seed == PINNED_SEED
            and len(checked) == CHECKED_REQUESTS and PINNED_PATH.exists()):
        pinned = json.loads(PINNED_PATH.read_text()).get(workload.name)
        if pinned is not None and pinned != prefix_checksum:
            problems.append(f"answer checksum {prefix_checksum} differs from "
                            f"the pinned {pinned}")

    versions = [sample.reply.index_version for sample in samples
                if sample.reply.ok]
    updates_applied = (run.stats_end["updates_applied"]
                       - run.stats_start["updates_applied"])
    if any(later < earlier for earlier, later in zip(versions, versions[1:])):
        problems.append("index_version went backwards")
    if versions and max(versions) != 1 + updates_applied:
        problems.append(f"index_version ends at {max(versions)} after "
                        f"{updates_applied} applied updates")

    hits = run.stats_end["cache_hits"] - run.stats_start["cache_hits"]
    misses = run.stats_end["cache_misses"] - run.stats_start["cache_misses"]
    observed = {
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "updates_sent": sum(sample.request.kind == "update"
                            for sample in samples),
        "updates_applied": updates_applied,
        "serve_backend": run.stats_end.get("serve_backend"),
    }
    if scale.enforce_preconditions:
        complaint = workload.precondition(observed)
        if complaint:
            problems.append(f"precondition: {complaint}")
    if shm_residue:
        problems.append(f"{shm_residue} /dev/shm/psm_* segments left behind")
    if leftover_children:
        problems.append(f"child processes left behind: {leftover_children}")
    return problems, failed, {
        "observed": observed, "prefix_checksum": prefix_checksum,
        "pinned_checksum": pinned, "timed_requests": len(samples),
        "stream_exhausted": bool(samples) and max(
            sample.index for sample in samples) == len(run.requests) - 1,
    }


def end_to_end_metrics(run: Measurement) -> Tuple[Dict[str, Metric],
                                                  Dict[str, Any]]:
    """The five stopwatch metrics, plus their unnormalised readings."""
    clients = run.target.clients
    medians = segment_medians(run.untraced, clients)
    warmup_seconds = sum(sample.seconds for sample in run.warmup) / clients
    metrics = {
        # Median construction time plus the one warm-up pass: work moved
        # into either (a pre-filled cache, lazy initialisation) shows here.
        "setup_s": (float(np.median(run.setup_seconds)) + warmup_seconds, "s"),
        "query_qps": (medians["qps"], "queries/s"),
        "query_p50_ms": (medians["p50"], "ms"),
        "query_p90_ms": (medians["p90"], "ms"),
        "peak_rss_mb": (run.rss_mb, "MB"),
    }
    return metrics, {
        "setup_s_each": run.setup_seconds, "warmup_s": warmup_seconds,
        "raw_query_qps": medians["raw_qps"],
        "raw_query_p50_ms": medians["raw_p50"],
        "raw_query_p90_ms": medians["raw_p90"],
        "host_slowdown": float(np.median(
            [sample.slowdown for sample in run.untraced])),
    }


def per_layer_metrics(run: Measurement, workload: Workload, shm_residue: int
                      ) -> Tuple[Dict[str, Metric], Dict[str, Any], List[str]]:
    """The traced slice's per-layer metrics; writes the span file."""
    def mean_latency(part: List[Sample]) -> float:
        values = [sample.seconds for sample in part if sample.answered]
        return float(np.mean(values)) if values else 0.0

    problems = []
    share = layers.subtree_self_share(run.spans, "service.sharded.run_batch")
    if run.spans and not 0.9 <= share <= 1.1:
        problems.append(f"span self times cover {share:.2f} of run_batch "
                        "time (expected 1.0)")
    base = mean_latency(run.untraced)
    slowdown = (float(np.median([sample.slowdown for sample in run.traced]))
                if run.traced else 1.0)
    metrics = layers.per_layer_metrics(
        target=run.target, setup_spans=run.setup_spans, spans=run.spans,
        samples=run.traced, stats_before=run.stats_traced[0],
        stats_after=run.stats_traced[1], shm_residue=shm_residue,
        trace_overhead_share=(mean_latency(run.traced) / base - 1.0
                              if base else 0.0),
        slowdown=slowdown, setup_slowdown=run.setup_slowdown,
    )
    targets.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = targets.RESULTS_DIR / f"{workload.name}.spans.jsonl"
    tracing.dump_spans(run.setup_spans + run.spans, spans_path)
    return metrics, {
        "run_batch_self_time_share": share, "spans": len(run.spans),
        "spans_file": str(spans_path), "host_slowdown": slowdown,
        "setup_host_slowdown": run.setup_slowdown,
    }, problems


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 scale: Scale = FULL) -> Dict[str, Any]:
    """One complete run; returns the result record (see ``--out``)."""
    shm_before = targets.shm_segments()
    children_before = set(targets.child_pids(os.getpid()))
    load_average = os.getloadavg()[0]
    run = measure(workload, seed, seconds, trace, scale)
    shm_residue = len(targets.shm_segments() - shm_before)
    leftover = sorted(set(targets.child_pids(os.getpid())) - children_before)
    problems, failed, diagnostics = check(run, workload, seed, scale,
                                          shm_residue, leftover)
    if trace:
        metrics, facts, more = per_layer_metrics(run, workload, shm_residue)
        problems += more
    else:
        metrics, facts = end_to_end_metrics(run)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": not problems,
        "attempted": len(run.untraced) + len(run.traced), "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "diagnostics": {**diagnostics, **facts},
        "config": host_and_config(scale, load_average),
    }


def host_and_config(scale: Scale, load_average: float) -> Dict[str, Any]:
    """What two result files must share before their numbers compare."""
    try:
        # The ceiling keeps git from adopting a repository *around* an
        # exported checkout and reporting that one's commit.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(HERE), text=True,
            capture_output=True, check=True,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": str(targets.ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None                           # not a git checkout
    return {
        "nproc": os.cpu_count(), "load_average_1m_at_start": load_average,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_sha": sha, "scale": scale.name, "nodes": scale.nodes,
        "params": repr(scale.params()),
        "warmup_requests": scale.warmup_requests,
        "stream_requests": {"in-process": scale.in_process_requests,
                            "http": scale.http_requests},
        "setup_repeats": scale.setup_repeats, "segments": SEGMENTS,
        "checked_requests": CHECKED_REQUESTS,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*BY_NAME, "all"])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: install span wrappers, report per-layer "
                             "metrics instead of end-to-end ones")
    parser.add_argument("--out", help="append each run's full record to "
                                      "this JSONL file (input of compare.py)")
    parser.add_argument("--toy", action="store_true",
                        help="300-node smoke size; numbers mean nothing")
    args = parser.parse_args(argv)

    if args.workload == "all":
        # One process per workload, exactly as the driver runs them: peak
        # RSS is a per-process high-water mark and must not carry over.
        forwarded = sys.argv[1:] if argv is None else list(argv)
        codes = [subprocess.run([sys.executable, str(HERE / "run.py"),
                                 *forwarded, "--workload", workload.name]
                                ).returncode
                 for workload in WORKLOADS]
        return max(codes)

    record = run_workload(BY_NAME[args.workload], args.seed, args.seconds,
                          bool(args.trace), TOY if args.toy else FULL)
    print(f"== {args.workload} seed={args.seed} trace={args.trace} "
          f"({record['attempted']} requests, {record['failed']} failed)")
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in record["problems"][:20]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, default=str) + "\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
