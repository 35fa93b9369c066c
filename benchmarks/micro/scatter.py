#!/usr/bin/env python3
"""Microbenchmark: where a batch's cache misses should be walked.

Times :func:`repro.service.sharded.simulate_misses` on every backend of
:data:`repro.engine.executor.BACKENDS` (``serial`` and ``processes``) over
a grid of (walkers, misses) cells, at the spine's size: 10 000 nodes of a
copying-model graph of out-degree 5 and the spine's walk parameters
(T = 10), with two pool workers.  On ``serial`` the misses are walked
inline; on the pool the scatter grain is lowered to one walker-step for
the timing, so every batch crosses as ``min(workers, misses)`` runs.  The
distributions are checked equal across the backends before timing.

Each cell's record carries the walker-steps per pool run
(``misses × walkers × (T + 1) / workers``) beside the timings, and the
runs the default :data:`~repro.service.sharded.SCATTER_GRAIN` picks for
it: the cell where the pool starts to win is the grain.  In the manner of
snippet 2 (``SNIPPETS.md``), each backend reports its first call apart from
its steady state — on ``processes`` the first call forks the pool and
exports the graph to shared memory — and the steady state is ``timeit``'s
``autorange`` loop count with the minimum over the repeats.  One JSONL
record per cell goes to stdout, and is appended to ``--out`` when given.

Usage::

    PYTHONPATH=src python benchmarks/micro/scatter.py
    PYTHONPATH=src python benchmarks/micro/scatter.py --nodes 300 --out micro.jsonl
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import timeit
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from repro.config import SimRankParams  # noqa: E402
from repro.engine.executor import BACKENDS, make_backend  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.service import sharded  # noqa: E402

#: The spine's walk parameters (``benchmarks/spine/workloads.py``).
PARAMS = SimRankParams(c=0.6, walk_steps=10, jacobi_iterations=3,
                       index_walkers=100, query_walkers=1000, seed=0)
OUT_DEGREE = 5
WORKERS = 2
#: ``(walkers, misses)`` cells, in increasing walker-steps per run.
GRID: Tuple[Tuple[int, int], ...] = (
    (1_000, 8), (1_000, 32), (3_000, 32), (1_000, 128), (10_000, 32),
    (3_000, 128),
)
REPEATS = 7


def _steady_seconds(func: Callable[[], Any]) -> float:
    """Per-call seconds: ``autorange``'s loop count, min over repeats."""
    timer = timeit.Timer(func)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=REPEATS, number=number)) / number


def _first_seconds(func: Callable[[], Any]) -> float:
    started = time.perf_counter()
    func()
    return time.perf_counter() - started


def _same(left: Dict[int, Any], right: Dict[int, Any]) -> bool:
    return left.keys() == right.keys() and all(
        getattr(left[source], name).tobytes()
        == getattr(right[source], name).tobytes()
        for source in left for name in ("offsets", "nodes", "values"))


def measure(nodes: int = 10_000, seed: int = 0) -> Iterator[Dict[str, Any]]:
    """Yield one record per grid cell, timing every backend on it."""
    graph = generators.copying_model_graph(nodes, out_degree=OUT_DEGREE,
                                           seed=seed)
    rng = np.random.default_rng(seed)
    backends = {name: make_backend(name, max_workers=WORKERS)
                for name in BACKENDS}
    default_grain = sharded.SCATTER_GRAIN
    try:
        for walkers, misses in GRID:
            sources = sorted(rng.choice(graph.n_nodes, size=misses,
                                        replace=False).tolist())
            work = misses * walkers * (PARAMS.walk_steps + 1)
            record: Dict[str, Any] = {
                "kernel": "simulate_misses", "nodes": nodes,
                "walkers": walkers, "misses": misses, "workers": WORKERS,
                "work_per_run": work // min(WORKERS, misses),
                "rule_runs": sharded.scatter_runs(
                    backends["processes"], misses, walkers, PARAMS),
                "grain": default_grain,
            }
            outputs = {}
            for name, backend in backends.items():
                def call(backend=backend):
                    return sharded.simulate_misses(backend, graph, sources,
                                                   PARAMS, walkers)[0]

                sharded.SCATTER_GRAIN = 1    # every batch crosses to a pool
                try:
                    record[f"{name}_first_s"] = _first_seconds(call)
                    outputs[name] = call()
                    record[f"{name}_s"] = _steady_seconds(call)
                finally:
                    sharded.SCATTER_GRAIN = default_grain
            if not all(_same(outputs["serial"], outputs[name])
                       for name in BACKENDS):
                raise AssertionError(f"backends disagree on cell "
                                     f"{walkers} x {misses}")
            record["fastest"] = min(BACKENDS,
                                    key=lambda name: record[f"{name}_s"])
            record["host"] = platform.node()
            record["python"] = platform.python_version()
            yield record
    finally:
        for backend in backends.values():
            backend.close()


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the JSONL records to this file too")
    args = parser.parse_args(argv)
    for record in measure(args.nodes, args.seed):
        line = json.dumps(record)
        print(line, flush=True)
        if args.out is not None:
            with args.out.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
