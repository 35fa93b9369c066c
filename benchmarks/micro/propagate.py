#!/usr/bin/env python3
"""Microbenchmark: single-source propagation over a batch's supports.

Times :func:`repro.core.queries.propagate_scores` — the layer the spine
traces as ``core.queries.propagate_ms``, the largest on ``uniform_cold``
and ``update_storm`` — on batches of 6 and of 32 sources of the spine's
graph: 10 000 nodes of a copying-model graph of out-degree 5, with the
spine's walk parameters (T = 10, 1 000 walkers).  Six is about what a
32-query ``uniform_cold`` batch scores (a fifth of its queries are source
or top-k queries), 32 a batch of such queries only.  Each batch's sources
are drawn uniformly, and their walk distributions are simulated once,
outside the timing.  The diagonal's values move no support, so every
node's is ``1 - c``.

In the manner of snippet 2 (``SNIPPETS.md``), the steady state is
``timeit``'s ``autorange`` loop count over all ``BATCHES`` batches of a
size, with the minimum over the repeats.  One JSONL record per batch size
goes to stdout, and is appended to ``--out`` when given.  Each record's
``scores_sha256`` digests every returned support and value, so two
checkouts' records also show whether their answers are byte-equal.

Usage::

    PYTHONPATH=src python benchmarks/micro/propagate.py
    PYTHONPATH=src python benchmarks/micro/propagate.py --nodes 300 --out micro.jsonl
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import timeit
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from repro.config import SimRankParams  # noqa: E402
from repro.core import montecarlo, queries  # noqa: E402
from repro.graph import generators  # noqa: E402

#: The spine's walk parameters (``benchmarks/spine/workloads.py``).
PARAMS = SimRankParams(c=0.6, walk_steps=10, jacobi_iterations=3,
                       index_walkers=100, query_walkers=1000, seed=0)
OUT_DEGREE = 5
BATCH_SIZES: Tuple[int, ...] = (6, 32)
BATCHES = 20
REPEATS = 5


def _steady_seconds(func: Callable[[], Any]) -> float:
    """Per-call seconds: ``autorange``'s loop count, min over repeats."""
    timer = timeit.Timer(func)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=REPEATS, number=number)) / number


def _digest(results: List[List[queries.SourceScores]]) -> str:
    digest = hashlib.sha256()
    for scores in results:
        for record in scores:
            digest.update(np.int64(record.source).tobytes())
            digest.update(np.asarray(record.nodes, dtype=np.int64).tobytes())
            digest.update(record.values.tobytes())
    return digest.hexdigest()


def measure(nodes: int = 10_000, seed: int = 0) -> Iterator[Dict[str, Any]]:
    """Yield one record per batch size."""
    graph = generators.copying_model_graph(nodes, out_degree=OUT_DEGREE,
                                           seed=seed)
    transition = graph.transition_matrix()
    transition_t = graph.transition_matrix_t()
    diagonal = np.full(nodes, 1.0 - PARAMS.c)
    rng = np.random.default_rng(seed)
    for size in BATCH_SIZES:
        batches = []
        for _ in range(BATCHES):
            sources = rng.choice(nodes, size=min(size, nodes),
                                 replace=False).tolist()
            walked = montecarlo.estimate_walk_distributions_batch(
                graph, sources, PARAMS)
            batches.append((sources, [walked[s] for s in sources]))

        def propagate() -> List[List[queries.SourceScores]]:
            return [queries.propagate_scores(
                        sources, distributions, transition, transition_t,
                        diagonal, PARAMS.c, PARAMS.walk_steps)
                    for sources, distributions in batches]

        results = propagate()
        yield {
            "kernel": "propagate_scores", "graph": "copying", "nodes": nodes,
            "sources_per_batch": size, "batches": BATCHES,
            "support_per_source": (sum(len(r.nodes) for scores in results
                                       for r in scores)
                                   / sum(map(len, results))),
            "ms_per_batch": _steady_seconds(propagate) * 1e3 / BATCHES,
            "scores_sha256": _digest(results),
            "host": platform.node(),
            "python": platform.python_version(),
        }


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
