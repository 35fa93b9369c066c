#!/usr/bin/env python3
"""Microbenchmark: proving pairs unmeetable against walking them.

Times :func:`repro.core.queries.pairs_that_can_meet` on the pair queries
the spine's ``uniform_cold`` and ``zipf_hot`` streams still walk — the
pairs :func:`~repro.core.queries.definitional_pair_score` leaves — batch
by batch, for each frontier cap in ``CAPS`` (``None``: unbounded), beside
:func:`repro.core.walks.simulate_walks_packed` on the same batches'
endpoints.  Three graphs of 10 000 nodes: the spine's copying-model
graph of out-degree 5; an Erdős–Rényi graph of the same degree, whose
level sets grow geometrically, so pairs meet within a few steps and the
test proves little: it bounds what the test costs when it does not pay;
and a dense Erdős–Rényi graph of degree ``DENSE_DEGREE``, whose step-1
level sets (the endpoints' in-lists) already outgrow a cap of 64 on most
pairs, so the test's guard skips its batches at caps 16 and 64 and not at
256 — the guarded cells.  The walk parameters are the spine's (T = 10,
1 000 walkers), and the streams are the spine's (same generator, mix,
length and seed, batches of 32), cut to their first ``REQUESTS`` batches.

Each ``(graph, stream, cap)`` cell's record carries the walked pairs, how
many the test proved unmeetable, how many batches the guard skipped, and
the per-batch milliseconds of the test and of the walks.  In the manner
of snippet 2 (``SNIPPETS.md``), the steady state is ``timeit``'s
``autorange`` loop count with the minimum over the repeats.  One JSONL
record per cell goes to stdout, and is appended to ``--out`` when given;
the cell where the share stops growing faster than the cost sized
:data:`repro.core.queries.MEET_FRONTIER_CAP`.  The dense graph's
uncapped cells take about a minute each.

Usage::

    PYTHONPATH=src python benchmarks/micro/meet.py
    PYTHONPATH=src python benchmarks/micro/meet.py --nodes 300 --out micro.jsonl
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import timeit
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from repro.config import SimRankParams  # noqa: E402
from repro.core import queries, walks  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.service import PairQuery, parse_query  # noqa: E402
from repro.service.scenarios import uniform_trace, zipf_trace  # noqa: E402

#: The spine's walk parameters (``benchmarks/spine/workloads.py``).
PARAMS = SimRankParams(c=0.6, walk_steps=10, jacobi_iterations=3,
                       index_walkers=100, query_walkers=1000, seed=0)
OUT_DEGREE = 5
#: In-degrees of about 80 sit above the default cap of 64 and below 256.
DENSE_DEGREE = 80
BATCH_SIZE = 32
#: The spine's in-process stream length, in batches: the trace generators
#: draw arrival times before sources, so only the same length gives the
#: same requests.
STREAM_BATCHES = 1800
#: The spine's two in-process read streams.
STREAMS: Dict[str, Callable[..., Any]] = {
    "uniform_cold": partial(uniform_trace, mix=(0.8, 0.1, 0.1)),
    "zipf_hot": partial(zipf_trace, skew=1.3, mix=(0.3, 0.1, 0.6)),
}
CAPS: Tuple[Optional[int], ...] = (16, 64, 256, None)
REQUESTS = 400
REPEATS = 5


def _steady_seconds(func: Callable[[], Any]) -> float:
    """Per-call seconds: ``autorange``'s loop count, min over repeats."""
    timer = timeit.Timer(func)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=REPEATS, number=number)) / number


def _graphs(nodes: int, seed: int) -> Dict[str, Any]:
    return {
        "copying": generators.copying_model_graph(nodes, out_degree=OUT_DEGREE,
                                                  seed=seed),
        "erdos_renyi": generators.erdos_renyi_graph(nodes, OUT_DEGREE,
                                                    seed=seed),
        "erdos_renyi_dense": generators.erdos_renyi_graph(
            nodes, DENSE_DEGREE, seed=seed),
    }


def _skipped(graph, sources: np.ndarray, targets: np.ndarray) -> bool:
    """Whether the test's guard skips this batch at the current cap: most
    pairs have two non-empty in-lists, one longer than the cap."""
    degree = np.diff(graph.in_csr[0])
    left, right = degree[sources], degree[targets]
    wide = ((np.minimum(left, right) > 0)
            & (np.maximum(left, right) > queries.MEET_FRONTIER_CAP))
    return 2 * int(wide.sum()) > len(sources)


def _walked_pairs(graph, stream: str, seed: int
                  ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per batch, the ``(sources, targets)`` of the pairs still walked."""
    trace = STREAMS[stream](graph.n_nodes,
                            n_events=STREAM_BATCHES * BATCH_SIZE, seed=seed)
    lines = [event.query for event in trace.events[:REQUESTS * BATCH_SIZE]]
    batches = []
    for start in range(0, len(lines), BATCH_SIZE):
        pairs = [(query.source, query.target)
                 for query in map(parse_query, lines[start:start + BATCH_SIZE])
                 if isinstance(query, PairQuery)
                 and queries.definitional_pair_score(
                     graph, query.source, query.target) is None]
        ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        batches.append((ends[:, 0], ends[:, 1]))
    return batches


def measure(nodes: int = 10_000, seed: int = 0) -> Iterator[Dict[str, Any]]:
    """Yield one record per ``(graph, stream, cap)`` cell."""
    steps = PARAMS.walk_steps
    default_cap = queries.MEET_FRONTIER_CAP
    for graph_name, graph in _graphs(nodes, seed).items():
        for stream in STREAMS:
            batches = _walked_pairs(graph, stream, seed)
            endpoints = [np.unique(np.concatenate(pair)) for pair in batches]

            def simulate() -> None:
                for sources in endpoints:
                    for _block in walks.simulate_walks_packed(
                            graph, sources, PARAMS.query_walkers, steps,
                            PARAMS.seed):
                        pass

            def test() -> List[np.ndarray]:
                return [queries.pairs_that_can_meet(graph, sources, targets,
                                                    steps)
                        for sources, targets in batches]

            simulate_ms = _steady_seconds(simulate) * 1e3 / len(batches)
            walked = sum(len(sources) for sources, _targets in batches)
            for cap in CAPS:
                queries.MEET_FRONTIER_CAP = nodes if cap is None else cap
                try:
                    proven = sum(int((~verdict).sum()) for verdict in test())
                    skipped = sum(_skipped(graph, *pair) for pair in batches)
                    test_ms = _steady_seconds(test) * 1e3 / len(batches)
                finally:
                    queries.MEET_FRONTIER_CAP = default_cap
                yield {
                    "kernel": "pairs_that_can_meet", "graph": graph_name,
                    "stream": stream, "nodes": nodes, "cap": cap,
                    "requests": len(batches), "walked_pairs": walked,
                    "unmeetable_pairs": proven,
                    "unmeetable_share": proven / walked if walked else 0.0,
                    "skipped_batches": skipped,
                    "sources_per_batch": (sum(map(len, endpoints))
                                          / len(batches)),
                    "test_ms_per_batch": test_ms,
                    "simulate_ms_per_batch": simulate_ms,
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
