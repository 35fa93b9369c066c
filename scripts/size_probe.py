#!/usr/bin/env python3
"""Size probe: how build, a cold top-k and an update grow with the graph.

For each ``--nodes`` value, in a fresh child process (so peak RSS is that
size's own), builds ``copying_model_graph(n, out_degree=5, seed=0)`` with
the spine benchmark's ``SimRankParams``, serves it from one
``QueryService`` with ``cache_capacity=0`` (every query walks, propagates
and ranks from scratch) and prints one row:

* ``n`` and ``edges``;
* ``build_s``: ``QueryService.build`` wall time (index + linear system);
* ``topk_ms``: median of 30 cold ``top_k(source, k=10)`` calls over
  sources drawn with seed 0;
* ``update_ms``: median of 8 ``add_edges`` calls of 6 random edges each;
* ``peak_rss_mb``: the process's peak resident set size.

The paper's MCSS bound does not depend on ``n``, so ``topk_ms`` should
grow far slower than the graph.  Print only; no file is written.

Usage::

    python scripts/size_probe.py --nodes 10000 100000
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

TOPK_SOURCES = 30
UPDATES = 8
EDGES_PER_UPDATE = 6
COLUMNS = ("n", "edges", "build_s", "topk_ms", "update_ms", "peak_rss_mb")


def probe(n_nodes: int) -> str:
    """Measure one size in this process; returns its formatted row."""
    import numpy as np

    from repro.config import ServiceParams, SimRankParams
    from repro.graph import generators
    from repro.service import QueryService

    graph = generators.copying_model_graph(n_nodes, out_degree=5, seed=0)
    params = SimRankParams(c=0.6, walk_steps=10, jacobi_iterations=3,
                           index_walkers=100, query_walkers=1000)
    started = time.perf_counter()
    service = QueryService.build(graph, params,
                                 ServiceParams(cache_capacity=0))
    build_s = time.perf_counter() - started
    rng = np.random.default_rng(0)
    topk_ms = []
    for source in rng.integers(0, n_nodes, TOPK_SOURCES).tolist():
        started = time.perf_counter()
        service.top_k(source, k=10)
        topk_ms.append((time.perf_counter() - started) * 1e3)
    update_ms = []
    for _ in range(UPDATES):
        edges = [tuple(pair) for pair in
                 rng.integers(0, n_nodes, (EDGES_PER_UPDATE, 2)).tolist()]
        started = time.perf_counter()
        service.add_edges(edges)
        update_ms.append((time.perf_counter() - started) * 1e3)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (f"{n_nodes:>9d} {graph.n_edges:>9d} {build_s:>9.2f} "
            f"{np.median(topk_ms):>9.2f} {np.median(update_ms):>9.1f} "
            f"{peak_rss_mb:>11.0f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[10_000],
                        help="graph sizes to probe, one child process each")
    args = parser.parse_args()
    print(" ".join(f"{name:>9}" for name in COLUMNS[:-1]),
          f"{COLUMNS[-1]:>11}", flush=True)
    for n_nodes in args.nodes:
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            print(pool.submit(probe, n_nodes).result(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
