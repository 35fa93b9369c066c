#!/usr/bin/env python3
"""Update smoke: a storm of edge batches against from-scratch builds.

Drives one incremental walker (per-source streams, cold solves — the
service's configuration) through a storm of edge batches on a tiny graph,
asserting after *every* batch that

* the graph ``DiGraph.with_edges`` merged equals the constructor's on the
  union (all four CSR arrays),
* the affected-source set is the forward ball of the new edges' heads
  (:func:`repro.core.walks.forward_reachable_set` on the merged graph),
* the maintained linear system (``indptr/indices/data``) and the solved
  diagonal are byte-equal to those of a walker built from scratch on the
  union graph, and
* the phases the walker reports (graph / routing / rows / splice / solve)
  add up to within 10 % of its ``update_seconds``.

This is the cheap always-on guard for the update path's core contract: an
update may only ever be a cheaper route to the from-scratch result.  It
also prints the per-phase cost of the storm and the microseconds per
re-estimated row (the walk kernel's per-row cost), so a regression in the
update path shows without a profiler.
Exit code 0 on success, 1 on any divergence; runs in a couple of seconds.

Usage::

    python scripts/update_smoke.py
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

N_NODES = 150
N_BATCHES = 5
EDGES_PER_BATCH = 3
WALK_STEPS = 6


def main() -> int:
    import numpy as np

    from repro.config import SimRankParams
    from repro.core import walks
    from repro.core.incremental import PHASES, IncrementalCloudWalker
    from repro.graph import generators
    from repro.graph.digraph import DiGraph

    params = SimRankParams(c=0.6, walk_steps=WALK_STEPS, jacobi_iterations=3,
                           index_walkers=10, query_walkers=10, seed=7)
    graph = generators.copying_model_graph(N_NODES, out_degree=4, seed=7)
    rng = np.random.default_rng(7)
    hot = rng.permutation(N_NODES)[: N_NODES // 10]

    def built(on_graph):
        walker = IncrementalCloudWalker(on_graph, params=params)
        walker.build()
        return walker

    walker = built(graph)
    failures = []
    phase_totals = dict.fromkeys(PHASES, 0.0)
    affected_rows = 0
    for step in range(N_BATCHES):
        batch = []
        while len(batch) < EDGES_PER_BATCH:
            u = int(rng.integers(0, N_NODES))
            v = int(rng.choice(hot))
            if u != v:
                batch.append((u, v))
        union = DiGraph(N_NODES, np.vstack(
            [walker.graph.edge_array(), np.asarray(batch)]))
        new_heads = {v for u, v in batch if not walker.graph.has_edge(u, v)}
        info = walker.add_edges(batch)
        for phase in PHASES:
            phase_totals[phase] += info[phase]
        affected_rows += info["affected_rows"]

        if not all(np.array_equal(ours, theirs) for ours, theirs in zip(
                walker.graph.resident_export()[1], union.resident_export()[1])):
            failures.append(f"batch {step}: graph differs from the constructor's")
        accounted = sum(info[phase] for phase in PHASES)
        if abs(accounted - info["update_seconds"]) > 0.1 * info["update_seconds"]:
            failures.append(f"batch {step}: phases cover {accounted:.6f}s of "
                            f"{info['update_seconds']:.6f}s")
        if info["affected"] != walks.forward_reachable_set(
                union, new_heads, WALK_STEPS):
            failures.append(f"batch {step}: affected set is not the forward ball")
        reference = built(union)
        for name in ("indptr", "indices", "data"):
            if not np.array_equal(getattr(walker.system, name),
                                  getattr(reference.system, name)):
                failures.append(f"batch {step}: system {name} differs from a "
                                f"from-scratch build")
        if not np.array_equal(walker.index.diagonal, reference.index.diagonal):
            failures.append(f"batch {step}: diagonal differs from a "
                            f"from-scratch build")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        print(f"update smoke: {len(failures)} divergence(s)", file=sys.stderr)
        return 1
    print(f"update smoke: {N_BATCHES} batches, bitwise-identical to "
          f"from-scratch builds (graph {N_NODES} nodes, T={WALK_STEPS})")
    print("update smoke: ms per batch: " + ", ".join(
        f"{phase[:-len('_seconds')]} {seconds / N_BATCHES * 1e3:.2f}"
        for phase, seconds in phase_totals.items()))
    print(f"update smoke: us per re-estimated row: "
          f"{phase_totals['rows_seconds'] / max(affected_rows, 1) * 1e6:.1f} "
          f"({affected_rows} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
