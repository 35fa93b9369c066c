#!/usr/bin/env python3
"""Update-routing smoke: both reachability modes, bitwise-compared.

Drives two identically seeded incremental walkers — one with
``reachability="bfs"`` (the frontier-sweep oracle), one with
``reachability="interval"`` (the pre-order window labels) — through the same
storm of edge batches on a tiny graph, asserting after *every* batch that

* the affected-source sets are identical,
* the maintained linear systems are byte-equal (data/indices/indptr),
* the solved index diagonals are byte-equal,
* a per-node distribution cache invalidated with each mode's affected set
  loses exactly the same keys,
* the graph ``DiGraph.with_edges`` merged equals the constructor's on the
  union (all four CSR arrays), and
* the phases the walker reports (graph / routing / rows / splice / solve)
  add up to within 10 % of its ``update_seconds``.

This is the cheap always-on guard for the switch's core contract: the
interval path may only ever be a faster route to the *identical* result.
It also prints the per-phase cost of the storm, so a regression in the
update path shows without a profiler.
Exit code 0 on success, 1 on any divergence; runs in a couple of seconds.

Usage::

    python scripts/update_routing_smoke.py
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
    from repro.core.incremental import PHASES, IncrementalCloudWalker
    from repro.graph import generators
    from repro.graph.digraph import DiGraph

    params = SimRankParams(c=0.6, walk_steps=WALK_STEPS, jacobi_iterations=3,
                           index_walkers=10, query_walkers=10, seed=7)
    graph = generators.copying_model_graph(N_NODES, out_degree=4, seed=7)
    rng = np.random.default_rng(7)
    hot = rng.permutation(N_NODES)[: N_NODES // 10]

    walkers = {}
    for mode in ("bfs", "interval"):
        walker = IncrementalCloudWalker(
            graph, params=params, stream_per_source=True, warm_start=False,
            reachability=mode,
        )
        walker.build()
        walkers[mode] = walker

    failures = 0
    phase_totals = dict.fromkeys(PHASES, 0.0)
    for step in range(N_BATCHES):
        batch = []
        while len(batch) < EDGES_PER_BATCH:
            u = int(rng.integers(0, N_NODES))
            v = int(rng.choice(hot))
            if u != v:
                batch.append((u, v))
        union = DiGraph(N_NODES, np.vstack(
            [walkers["interval"].graph.edge_array(), np.asarray(batch)]))
        infos = {mode: walkers[mode].add_edges(batch)
                 for mode in ("bfs", "interval")}
        for mode, info in infos.items():
            merged = walkers[mode].graph
            if not all(np.array_equal(ours, theirs) for ours, theirs in zip(
                    merged.resident_export()[1], union.resident_export()[1])):
                print(f"FAIL batch {step}: {mode} graph differs from the "
                      f"constructor's", file=sys.stderr)
                failures += 1
            accounted = sum(info[phase] for phase in PHASES)
            if abs(accounted - info["update_seconds"]) > 0.1 * info["update_seconds"]:
                print(f"FAIL batch {step}: {mode} phases cover "
                      f"{accounted:.6f}s of {info['update_seconds']:.6f}s",
                      file=sys.stderr)
                failures += 1
        for phase in PHASES:
            phase_totals[phase] += infos["interval"][phase]
        if infos["bfs"]["affected"] != infos["interval"]["affected"]:
            print(f"FAIL batch {step}: affected sets differ", file=sys.stderr)
            failures += 1
        evictions = {
            mode: frozenset(
                node for node in range(walkers[mode].graph.n_nodes)
                if node in infos[mode]["affected"]
            )
            for mode in ("bfs", "interval")
        }
        if evictions["bfs"] != evictions["interval"]:
            print(f"FAIL batch {step}: cache evictions differ",
                  file=sys.stderr)
            failures += 1
        left, right = walkers["bfs"], walkers["interval"]
        if not (np.array_equal(left.system.data, right.system.data)
                and np.array_equal(left.system.indices, right.system.indices)
                and np.array_equal(left.system.indptr, right.system.indptr)):
            print(f"FAIL batch {step}: linear systems diverged",
                  file=sys.stderr)
            failures += 1
        if not np.array_equal(left.index.diagonal, right.index.diagonal):
            print(f"FAIL batch {step}: index diagonals diverged",
                  file=sys.stderr)
            failures += 1

    if failures:
        print(f"update-routing smoke: {failures} divergence(s)",
              file=sys.stderr)
        return 1
    print(f"update-routing smoke: {N_BATCHES} batches, both modes "
          f"bitwise-identical (graph {N_NODES} nodes, T={WALK_STEPS})")
    print("update-routing smoke: interval-mode ms per batch: " + ", ".join(
        f"{phase[:-len('_seconds')]} {seconds / N_BATCHES * 1e3:.2f}"
        for phase, seconds in phase_totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
