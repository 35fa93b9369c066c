#!/usr/bin/env python3
"""Update smoke: a storm of edge batches against from-scratch builds.

Drives the index maintainer (:class:`repro.core.sharding.
ShardedIncrementalWalker`, per-source streams, cold solves — the service's
configuration) through a storm of edge batches on a tiny graph, once in
one row task and once in three, asserting after *every* batch that

* the graph ``DiGraph.with_edges`` merged equals the constructor's on the
  union (all four CSR arrays),
* the affected-source set is the forward ball of the new edges' heads
  (:func:`repro.core.walks.forward_reachable_set` on the merged graph),
  and the rows the walker re-estimated lie inside it (the ball holds
  every new node),
* the maintained linear system (``indptr/indices/data``) is byte-equal to
  a from-scratch :func:`repro.core.linear_system.build_system` on the union
  graph,
* the maintained diagonal is byte-equal to the reproduction side's
  single-machine index (:func:`repro.core.diagonal.build_diagonal_index`)
  of the union graph, so serving and reproduction agree, and
* the phases the walker reports on its ``MutationResult`` (graph / routing
  / rows / splice / solve) add up to within 10 % of its ``update_seconds``.

This is the cheap always-on guard for the update path's core contract: an
update may only ever be a cheaper route to the from-scratch result.  It
also prints, per task count, the per-phase cost of the storm and the
microseconds per re-estimated row (the walk kernel's per-row cost, over
``MutationResult.estimated_rows``), so a regression in the update path
shows without a profiler.

A last leg drives one snapshot lineage through the CLI, one process per
command: ``index --shards 3``, an ``update --shards 3`` into
``--snapshot-dir D``, a second ``update`` restarted from ``D`` at the
default K = 1 and one more ``update``.  It asserts that ``D`` holds only
``index-``/``system-v*`` files, two per version, that ``snapshot list``
lists those versions, and that the newest diagonal is byte-equal to a
from-scratch build on the final graph.
Exit code 0 on success, 1 on any divergence; runs in a few seconds.

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
SHARD_COUNTS = (1, 3)


def storm(num_shards: int) -> int:
    """Run the storm in ``num_shards`` row tasks; print its costs; 0 = pass."""
    import numpy as np

    from repro.config import SimRankParams
    from repro.core import linear_system, walks
    from repro.core.diagonal import build_diagonal_index
    from repro.core.sharding import PHASES, ShardedIncrementalWalker
    from repro.graph import generators
    from repro.graph.digraph import DiGraph

    params = SimRankParams(c=0.6, walk_steps=WALK_STEPS, jacobi_iterations=3,
                           index_walkers=10, query_walkers=10, seed=7)
    graph = generators.copying_model_graph(N_NODES, out_degree=4, seed=7)
    rng = np.random.default_rng(7)
    hot = rng.permutation(N_NODES)[: N_NODES // 10]

    walker = ShardedIncrementalWalker(graph, num_shards, params=params)
    walker.build()
    failures = []
    phase_totals = dict.fromkeys(PHASES, 0.0)
    affected_rows = estimated_rows = 0
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
        result = walker.add_edges(batch)
        if result is None:
            failures.append(f"batch {step}: no new edge in a fresh batch")
            continue
        for phase in PHASES:
            phase_totals[phase] += getattr(result, phase)
        affected_rows += result.affected_rows
        estimated_rows += result.estimated_rows

        if not all(np.array_equal(ours, theirs) for ours, theirs in zip(
                walker.graph.resident_export()[1], union.resident_export()[1])):
            failures.append(f"batch {step}: graph differs from the constructor's")
        accounted = sum(getattr(result, phase) for phase in PHASES)
        if abs(accounted - result.update_seconds) > 0.1 * result.update_seconds:
            failures.append(f"batch {step}: phases cover {accounted:.6f}s of "
                            f"{result.update_seconds:.6f}s")
        if result.affected != walks.forward_reachable_set(
                union, new_heads, WALK_STEPS):
            failures.append(f"batch {step}: affected set is not the forward ball")
        if not result.estimated <= result.affected:
            failures.append(f"batch {step}: re-estimated rows outside the ball")
        system = linear_system.build_system(union, params)
        for name in ("indptr", "indices", "data"):
            if (getattr(walker.system, name).tobytes()
                    != getattr(system, name).tobytes()):
                failures.append(f"batch {step}: system {name} differs from a "
                                f"from-scratch build")
        if walker.index.diagonal.tobytes() != build_diagonal_index(
                union, params).diagonal.tobytes():
            failures.append(f"batch {step}: diagonal differs from "
                            f"build_diagonal_index")

    label = f"update smoke (K={num_shards})"
    for failure in failures:
        print(f"FAIL {label}: {failure}", file=sys.stderr)
    if failures:
        print(f"{label}: {len(failures)} divergence(s)", file=sys.stderr)
        return 1
    print(f"{label}: {N_BATCHES} batches, bitwise-identical to from-scratch "
          f"builds and build_diagonal_index (graph {N_NODES} nodes, "
          f"T={WALK_STEPS})")
    print(f"{label}: ms per batch: " + ", ".join(
        f"{phase[:-len('_seconds')]} {seconds / N_BATCHES * 1e3:.2f}"
        for phase, seconds in phase_totals.items()))
    print(f"{label}: us per re-estimated row: "
          f"{phase_totals['rows_seconds'] / max(estimated_rows, 1) * 1e6:.1f} "
          f"({estimated_rows} of {affected_rows} affected rows)")
    return 0


def _cli(*args: str) -> str:
    """Run ``python -m repro ARGS`` in a child process; its stdout."""
    import os
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "repro", *args], env=env,
                          capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"repro {' '.join(args)} exited "
                           f"{done.returncode}:\n{done.stdout}{done.stderr}")
    return done.stdout


def lineage() -> int:
    """The CLI lineage leg (module docstring); 0 = pass."""
    import re
    import tempfile

    from repro.core.diagonal import build_diagonal_index
    from repro.core.index import DiagonalIndex, SnapshotStore
    from repro.graph import io as graph_io

    failures = []
    with tempfile.TemporaryDirectory(prefix="update-smoke-") as tmp:
        root = Path(tmp)
        snaps = root / "snaps"
        graph, index = root / "g0.tsv", root / "index.npz"
        _cli("generate", "--model", "copying", "--nodes", str(N_NODES),
             "--degree", "4", "--seed", "7", "--output", str(graph))
        _cli("index", "--graph", str(graph), "--output", str(index),
             "--shards", "3", "--walkers", "10", "--query-walkers", "10",
             "--steps", str(WALK_STEPS))
        batches = ["3 40\n7 41\n", f"9 {N_NODES}\n11 12\n", "20 21\n"]
        for step, edges in enumerate(batches):
            (root / f"e{step}.tsv").write_text(edges, encoding="utf-8")
        current = graph
        for step, edges in enumerate(batches):
            updated = root / f"g{step + 1}.tsv"
            start = ["--index", str(index), "--shards", "3"] if step == 0 else []
            _cli("update", "--graph", str(current), *start,
                 "--edges", str(root / f"e{step}.tsv"),
                 "--snapshot-dir", str(snaps), "--output-graph", str(updated))
            current = updated

        store = SnapshotStore(snaps)
        versions = store.versions()
        names = sorted(path.name for path in snaps.iterdir())
        expected = sorted(
            store.index_path(v).name for v in versions) + sorted(
            store.system_path(v).name for v in versions)
        if versions != [2, 3, 4] or names != sorted(expected):
            failures.append(f"lineage holds {names}, expected two files "
                            f"for each of versions 2..4")
        listed = [int(match.group(1)) for match in re.finditer(
            r"^(\d+)\s", _cli("snapshot", "list", "--dir", str(snaps)),
            re.MULTILINE)]
        if listed != versions:
            failures.append(f"snapshot list shows {listed}, not {versions}")
        final = graph_io.read_edge_list(current, relabel=False)
        params = DiagonalIndex.load(index).params
        newest = store.load()[1].diagonal
        if newest.tobytes() != build_diagonal_index(
                final, params).diagonal.tobytes():
            failures.append("newest diagonal differs from a from-scratch "
                            "build on the final graph")

    label = "update smoke (CLI lineage, K=3)"
    for failure in failures:
        print(f"FAIL {label}: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"{label}: index, update, restarted update, update; versions {versions}, two files each, newest diagonal "
          f"bitwise-equal to a from-scratch build")
    return 0


def main() -> int:
    return max([storm(num_shards) for num_shards in SHARD_COUNTS]
               + [lineage()])


if __name__ == "__main__":
    sys.exit(main())
