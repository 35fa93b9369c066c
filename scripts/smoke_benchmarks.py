#!/usr/bin/env python3
"""Smoke-run every benchmark in ``benchmarks/`` at tiny sizes.

``benchmarks/*.py`` are executed rarely (they measure, so they are sized to
measure), which historically lets them rot silently when internals are
refactored: a renamed symbol or changed signature only surfaces the next
time someone runs the full benchmark suite.  This script closes that gap.
For every ``bench_*.py`` it

1. imports the module (catching import-time rot), and
2. runs the module's experiment entry point with tiny inputs — module-level
   size constants are temporarily patched down, experiment functions get
   miniature arguments — asserting a non-empty result shape.

Performance *gates* (minimum speedups etc.) are deliberately **not**
asserted here: they are meaningless at smoke sizes and belong to the real
benchmark runs (``python -m pytest benchmarks/bench_*.py``).  Benchmarks
that only expose a pytest body (no standalone experiment function) are
smoked through the same library calls their body makes.

The registry below must cover every ``bench_*.py`` file — the test suite
(``tests/bench/test_smoke_benchmarks.py``) fails when a new benchmark is
added without a smoke entry, which is the point: a benchmark nobody can
smoke is a benchmark that will rot.

Usage::

    PYTHONPATH=src python scripts/smoke_benchmarks.py           # run all
    PYTHONPATH=src python scripts/smoke_benchmarks.py --only service
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "benchmarks"
SRC_DIR = REPO_ROOT / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))


def _load(name: str):
    """Import one ``benchmarks/<name>`` module by path (no package needed)."""
    path = BENCH_DIR / name
    spec = importlib.util.spec_from_file_location(f"smoke_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _patched(module, **attrs):
    """Temporarily override module-level constants (sizes, budgets)."""
    saved = {key: getattr(module, key) for key in attrs}
    for key, value in attrs.items():
        setattr(module, key, value)
    try:
        yield module
    finally:
        for key, value in saved.items():
            setattr(module, key, value)


def _tiny_graph(n_nodes: int = 60):
    from repro.graph import generators

    return generators.copying_model_graph(n_nodes, out_degree=4, seed=5)


# --------------------------------------------------------------------------- #
# Per-benchmark smoke runners
# --------------------------------------------------------------------------- #
def _smoke_ablation() -> Dict[str, Any]:
    _load("bench_ablation_design_choices.py")  # import-rot check
    from repro.analysis import ablation

    graph = _tiny_graph()
    return {
        "index_walkers": ablation.index_walker_sweep(graph, [5, 10]),
        "walk_steps": ablation.walk_steps_sweep(graph, [2, 3], reference_steps=4),
        "query_walkers": ablation.query_walker_sweep(graph, [20, 40], n_pairs=2),
        "solver": ablation.solver_sweep(graph),
    }


def _smoke_fig1() -> Dict[str, Any]:
    _load("bench_fig1_convergence.py")
    from repro.bench import experiments

    return experiments.convergence_experiment(
        dataset="communities", jacobi_iterations=[0, 1], walker_counts=[5]
    )


def _smoke_fig2() -> Dict[str, Any]:
    _load("bench_fig2_scalability.py")
    from repro.bench import experiments

    return experiments.scalability_experiment(
        graph_sizes=[120], machine_counts=[1, 2]
    )


def _smoke_fig3() -> Dict[str, Any]:
    _load("bench_fig3_effectiveness.py")
    from repro.bench import experiments

    return experiments.effectiveness_experiment(
        n_categories=2, items_per_category=6, users_per_category=8, top_k=3
    )


def _smoke_http_serve() -> Dict[str, Any]:
    module = _load("bench_http_serve.py")
    with _patched(module, GRAPH_NODES=150, WALK_STEPS=3, INDEX_WALKERS=15,
                  QUERY_WALKERS=60, NUM_SHARDS=2, N_CLIENTS=3,
                  REQUESTS_PER_CLIENT=2, HOT_SOURCES=8, PAIRS_PER_REQUEST=2,
                  COALESCE_WINDOW=0.001, POST_UPDATE_REQUESTS=3,
                  UPDATE_EDGES=((0, 100), (3, 90), (100, 7))):
        result = module.http_serve_experiment()
    # Bitwise identity is size-independent, so it IS asserted at smoke size
    # (unlike the QPS/p99 gates).
    assert result["all_identical"], "an HTTP smoke response diverged bitwise"
    return result


def _smoke_incremental_service() -> Dict[str, Any]:
    module = _load("bench_incremental_service.py")
    with _patched(module, N_COMMUNITIES=20, COMMUNITY_SIZE=10,
                  GRAPH_NODES=200, EDITED_COMMUNITIES=1, EDGES_PER_EDIT=2,
                  N_QUERIES=10):
        return module.incremental_service_experiment()


def _smoke_service_throughput() -> Dict[str, Any]:
    module = _load("bench_service_throughput.py")
    with _patched(module, GRAPH_NODES=150, HOT_SOURCES=10, N_QUERIES=24,
                  N_BATCHES=3):
        return module.service_throughput_experiment()


def _smoke_scenarios() -> Dict[str, Any]:
    module = _load("bench_scenarios.py")
    with _patched(module, GRAPH_NODES=150, WALK_STEPS=3, INDEX_WALKERS=12,
                  QUERY_WALKERS=120, NUM_SHARDS=2, N_EVENTS=24,
                  BATCH_SIZE=8, ACCURACY_BUDGET=0.1,
                  APPROX_SCENARIOS=("zipf",)):
        result = module.scenarios_experiment()
    # Bitwise identity and the error budget are size-independent, so they
    # ARE asserted at smoke size (unlike the p99-improvement gate).
    assert result["all_identical"], "a scenario smoke replay diverged bitwise"
    assert result["approx_within_budget"], (
        "a scenario smoke approximate replay exceeded its accuracy budget"
    )
    return result


def _smoke_table1() -> Dict[str, Any]:
    _load("bench_table1_datasets.py")
    from repro.bench import experiments

    return experiments.dataset_table(max_tier="small")


def _smoke_table2() -> Dict[str, Any]:
    _load("bench_table2_parameters.py")
    from repro.bench import experiments

    return experiments.parameter_table()


def _smoke_table3() -> Dict[str, Any]:
    _load("bench_table3_broadcasting.py")
    from repro.bench import experiments

    return experiments.execution_model_table(
        "broadcasting", max_tier="small", pair_queries=1, source_queries=1
    )


def _smoke_table4() -> Dict[str, Any]:
    _load("bench_table4_rdd.py")
    from repro.bench import experiments

    return experiments.execution_model_table(
        "rdd", max_tier="small", pair_queries=1, source_queries=1
    )


def _smoke_table5() -> Dict[str, Any]:
    _load("bench_table5_comparison.py")
    from repro.bench import experiments

    return experiments.comparison_table(
        max_tier="small", pair_queries=1, source_queries=1
    )


#: One smoke runner per ``benchmarks/bench_*.py`` file.  Keys are file names
#: so the coverage check is a straight directory comparison.
SMOKE_RUNNERS: Dict[str, Callable[[], Any]] = {
    "bench_ablation_design_choices.py": _smoke_ablation,
    "bench_fig1_convergence.py": _smoke_fig1,
    "bench_fig2_scalability.py": _smoke_fig2,
    "bench_fig3_effectiveness.py": _smoke_fig3,
    "bench_http_serve.py": _smoke_http_serve,
    "bench_incremental_service.py": _smoke_incremental_service,
    "bench_scenarios.py": _smoke_scenarios,
    "bench_service_throughput.py": _smoke_service_throughput,
    "bench_table1_datasets.py": _smoke_table1,
    "bench_table2_parameters.py": _smoke_table2,
    "bench_table3_broadcasting.py": _smoke_table3,
    "bench_table4_rdd.py": _smoke_table4,
    "bench_table5_comparison.py": _smoke_table5,
}


def discover() -> List[str]:
    """All benchmark file names on disk."""
    return sorted(path.name for path in BENCH_DIR.glob("bench_*.py"))


def missing() -> List[str]:
    """Benchmark files without a smoke entry (should always be empty)."""
    return [name for name in discover() if name not in SMOKE_RUNNERS]


def run(name: str) -> Any:
    """Smoke one benchmark by file name; returns its (tiny) result.

    The result must be a non-empty dict — the minimal "the experiment still
    produces its shape" assertion shared by every entry.
    """
    result = SMOKE_RUNNERS[name]()
    assert isinstance(result, dict) and result, (
        f"{name} smoke produced no result"
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="",
                        help="run only benchmarks whose filename contains this")
    args = parser.parse_args(argv)

    dangling = missing()
    for name in dangling:
        print(f"error: {name} has no smoke entry in SMOKE_RUNNERS",
              file=sys.stderr)

    failures = len(dangling)
    for name in sorted(SMOKE_RUNNERS):
        if args.only not in name:
            continue
        start = time.perf_counter()
        try:
            run(name)
            status = "ok"
        except Exception as exc:  # noqa: BLE001 — report, keep smoking
            status = f"FAILED ({type(exc).__name__}: {exc})"
            failures += 1
        print(f"{name:<40} {status:<9} {time.perf_counter() - start:6.1f}s",
              flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
