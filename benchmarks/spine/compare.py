#!/usr/bin/env python3
"""Compare two sets of spine runs, one row per workload x end-to-end metric.

    python3 benchmarks/spine/compare.py A.jsonl B.jsonl

``A`` and ``B`` are files written by ``run.py --out`` (one record per run;
several runs per workload give a spread).  For each pair the table shows
both medians, B's change relative to A (the base), the bound from
``BENCHMARK.json`` and a verdict:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the runs of one side spread (Q3 - Q1, as a share of the
                  median) wider than the bound, so the comparison cannot
                  tell — unless every run of B beats every run of A;
* ``ok``          otherwise.

Exit code 1 when any row is ``worse``.  Traced runs are ignored: end-to-end
metrics are only ever read from untraced runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

Runs = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Tuple[Runs, List[dict]]:
    """``(workload, metric) -> values`` of the untraced runs in ``path``."""
    runs: Runs = {}
    configs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            configs.append(record["config"])
            for name, metric in record["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(
                    metric["value"])
    return runs, configs


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median; None below 2 runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_configs), (other, other_configs) = load(argv[0]), load(argv[1])
    contract = json.loads(BENCHMARK_JSON.read_text())

    for key in ("nproc", "python", "numpy", "scipy", "numba_importable",
                "scale", "params", "segments"):
        seen = {json.dumps(config.get(key))
                for config in base_configs + other_configs}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(seen)}")

    print(f"{'workload':<13} {'metric':<13} {'A median':>11} {'B median':>11} "
          f"{'B vs A':>8} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict")
    worse = False
    for workload in (entry["name"] for entry in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a = base.get((workload, metric["name"]))
            b = other.get((workload, metric["name"]))
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = (median_b - median_a) / median_a
            loss = change if metric["better"] == "lower" else -change
            spreads = [spread(a), spread(b)]
            wide = any(value is not None and value > metric["bound"]
                       for value in spreads)
            if metric["better"] == "lower":
                b_always_better = max(b) < min(a)
            else:
                b_always_better = min(b) > max(a)
            if loss > metric["bound"]:
                verdict, worse = "worse", True
            elif wide and not b_always_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            shown = ["n/a" if value is None else f"{value:.1%}"
                     for value in spreads]
            print(f"{workload:<13} {metric['name']:<13} {median_a:>11.5g} "
                  f"{median_b:>11.5g} {change:>+8.1%} {metric['bound']:>6.0%} "
                  f"{shown[0]:>9} {shown[1]:>9}  {verdict}"
                  f"  (n={len(a)}/{len(b)}, unit {metric['unit']})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
