#!/usr/bin/env python3
"""Microbenchmark: rendering a ``/query`` body that carries source vectors.

Times the two ways the HTTP edge can turn served source answers into a
response body, on real score vectors at the spine's size: 10 000 nodes of
a copying-model graph of out-degree 5, the spine's walk parameters, and
the first ``SOURCES`` ``source`` queries of ``http_pool``'s Zipf stream
(skew 1.3), answered and rendered as one body:

* ``json_dumps`` — ``json.dumps`` over the whole payload, the vector
  converted with ``encode_answer`` (``ndarray.tolist``) first;
* ``render`` — :func:`repro.service.http.render_query_body`, which splices
  the vector's nonzero entries into a cached run of ``0.0`` entries.

Both must give the same bytes; the script checks that before timing.  In
the manner of snippet 2 (``SNIPPETS.md``), each path reports its first run
apart from its steady state, and the steady state is ``timeit``'s
``autorange`` loop count with the minimum over the repeats.  One JSONL
record goes to stdout, and is appended to ``--out`` when given.

Usage::

    PYTHONPATH=src python benchmarks/micro/encode.py
    PYTHONPATH=src python benchmarks/micro/encode.py --nodes 300 --out micro.jsonl
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import timeit
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from repro.config import SimRankParams  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.service import QueryService, parse_query  # noqa: E402
from repro.service.http import encode_answer, render_query_body  # noqa: E402
from repro.service.scenarios import zipf_trace  # noqa: E402

#: The spine's walk parameters (``benchmarks/spine/workloads.py``), with
#: fewer index walkers: the diagonal scales scores but barely moves the
#: support the renderer's cost depends on.
PARAMS = SimRankParams(c=0.6, walk_steps=10, jacobi_iterations=3,
                       index_walkers=20, query_walkers=1000, seed=0)
OUT_DEGREE = 5
SOURCES = 10
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


def measure(nodes: int = 10_000, seed: int = 0) -> Dict[str, Any]:
    """Build a service, answer ``SOURCES`` source queries, time both
    renderings of their body."""
    graph = generators.copying_model_graph(nodes, out_degree=OUT_DEGREE,
                                           seed=seed)
    trace = zipf_trace(nodes, n_events=20 * SOURCES, skew=1.3,
                       mix=(0.5, 0.1, 0.4), seed=seed)
    queries = [parse_query(event.query) for event in trace.events
               if event.query.startswith("source")][:SOURCES]
    with QueryService.build(graph, PARAMS) as service:
        answers = service.run_batch(queries)
    version = answers.index_version

    def json_dumps() -> bytes:
        return json.dumps({
            "answers": [encode_answer(q, a) for q, a in zip(queries, answers)],
            "index_version": version,
        }).encode("utf-8")

    def render() -> bytes:
        return render_query_body(queries, answers, version)

    # ``render``'s first run also fills its cache of zero entries.
    first = {"render_first_s": _first_seconds(render),
             "json_dumps_first_s": _first_seconds(json_dumps)}
    body = render()
    if body != json_dumps():
        raise AssertionError("render_query_body differs from json.dumps")
    steady = {"json_dumps_s": _steady_seconds(json_dumps),
              "render_s": _steady_seconds(render)}
    return {
        "kernel": "render_query_body",
        "nodes": nodes,
        "sources": [query.source for query in queries],
        "support": [int(np.count_nonzero(answer)) for answer in answers],
        "body_bytes": len(body),
        **first,
        **steady,
        "speedup": steady["json_dumps_s"] / steady["render_s"],
        "host": platform.node(),
        "python": platform.python_version(),
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the JSONL record to this file too")
    args = parser.parse_args(argv)
    line = json.dumps(measure(args.nodes, args.seed))
    print(line)
    if args.out is not None:
        with args.out.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
