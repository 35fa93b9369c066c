#!/usr/bin/env python3
"""End-to-end smoke of the HTTP serving tier, as CI runs it.

Everything the unit suite cannot see in-process is exercised here, against
a real child process:

1. build a small graph + index through the CLI,
2. start ``repro serve-http`` with the **processes** serve backend (the
   one that owns shared-memory segments and worker pools) on an ephemeral
   port, waiting for the startup announcement.  At ``QUERY_WALKERS``
   every batch stays below the scatter grain
   (``repro.service.sharded.SCATTER_GRAIN``), so its misses are walked in
   the server's own thread: ``scatter_hops`` in ``/stats`` must stay 0 and
   no ``psm_*`` segment may appear while this leg runs,
3. probe the score cache entries: one ``topk`` line and one ``source``
   line, each posted twice, return byte-identical JSON, the second served
   from its score entry (``cache_score_hits`` in ``/stats`` moves by
   exactly one per line); ``POST /rebalance`` answers 404 (there is no
   shard assignment to migrate) and leaves ``index_version`` unchanged,
4. post one ``pair`` line with an endpoint of in-degree 0 in the served
   graph: it answers ``0.0`` without a walk (``sources_simulated`` in
   ``/stats`` does not move, ``dead_end_pairs`` moves by one); then one
   ``pair`` line of two endpoints with in-links whose walks cannot meet
   within the walk length (found by a per-pair level-set search at build
   time): it answers ``0.0``, ``unmeetable_pairs`` moves by one, and
   neither ``dead_end_pairs`` nor ``sources_simulated`` moves,
5. apply a couple of seconds of concurrent query/update/health load from
   several threads, requiring every response to succeed,
6. require that some batch under that load closed before the window ran
   out (``closed_early`` in ``/stats``' ``coalescer`` block), then probe
   again after the load's waited live update: the reply carries the
   bumped ``index_version`` and equals what a fresh single-shard
   ``QueryService`` built on the updated graph answers — the update
   dropped the score entries instead of serving them stale — and its raw
   body is byte-equal to ``json.dumps`` of that fresh answer's payload,
7. send SIGTERM and require the graceful path: exit code 0 and the
   ``shutdown complete`` line (the drain ran, requests were answered, not
   dropped),
8. compare ``/dev/shm`` before and after — a ``psm_*`` segment created
   during the run that survives the server's exit is a leaked resident
   graph or worker-pool segment, and the script exits non-zero.

Then a short second leg serves the same index at ``--shards 1``, which
takes the same overlapped-drain path as any K: one query, one waited
update, the probe again against a fresh build, and the same graceful
SIGTERM and ``/dev/shm`` checks.

A third leg keeps a real pool in the smoke: it serves an index built with
``POOL_QUERY_WALKERS`` walkers per query, enough that one posted batch of
``POOL_LINES`` crosses the grain.  ``scatter_hops`` must move, the pool's
graph segment must exist while it serves, the body must be byte-equal to
``json.dumps`` of a fresh build's payload, and SIGTERM must still exit 0
and unlink the segment.

Exit codes: 0 all good, 1 a stage failed, 2 shared-memory segments leaked.

Usage::

    python scripts/http_smoke.py            # CI stage
    python scripts/http_smoke.py --seconds 5
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"
SHM_DIR = Path("/dev/shm")

GRAPH_NODES = 300
INDEX_WALKERS = 20
QUERY_WALKERS = 200
WALK_STEPS = 4
N_LOAD_THREADS = 4
UPDATE_EDGES = [[0, 200], [3, 150]]
#: The score-entry probe's queries: each on the head of a new edge, so the
#: update changes its answer (a stale entry cannot pass), on two distinct
#: sources (each line's first post is its source's miss), and outside the
#: load threads' ``0..19`` range, so only the probe ever asks for them.
PROBE_LINES = ("topk 200 5", "source 150")
#: The pool leg: eight distinct top-k sources at 120 000 walkers take
#: 8 × 120 000 × (WALK_STEPS + 1) = 4.8 M walker-steps, over twice the
#: 2 M-step scatter grain, so the batch crosses to both serve workers.
POOL_QUERY_WALKERS = 120_000
POOL_LINES = tuple(f"topk {node} 5" for node in range(100, 108))


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_cli(*args: str) -> None:
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=_cli_env(), cwd=str(REPO_ROOT),
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args)} failed:\n{completed.stdout}"
            f"{completed.stderr}"
        )


def _shm_segments() -> set:
    """Names of the Python shared-memory segments currently in /dev/shm."""
    if not SHM_DIR.is_dir():  # non-Linux fallback: nothing to compare
        return set()
    return {entry.name for entry in SHM_DIR.iterdir()
            if entry.name.startswith("psm_")}


def _start_server(graph: Path, index: Path, shards: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-http",
         "--graph", str(graph), "--index", str(index),
         "--shards", str(shards), "--serve-backend", "processes",
         "--serve-workers", str(shards), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_cli_env(), cwd=str(REPO_ROOT),
    )


def _await_port(process: subprocess.Popen, timeout: float = 120.0) -> int:
    """Read the startup announcement; returns the bound port."""
    deadline = time.monotonic() + timeout
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited before announcing its port "
                f"(rc={process.poll()})"
            )
        match = re.search(r"serving on http://[^:]+:(\d+)", line)
        if match:
            return int(match.group(1))
    raise RuntimeError("server did not announce its port in time")


def _load_worker(port: int, deadline: float,
                 outcome: dict, lock: threading.Lock) -> None:
    """One load thread: queries, health checks and a small update loop."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        turn = 0
        while time.monotonic() < deadline:
            if turn % 5 == 4:
                connection.request("GET", "/healthz")
            else:
                body = json.dumps({
                    "queries": [f"pair {turn % 20} {(turn + 7) % 20}",
                                f"topk {turn % 20} 5"]
                }).encode("utf-8")
                connection.request("POST", "/query", body,
                                   {"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            with lock:
                outcome["requests"] += 1
                if response.status != 200:
                    outcome["failures"] += 1
            turn += 1
    except Exception as exc:  # noqa: BLE001 — a load error fails the smoke
        with lock:
            outcome["errors"].append(f"{type(exc).__name__}: {exc}")
    finally:
        connection.close()


def _exchange(port: int, method: str, path: str, payload=None):
    """One request on a fresh connection; returns ``(status, raw body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        connection.request(method, path, body,
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _request(port: int, method: str, path: str, payload=None) -> bytes:
    """One request on a fresh connection; returns the raw 200 body."""
    status, raw = _exchange(port, method, path, payload)
    if status != 200:
        raise RuntimeError(f"{method} {path} answered {status}: {raw[:200]!r}")
    return raw


def _stats(port: int) -> dict:
    return json.loads(_request(port, "GET", "/stats"))


def _require_inline(port: int, segments_before: set, stage: str) -> None:
    """Every batch so far was walked inline: no hop, no pool segment."""
    stats = _stats(port)
    if stats["scatter_hops"] != 0:
        raise RuntimeError(f"{stage}: scatter_hops {stats['scatter_hops']}, "
                           "expected 0 below the scatter grain")
    appeared = _shm_segments() - segments_before
    if appeared:
        raise RuntimeError(f"{stage}: psm_* segments {sorted(appeared)} "
                           "appeared, though no batch reached the pool")


def _fresh_answers(graph: Path, index: Path, lines, edges=()) -> list:
    """A fresh single-shard build's encoded answers to ``lines``."""
    sys.path.insert(0, str(SRC_DIR))
    from repro.core.index import DiagonalIndex
    from repro.graph import io
    from repro.service import QueryService, parse_query
    from repro.service.http import encode_answer

    served = io.read_edge_list(graph, relabel=False).with_edges(
        [tuple(edge) for edge in edges])
    queries = [parse_query(line) for line in lines]
    with QueryService.build(served,
                            DiagonalIndex.load(index).params) as reference:
        answers = reference.run_batch(queries)
    return [encode_answer(query, answer)
            for query, answer in zip(queries, answers)]


def _body(answers: list, version: int) -> bytes:
    """What ``json.dumps`` makes of a ``/query`` payload."""
    return json.dumps({"answers": answers,
                       "index_version": version}).encode("utf-8")


def _score_hits(port: int) -> int:
    return _stats(port)["cache_score_hits"]


def _post_once_from_cache(port: int, line: str) -> bytes:
    """Post ``line`` and require exactly one score-entry hit for it."""
    hits = _score_hits(port)
    reply = _request(port, "POST", "/query", {"queries": [line]})
    served = _score_hits(port) - hits
    if served != 1:
        raise RuntimeError(f"{line!r} moved cache_score_hits by {served}, "
                           f"expected exactly 1")
    return reply


def _probe_repeat(port: int) -> dict:
    """Each probe line twice: identical bytes, second from a score entry.

    Runs before the load starts, so the counter deltas are exact.  Returns
    the parsed first reply per line.
    """
    replies = {}
    for line in PROBE_LINES:
        first = _request(port, "POST", "/query", {"queries": [line]})
        second = _post_once_from_cache(port, line)
        if first != second:
            raise RuntimeError(f"repeated {line!r} answered differently:\n"
                               f"{first!r}\n{second!r}")
        replies[line] = json.loads(first)
    return replies


def _probe_no_rebalance(port: int, before: dict) -> int:
    """``POST /rebalance`` is no endpoint: 404, and the version stays put.

    Returns the served index version.
    """
    version = before[PROBE_LINES[0]]["index_version"]
    status, raw = _exchange(port, "POST", "/rebalance", {"force": True})
    if status != 404:
        raise RuntimeError(f"POST /rebalance answered {status}, expected "
                           f"404: {raw[:200]!r}")
    after = json.loads(_request(port, "GET", "/version"))["index_version"]
    if after != version:
        raise RuntimeError(f"index_version {after} after POST /rebalance, "
                           f"expected {version}")
    return version


def _probe_dead_end(port: int, graph: Path) -> None:
    """A pair with an endpoint of in-degree 0 answers 0.0 without a walk.

    Runs before the load starts, so the counter deltas are exact.
    """
    sys.path.insert(0, str(SRC_DIR))
    from repro.graph import io

    in_degrees = io.read_edge_list(graph, relabel=False).in_degrees()
    dead = int((in_degrees == 0).argmax())
    live = int((in_degrees > 0).argmax())
    if in_degrees[dead] != 0:
        raise RuntimeError("the smoke graph has no node of in-degree 0")
    line = f"pair {live} {dead}"
    before = json.loads(_request(port, "GET", "/stats"))
    reply = json.loads(_request(port, "POST", "/query", {"queries": [line]}))
    after = json.loads(_request(port, "GET", "/stats"))
    if reply["answers"] != [0.0]:
        raise RuntimeError(f"{line!r} answered {reply['answers']}, "
                           f"expected [0.0]")
    if after["sources_simulated"] != before["sources_simulated"]:
        raise RuntimeError(f"{line!r} simulated "
                           f"{after['sources_simulated'] - before['sources_simulated']}"
                           f" sources, expected none")
    if after["dead_end_pairs"] != before["dead_end_pairs"] + 1:
        raise RuntimeError(f"{line!r} moved dead_end_pairs by "
                           f"{after['dead_end_pairs'] - before['dead_end_pairs']}"
                           f", expected exactly 1")


def _unmeetable_pair(graph) -> tuple:
    """A pair of nodes with in-links whose walks can never meet.

    A plain per-pair search over exact-step level sets (the nodes a node
    reaches in exactly ``t`` in-edge steps), independent of the service's
    batched test.  Only nodes whose level sets stay within the test's
    frontier cap qualify, since the service walks a pair it gives up on.
    """
    from repro.core.queries import MEET_FRONTIER_CAP

    def level_sets(node: int) -> list:
        levels = [{node}]
        for _step in range(WALK_STEPS):
            levels.append({int(u) for v in levels[-1]
                           for u in graph.in_neighbors(v)})
        return levels

    live = [int(node) for node in (graph.in_degrees() > 0).nonzero()[0]]
    levels = {node: level_sets(node) for node in live}
    small = [node for node in live
             if max(map(len, levels[node])) <= MEET_FRONTIER_CAP]
    for i in small:
        for j in small:
            if i < j and not any(left & right for left, right
                                 in zip(levels[i], levels[j])):
                return i, j
    raise RuntimeError("the smoke graph has no unmeetable pair of live nodes")


def _probe_unmeetable(port: int, graph: Path) -> None:
    """A pair whose walks cannot meet answers 0.0 without a walk.

    Both endpoints have in-links, so the dead-end rule does not apply; the
    service's reachability test does.  Runs before the load starts, so the
    counter deltas are exact.
    """
    sys.path.insert(0, str(SRC_DIR))
    from repro.graph import io

    node_i, node_j = _unmeetable_pair(io.read_edge_list(graph, relabel=False))
    line = f"pair {node_i} {node_j}"
    before = json.loads(_request(port, "GET", "/stats"))
    reply = json.loads(_request(port, "POST", "/query", {"queries": [line]}))
    after = json.loads(_request(port, "GET", "/stats"))
    if reply["answers"] != [0.0]:
        raise RuntimeError(f"{line!r} answered {reply['answers']}, "
                           f"expected [0.0]")
    for key, moved in (("unmeetable_pairs", 1), ("dead_end_pairs", 0),
                       ("sources_simulated", 0)):
        if after[key] != before[key] + moved:
            raise RuntimeError(f"{line!r} moved {key} by "
                               f"{after[key] - before[key]}, expected {moved}")


def _probe_after_update(port: int, graph: Path, index: Path,
                        version_before: int) -> None:
    """Each probe line after the waited update: bumped version, fresh answer."""
    fresh = _fresh_answers(graph, index, PROBE_LINES, UPDATE_EDGES)
    for line, expected in zip(PROBE_LINES, fresh):
        raw = _request(port, "POST", "/query", {"queries": [line]})
        reply = json.loads(raw)
        if reply["index_version"] != version_before + 1:
            raise RuntimeError(f"index_version {reply['index_version']} after "
                               f"the update, expected {version_before + 1}")
        if reply["answers"] != [expected]:
            raise RuntimeError(f"{line!r} after the update answered "
                               f"{reply['answers']}, a fresh build answers "
                               f"{[expected]}")
        if raw != _body([expected], version_before + 1):
            raise RuntimeError(f"{line!r} body is not byte-equal to json.dumps "
                               f"of a fresh build's payload")


def _apply_load(port: int, seconds: float) -> dict:
    outcome = {"requests": 0, "failures": 0, "errors": []}
    lock = threading.Lock()
    deadline = time.monotonic() + seconds
    threads = [
        threading.Thread(target=_load_worker,
                         args=(port, deadline, outcome, lock), daemon=True)
        for _ in range(N_LOAD_THREADS)
    ]
    for thread in threads:
        thread.start()
    # One live update mid-load, waited so the drain path runs under load.
    try:
        payload = json.loads(_request(port, "POST", "/update",
                                      {"edges": UPDATE_EDGES, "wait": True}))
        if "index_version" not in payload:
            outcome["errors"].append(f"waited update answered {payload}")
    except RuntimeError as exc:
        outcome["errors"].append(f"waited update failed: {exc}")
    for thread in threads:
        thread.join(timeout=seconds + 60)
    return outcome


def _stop(server: subprocess.Popen, grace: float = 20.0) -> None:
    """Stop the server on a failure path without leaking its pool.

    SIGTERM first, so the server closes its process pool and unlinks the
    pool's ``/dev/shm`` segment; SIGKILL only if it is still running after
    ``grace`` seconds (a killed server's pool workers outlive it, holding
    the segment).
    """
    server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait(timeout=30)


def _shutdown(server: subprocess.Popen) -> bool:
    """SIGTERM the server; True when it drained and exited 0."""
    server.send_signal(signal.SIGTERM)
    try:
        rc = server.wait(timeout=120)
    except subprocess.TimeoutExpired:
        server.kill()
        print("http-smoke: FAIL - server did not exit after SIGTERM",
              file=sys.stderr)
        return False
    tail = server.stdout.read() if server.stdout else ""
    ok = True
    if rc != 0:
        print(f"http-smoke: FAIL - server exited {rc} after SIGTERM "
              f"(expected 0)\n{tail}", file=sys.stderr)
        ok = False
    if "shutdown complete" not in tail:
        print(f"http-smoke: FAIL - no graceful-shutdown line in "
              f"output:\n{tail}", file=sys.stderr)
        ok = False
    return ok


def _load_leg(graph: Path, index: Path, seconds: float) -> bool:
    """Two shards: score-entry probe, concurrent load, post-update probe."""
    segments = _shm_segments()
    server = _start_server(graph, index, shards=2)
    try:
        port = _await_port(server)
        version = _probe_no_rebalance(port, _probe_repeat(port))
        _probe_dead_end(port, graph)
        _probe_unmeetable(port, graph)
        _require_inline(port, segments, "probes")
        print(f"http-smoke: server up on port {port}, repeated top-k and "
              f"source lines served from their score entries, "
              f"POST /rebalance 404, a dead-end pair and an unmeetable "
              f"pair answered 0.0 unwalked; applying {seconds:.0f}s of "
              f"load from {N_LOAD_THREADS} threads")
        outcome = _apply_load(port, seconds)
        if not outcome["errors"]:
            coalescer = json.loads(_request(port, "GET", "/stats"))["coalescer"]
            if coalescer["closed_early"] <= 0:
                raise RuntimeError(f"no batch closed before the window under "
                                   f"load: {coalescer}")
            _probe_after_update(port, graph, index, version)
            _require_inline(port, segments, "load")
            print("http-smoke: post-update top-k and source bodies are "
                  "byte-equal to json.dumps of a fresh build's payload at "
                  f"index_version {version + 1}; {coalescer['closed_early']} "
                  f"of {coalescer['batches']} batches closed before the "
                  "window; every batch walked inline, no pool segment")
    except Exception:
        _stop(server)
        raise
    print(f"http-smoke: {outcome['requests']} requests, "
          f"{outcome['failures']} non-200, "
          f"{len(outcome['errors'])} client errors")
    ok = _shutdown(server)
    for error in outcome["errors"]:
        print(f"http-smoke: FAIL - client error: {error}", file=sys.stderr)
        ok = False
    if outcome["failures"]:
        print(f"http-smoke: FAIL - {outcome['failures']} non-200 "
              f"responses under load", file=sys.stderr)
        ok = False
    if outcome["requests"] == 0:
        print("http-smoke: FAIL - the load phase issued no requests",
              file=sys.stderr)
        ok = False
    return ok


def _one_shard_leg(graph: Path, index: Path) -> bool:
    """One shard: a query, a waited update, the probe against a fresh build."""
    segments = _shm_segments()
    server = _start_server(graph, index, shards=1)
    try:
        port = _await_port(server)
        version = json.loads(_request(port, "POST", "/query",
                                      {"queries": list(PROBE_LINES)}))["index_version"]
        _request(port, "POST", "/update", {"edges": UPDATE_EDGES, "wait": True})
        _probe_after_update(port, graph, index, version)
        _require_inline(port, segments, "--shards 1")
        print("http-smoke: --shards 1 post-update top-k and source equal a "
              f"fresh build's at index_version {version + 1}")
    except Exception:
        _stop(server)
        raise
    return _shutdown(server)


def _pool_leg(graph: Path, index: Path) -> bool:
    """Two shards, one batch over the grain: the pool runs, then SIGTERM."""
    segments = _shm_segments()
    server = _start_server(graph, index, shards=2)
    try:
        port = _await_port(server)
        raw = _request(port, "POST", "/query", {"queries": list(POOL_LINES)})
        hops = _stats(port)["scatter_hops"]
        if hops <= 0:
            raise RuntimeError(f"a {len(POOL_LINES)}-source batch at "
                               f"{POOL_QUERY_WALKERS} walkers made no hop")
        if not _shm_segments() - segments:
            raise RuntimeError("the pool served without a psm_* segment for "
                               "its resident graph")
        if raw != _body(_fresh_answers(graph, index, POOL_LINES), 1):
            raise RuntimeError("the pool-walked body is not byte-equal to "
                               "json.dumps of a fresh build's payload")
        print(f"http-smoke: a {len(POOL_LINES)}-source batch at "
              f"{POOL_QUERY_WALKERS} walkers crossed to the pool in {hops} "
              "runs; its body is byte-equal to a fresh build's")
    except Exception:
        _stop(server)
        raise
    return _shutdown(server)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="duration of the concurrent load phase")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="http-smoke-") as tmp:
        graph = Path(tmp) / "graph.tsv"
        index = Path(tmp) / "index.npz"
        print("http-smoke: building graph + index")
        _run_cli("generate", "--model", "copying",
                 "--nodes", str(GRAPH_NODES), "--degree", "4",
                 "--seed", "7", "--output", str(graph))
        pool_index = Path(tmp) / "pool-index.npz"
        for output, query_walkers in ((index, QUERY_WALKERS),
                                      (pool_index, POOL_QUERY_WALKERS)):
            _run_cli("index", "--graph", str(graph),
                     "--walkers", str(INDEX_WALKERS),
                     "--query-walkers", str(query_walkers),
                     "--steps", str(WALK_STEPS), "--output", str(output))

        before = _shm_segments()
        ok = _load_leg(graph, index, args.seconds)
        ok = _one_shard_leg(graph, index) and ok
        ok = _pool_leg(graph, pool_index) and ok
        leaked = _shm_segments() - before
        if leaked:
            print(f"http-smoke: FAIL - leaked shared-memory segments: "
                  f"{sorted(leaked)}", file=sys.stderr)
            return 2
        if not ok:
            return 1
    print("http-smoke: graceful shutdown verified at --shards 2 and 1 and "
          "on a pool that ran, no leaked segments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
