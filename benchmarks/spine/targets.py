"""The two things the benchmark drives: a service in this process, and a
``serve-http`` child process reached over keep-alive connections.

Both are built from generated inputs only (graph + parameters), answer one
:class:`~workloads.Request` at a time through ``send``, and own everything
they start: ``close`` releases pools, stops the child and waits for it.
Constructing a target *is* the system's set-up, so the caller times it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.config import ServiceParams, ShardingParams
from repro.core.sharding import build_sharded_index
from repro.graph import generators, io
from repro.service import ShardedQueryService, parse_query
from repro.service.http import encode_answer

from spans import Tracer, load_spans
from workloads import (
    NUM_SHARDS,
    OUT_DEGREE,
    Request,
    Scale,
    Workload,
    pool_workers,
)

ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = ROOT / "src"
#: Everything the benchmark writes lives here (ignored by git).
RESULTS_DIR = ROOT / "benchmark_results" / "spine"


@dataclass
class Reply:
    """What one ``send`` observed; ``digest`` only when it was asked for."""

    start: float
    end: float
    ok: bool
    index_version: int = 0
    digest: Optional[str] = None
    error: str = ""
    update: Any = None                     # MutationResult of an update


def digest_answers(encoded_answers: List[Any]) -> str:
    """SHA-256 of a batch's wire-form answers, in order.

    The same folding as ``repro.service.scenarios`` uses for its replay
    checksums, so in-process answers (through ``encode_answer``) and decoded
    HTTP bodies of identical answers digest identically.
    """
    checksum = hashlib.sha256()
    for encoded in encoded_answers:
        checksum.update(
            json.dumps(encoded, separators=(",", ":")).encode("ascii"))
        checksum.update(b"\n")
    return checksum.hexdigest()


def digest_update(result: Any, index_version: int) -> str:
    """Digest of an applied update: what changed and the version after."""
    added = result.edges_added if result is not None else 0
    rows = result.affected_rows if result is not None else 0
    return hashlib.sha256(
        f"update {added} {rows} {index_version}".encode("ascii")).hexdigest()


def make_graph(scale: Scale, seed: int):
    return generators.copying_model_graph(scale.nodes, out_degree=OUT_DEGREE,
                                          seed=seed)


class InProcessTarget:
    """``ShardedQueryService.build`` in the benchmark process; one client."""

    clients = 1
    calibrate_every = 1        # requests between host-speed samples

    def __init__(self, workload: Workload, scale: Scale, seed: int,
                 tracer: Tracer) -> None:
        self.tracer = tracer
        self.params = scale.params()
        start = time.perf_counter()
        self.graph = make_graph(scale, seed)
        self.generate_seconds = time.perf_counter() - start
        self.service = ShardedQueryService.build(
            self.graph, self.params,
            service_params=ServiceParams(
                cache_capacity=workload.cache_capacity,
                serve_backend=workload.serve_backend),
            sharding=ShardingParams(num_shards=NUM_SHARDS),
        )
        self.build_info = self.service.index.build_info

    def send(self, request: Request, index: int, want_digest: bool) -> Reply:
        with self.tracer.span("request", request=index):
            if request.kind == "update":
                start = time.perf_counter()
                result = self.service.add_edges(list(request.edges))
                end = time.perf_counter()
                version = self.service.index_version
                return Reply(start, end, True, version, update=result,
                             digest=digest_update(result, version)
                             if want_digest else None)
            with self.tracer.span("service.batching.parse"):
                queries = [parse_query(line) for line in request.lines]
            start = time.perf_counter()
            answers = self.service.run_batch(queries)
            end = time.perf_counter()
        ok = len(answers) == len(queries)
        digest = None
        if want_digest:
            digest = digest_answers([encode_answer(query, answer)
                                     for query, answer in zip(queries, answers)])
        return Reply(start, end, ok, answers.index_version, digest)

    def stats(self) -> Dict[str, Any]:
        return self.service.stats()

    def pids(self) -> List[int]:
        return [os.getpid()] + child_pids(os.getpid())

    def close(self) -> Dict[str, Any]:
        self.service.close()
        return {}


class HttpTarget:
    """``python -m repro serve-http`` as a child on an ephemeral port.

    The index is built here and handed over as files, exactly as an
    operator would start the server.  A traced run starts the child through
    ``serve_traced.py`` instead — same process topology, span wrappers
    installed, recording switched on and off by SIGUSR1.
    """

    #: Per client; calibrating needs every connection idle, so not too often.
    calibrate_every = 4

    def __init__(self, workload: Workload, scale: Scale, seed: int,
                 traced: bool) -> None:
        self.params = scale.params()
        self.clients = pool_workers()
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="http-", dir=RESULTS_DIR))
        self.spans_path = self.workdir / "server.spans.jsonl" if traced else None
        self.process: Optional[subprocess.Popen] = None
        self._connections: List[http.client.HTTPConnection] = []
        self._local = threading.local()
        try:
            start = time.perf_counter()
            self.graph = make_graph(scale, seed)
            self.generate_seconds = time.perf_counter() - start
            index, walker = build_sharded_index(
                self.graph, ShardingParams(num_shards=NUM_SHARDS), self.params)
            walker.backend.close()
            self.build_info = index.build_info
            io.save_binary(self.graph, self.workdir / "graph.npz")
            index.save(self.workdir / "index.npz")
            serve = ["serve-http", "--graph", str(self.workdir / "graph.npz"),
                     "--index", str(self.workdir / "index.npz"),
                     "--shards", str(NUM_SHARDS),
                     "--cache-capacity", str(workload.cache_capacity),
                     "--serve-backend", workload.serve_backend,
                     "--serve-workers", str(self.clients), "--port", "0"]
            launcher = ([str(Path(__file__).with_name("serve_traced.py")),
                         "--spans-out", str(self.spans_path), "--"]
                        if traced else ["-m", "repro"])
            env = dict(os.environ)
            env["PYTHONPATH"] = (str(SRC_DIR) + os.pathsep
                                 + env.get("PYTHONPATH", ""))
            self.process = subprocess.Popen(
                [sys.executable, *launcher, *serve], stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True, env=env, cwd=str(ROOT))
            self.port = self._await_port()
            self._await_healthy()
        except BaseException:
            self.close()
            raise

    def _await_port(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        seen: List[str] = []
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited before announcing its port "
                    f"(rc={self.process.poll()}):\n{''.join(seen)}")
            seen.append(line)
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise RuntimeError("server did not announce its port in time")

    def _await_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                status, _ = self._get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() >= deadline:
                raise RuntimeError("server never answered GET /healthz")
            time.sleep(0.01)

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=60)
            self._local.connection = connection
            self._connections.append(connection)
        return connection

    def _get(self, path: str):
        connection = self._connection()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        except OSError:
            connection.close()
            raise

    def toggle_tracing(self) -> None:
        """Flip span recording in a ``serve_traced.py`` child."""
        self.process.send_signal(signal.SIGUSR1)

    def send(self, request: Request, index: int, want_digest: bool) -> Reply:
        if request.kind != "query":
            raise ValueError("the HTTP workload is read-only")
        body = json.dumps({"queries": list(request.lines)}).encode("utf-8")
        connection = self._connection()
        start = time.perf_counter()
        try:
            connection.request("POST", "/query", body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            return Reply(start, time.perf_counter(), False,
                         error=f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        if response.status != 200:
            return Reply(start, end, False,
                         error=f"HTTP {response.status}: {raw[:200]!r}")
        # Decoding a source answer (10000 floats) costs the client
        # milliseconds of the CPU it shares with the server, so only checked
        # requests are decoded; the rest are validated by their framing.
        version = re.search(rb'"index_version":\s*(\d+)', raw[-64:])
        if version is None:
            return Reply(start, end, False,
                         error=f"unexpected body {raw[:80]!r}...{raw[-40:]!r}")
        digest = None
        if want_digest:
            answers = json.loads(raw.decode("utf-8"))["answers"]
            if len(answers) != len(request.lines):
                return Reply(start, end, False,
                             error=f"{len(answers)} answers for "
                                   f"{len(request.lines)} queries")
            digest = digest_answers(answers)
        return Reply(start, end, True, int(version.group(1)), digest)

    def stats(self) -> Dict[str, Any]:
        status, raw = self._get("/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return json.loads(raw.decode("utf-8"))

    def pids(self) -> List[int]:
        return [self.process.pid] + child_pids(self.process.pid)

    def close(self) -> Dict[str, Any]:
        """SIGTERM the child, wait for it, report how it went."""
        for connection in self._connections:
            connection.close()
        self._connections.clear()
        outcome: Dict[str, Any] = {}
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                outcome["exit_code"] = self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                outcome["exit_code"] = self.process.wait()
                outcome["killed"] = True
            tail = self.process.stdout.read()
            self.process.stdout.close()
            outcome["graceful"] = (outcome["exit_code"] == 0
                                   and "shutdown complete" in tail)
            if not outcome["graceful"]:
                outcome["output"] = tail[-2000:]
            self.process = None
        if self.spans_path is not None and self.spans_path.exists():
            outcome["spans"] = load_spans(self.spans_path)
        shutil.rmtree(self.workdir, ignore_errors=True)
        return outcome


def child_pids(pid: int) -> List[int]:
    """Direct and indirect children of ``pid``, from ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                # "pid (comm) state ppid ..." — comm may contain spaces.
                fields = handle.read().rsplit(")", 1)[1].split()
            parents[int(entry)] = int(fields[1])
        except (OSError, IndexError, ValueError):
            continue
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child, owner in parents.items():
            if owner == parent:
                found.append(child)
                frontier.append(child)
    return found


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def shm_segments() -> set:
    """Names of the Python shared-memory segments now in ``/dev/shm``."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except OSError:
        return set()
