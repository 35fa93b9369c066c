"""A stdlib-only asyncio HTTP/JSON tier over the query services.

:class:`HttpServiceServer` puts a network edge in front of a
:class:`~repro.service.QueryService` of any shard count (a single
machine is the one-shard cluster) without any third-party dependency:
hand-rolled HTTP/1.1 over :func:`asyncio.start_server`, JSON bodies, and
the wire grammar the CLI already speaks —
:func:`~repro.service.batching.parse_query` /
:func:`~repro.service.batching.parse_edge` validate every query and edge,
so wire validation is single-sourced across the REPL, batch files and HTTP.

The concurrency model (the reason this tier exists):

* **Cross-connection coalescing** — queries from concurrent clients are
  collected by a :class:`~repro.service.coalesce.BatchCoalescer` until
  the clients waiting at the end of the last batch are back (for at most
  a short window) and executed as one ``run_batch``, so the planner dedups
  sources across connections and the scatter fans out once.
* **Admission control** — queries beyond ``ServiceParams.max_in_flight``
  are refused with **503**, update bursts beyond
  ``UpdateParams.max_pending_edges`` with **429**; both map
  :class:`~repro.errors.ServiceOverloadedError`, bounding queue memory and
  tail latency instead of letting them grow without limit.
* **Overlapped update drains** — ``POST /update`` buffers edges on the
  event loop and a single drain task applies them on a *separate* worker
  strand via ``add_edges``: the expensive re-index holds
  only the service's update lock, so in-flight and new query batches keep
  serving the previous consistent version and swap atomically when the
  drain lands.
* **Graceful drain on SIGTERM/SIGINT** — stop accepting, answer every
  admitted request, apply every admitted update, then release pools via
  the service's ordinary idempotent ``close()`` lifecycle.

Endpoints (all JSON)::

    GET  /healthz   -> {"status": "ok", "index_version": N}
    GET  /version   -> {"index_version": N}
    GET  /stats     -> service stats + coalescer + http counters
    POST /query     {"queries": ["pair 1 2", "topk 5 10", ...]}
                    -> {"answers": [...], "index_version": N}
    POST /update    {"edges": [[0, 40], "1 55", ...], "wait": false}
                    -> {"queued": n, "pending": m} (202), or with
                       "wait": true -> {"index_version": N} after the drain

Determinism survives the network: ``json.dumps`` renders floats with
``repr``, which round-trips IEEE doubles exactly, so a decoded response is
bitwise-comparable to the in-process answer — the HTTP benchmark gates on
precisely that, before and after live updates.  ``/query`` bodies are
rendered per answer by :func:`render_query_body`, byte-equal to
``json.dumps`` of the same payload: a source vector, ``+0.0`` off its
support, is spliced into a cached run of zeros instead of becoming a list
of n Python floats.
"""

from __future__ import annotations

import asyncio
import json
import signal
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import (
    CloudWalkerError,
    NodeNotFoundError,
    ServiceOverloadedError,
    WireFormatError,
)
from repro.service.batching import (
    PairQuery,
    Query,
    SourceQuery,
    parse_edge,
    parse_query,
)
from repro.service.coalesce import BatchCoalescer
from repro.service.service import QueryService

#: Largest accepted request body; a batch of thousands of queries fits in
#: a few KB, so anything near this is a client bug or abuse.
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Largest accepted request head (request line plus headers); a longer one
#: is answered 431 and the connection closed.
MAX_HEAD_BYTES = 64 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    """An error with a definite HTTP status, raised by request handling."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def encode_answer(query: Query, answer: Any) -> Any:
    """Convert one service answer to its JSON wire shape, losslessly.

    Pair scores stay floats, source vectors become float lists and top-k
    rankings become ``[[node, score], ...]`` pairs.  Every float is a
    native IEEE double whose JSON rendering (``repr``) round-trips
    exactly, so decoding the wire value reproduces the in-process answer
    bit for bit.  The server renders ``/query`` bodies with
    :func:`render_query_body`, whose bytes equal ``json.dumps`` of these
    values without building a source vector's list.
    """
    if isinstance(query, PairQuery):
        return float(answer)
    if isinstance(query, SourceQuery):
        # ``tolist`` already yields Python floats; only lists need a pass.
        if isinstance(answer, np.ndarray):
            return answer.tolist()
        return [float(value) for value in answer]
    return [[int(node), float(score)] for node, score in answer]


#: A source vector nonzero on more than this fraction of its entries is
#: rendered by ``json.dumps``: past it, splicing each entry costs more than
#: the encoder's pass over the zeros (crossover 25-30 % on a 10 000-node
#: vector, Python 3.11).
SPLICE_MAX_FILL = 0.25


@lru_cache(maxsize=2)
def _zero_entries(n_nodes: int) -> str:
    """``n_nodes`` JSON list entries of ``0.0``, each with its separator."""
    return "0.0, " * n_nodes


def _render_vector(vector: np.ndarray) -> str:
    """``json.dumps(vector.tolist())`` for a float64 score vector.

    A score vector is ``+0.0`` off its support, so the rendering starts
    from a cached run of zero entries and splices ``repr`` in at every
    entry whose bits are not ``+0.0`` (``-0.0`` included) — the text
    ``json.dumps`` gives a finite float.  A vector with a non-finite entry,
    which JSON spells differently, or with more than
    :data:`SPLICE_MAX_FILL` of its entries nonzero goes to ``json.dumps``.
    """
    support = np.flatnonzero(np.ascontiguousarray(vector).view(np.int64))
    values = vector[support]
    if (len(support) > SPLICE_MAX_FILL * len(vector)
            or not np.isfinite(values).all()):
        return json.dumps(vector.tolist())
    zeros = _zero_entries(len(vector))
    pieces = ["["]
    start = 0
    # Entry i is zeros[5 * i:5 * i + 5]: "0.0" then its ", " separator.
    for offset, value in zip((5 * support).tolist(), values.tolist()):
        pieces.append(zeros[start:offset])
        pieces.append(repr(value))
        start = offset + 3
    pieces.append(zeros[start:-2])
    pieces.append("]")
    return "".join(pieces)


def render_query_body(queries: Sequence[Query], answers: Sequence[Any],
                      index_version: int) -> bytes:
    """The ``/query`` response body, rendered answer by answer.

    Byte-equal to ``json.dumps({"answers": [encode_answer(q, a), ...],
    "index_version": index_version}).encode()``: pair and top-k answers
    go through exactly that, and a float64 source vector through
    :func:`_render_vector`, which skips building its list of floats.
    """
    fragments = [
        _render_vector(answer)
        if (isinstance(query, SourceQuery) and isinstance(answer, np.ndarray)
            and answer.dtype == np.float64)
        else json.dumps(encode_answer(query, answer))
        for query, answer in zip(queries, answers)
    ]
    return (f'{{"answers": [{", ".join(fragments)}], '
            f'"index_version": {json.dumps(index_version)}}}').encode("utf-8")


def edge_from_wire(entry: Any) -> Tuple[int, int]:
    """Normalise one ``POST /update`` edge entry through :func:`parse_edge`.

    Accepts the wire string form (``"0 40"``) and the JSON pair form
    (``[0, 40]``); both are validated by the same :func:`parse_edge` the
    CLI uses, so negative ids, surplus elements and non-integers are
    rejected with the offending input named — single-sourced validation.
    """
    if isinstance(entry, str):
        return parse_edge(entry)
    if isinstance(entry, (list, tuple)):
        return parse_edge(" ".join(str(token) for token in entry))
    raise WireFormatError(
        f"malformed edge entry {entry!r}; expected '<src> <dst>' or [src, dst]"
    )


class HttpServiceServer:
    """The asyncio HTTP serving tier around one query service.

    Parameters
    ----------
    service:
        The thread-safe :class:`~repro.service.QueryService` to front, at
        any shard count; queries and update drains run on separate worker
        strands.
    host / port:
        Bind address.  ``port=None`` takes ``ServiceParams.http_port``;
        ``0`` asks the OS for an ephemeral port — read :attr:`port` after
        :meth:`start` for the bound value.
    coalesce_window / max_in_flight:
        Override the corresponding ``ServiceParams`` knobs (see
        :class:`~repro.config.ServiceParams`).

    Use :meth:`run` for the blocking CLI entry (installs SIGTERM/SIGINT
    handlers), or :meth:`start` / :meth:`stop` from an existing event loop
    (the test suite does).  :meth:`stop` is the graceful drain: admitted
    queries are answered, admitted updates applied, then the service's
    idempotent ``close()`` releases pools and resident segments.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        coalesce_window: Optional[float] = None,
        max_in_flight: Optional[int] = None,
    ) -> None:
        params = service.service_params
        self.service = service
        self.host = host
        self.port = params.http_port if port is None else int(port)
        self.coalesce_window = (params.coalesce_window if coalesce_window is None
                                else float(coalesce_window))
        self.max_in_flight = (params.max_in_flight if max_in_flight is None
                              else int(max_in_flight))
        self._server: Optional[asyncio.AbstractServer] = None
        self._coalescer: Optional[BatchCoalescer] = None
        self._query_executor: Optional[ThreadPoolExecutor] = None
        self._drain_executor: Optional[ThreadPoolExecutor] = None
        self._pending_edges: List[Tuple[int, int]] = []
        self._drain_waiters: List["asyncio.Future[int]"] = []
        self._drain_task: Optional["asyncio.Task[None]"] = None
        self._connections: set = set()
        self._active_requests = 0
        self._stopping = False
        self._counters: Dict[str, int] = {
            "requests": 0, "queries_served": 0, "bad_requests": 0,
            "queries_rejected": 0, "updates_accepted": 0,
            "updates_rejected": 0, "edges_accepted": 0,
            "update_drains": 0, "update_failures": 0, "response_bytes": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket and start the coalescer.

        After this returns, :attr:`port` holds the actual bound port (the
        ephemeral one when constructed with ``port=0``).
        """
        self._stopping = False
        self._query_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="http-query"
        )
        self._drain_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="http-drain"
        )
        self._coalescer = BatchCoalescer(
            self.service, self._query_executor,
            window=self.coalesce_window, max_in_flight=self.max_in_flight,
        )
        self._coalescer.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_HEAD_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: refuse new work, finish admitted work, close.

        The shutdown order is the tentpole contract: (1) stop accepting
        connections and flag new requests for 503, (2) drain the
        coalescer — every admitted query is answered, not dropped, (3)
        apply every admitted update via the drain strand, (4) wait for
        in-flight handlers to write their responses, close idle
        connections, shut the strands down and release the service's
        pools/resident segments through its idempotent ``close()``.
        Idempotent itself — a second call is a no-op.
        """
        if self._server is None and self._coalescer is None:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._coalescer is not None:
            await self._coalescer.stop()
        while self._drain_task is not None and not self._drain_task.done():
            await self._drain_task
        if self._pending_edges:
            # Admitted after the last drain finished: apply, don't drop.
            await self._drain_updates()
        deadline = asyncio.get_running_loop().time() + 30.0
        while (self._active_requests > 0
               and asyncio.get_running_loop().time() < deadline):
            await asyncio.sleep(0.005)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        self._coalescer = None
        if self._query_executor is not None:
            self._query_executor.shutdown(wait=True)
            self._query_executor = None
        if self._drain_executor is not None:
            self._drain_executor.shutdown(wait=True)
            self._drain_executor = None
        self.service.close()

    def run(self, out: Optional[IO[str]] = None) -> None:
        """Blocking entry point: serve until SIGTERM/SIGINT, then drain.

        Installs signal handlers on its own event loop so a ``kill -TERM``
        (or Ctrl-C) triggers the graceful :meth:`stop` sequence instead of
        unwinding mid-request.  Announces the bound address on ``out``
        when given — the CLI and the smoke harness wait for that line.
        """
        asyncio.run(self._run_async(out))

    async def _run_async(self, out: Optional[IO[str]]) -> None:
        await self.start()
        if out is not None:
            print(f"serving on http://{self.host}:{self.port} "
                  f"(index version {self.service.index_version})",
                  file=out, flush=True)
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        installed: List[signal.Signals] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, shutdown.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await shutdown.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop()
        if out is not None:
            print("shutdown complete (drained in-flight requests)",
                  file=out, flush=True)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One keep-alive HTTP/1.1 connection, request by request."""
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # The request could not even be framed; answer and
                    # close, since the stream position is unreliable now.
                    self._counters["bad_requests"] += 1
                    await self._write_response(
                        writer, exc.status, {"error": exc.message}, False
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = (headers.get("connection", "keep-alive").lower()
                              != "close")
                self._active_requests += 1
                try:
                    status, payload = await self._dispatch(method, path, body)
                    await self._write_response(writer, status, payload,
                                               keep_alive)
                finally:
                    self._active_requests -= 1
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Read one request; None once the connection is closed.

        A connection closed between requests is the ordinary end of a
        keep-alive session; one closed inside a declared body is a
        truncated request, counted in ``bad_requests``.
        """
        try:
            blob = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(431, f"request head exceeds {MAX_HEAD_BYTES} "
                                  "bytes") from exc
        head = blob.decode("latin-1").split("\r\n")
        parts = head[0].split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {head[0]!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for line in head[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            raise _HttpError(400, "malformed Content-Length") from exc
        if length < 0:
            raise _HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body of {length} bytes exceeds "
                                  f"{MAX_BODY_BYTES}")
        try:
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionResetError):
            # The client closed before its declared body arrived: there is
            # no request to answer and no one to answer it.
            self._counters["bad_requests"] += 1
            return None
        return method.upper(), path, headers, body

    async def _write_response(self, writer: asyncio.StreamWriter, status: int,
                              payload: Union[Dict[str, Any], bytes],
                              keep_alive: bool) -> None:
        """Write one response; ``payload`` is a JSON object or its body."""
        body = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode("utf-8"))
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, Any], bytes]]:
        """Route one request; every failure becomes a JSON error payload."""
        self._counters["requests"] += 1
        try:
            if method == "GET" and path == "/healthz":
                return 200, {"status": "ok",
                             "index_version": self.service.index_version}
            if method == "GET" and path == "/version":
                return 200, {"index_version": self.service.index_version}
            if method == "GET" and path == "/stats":
                return 200, await self._stats_payload()
            if method == "POST" and path == "/query":
                return await self._handle_query(body)
            if method == "POST" and path == "/update":
                return await self._handle_update(body)
            if path in ("/healthz", "/version", "/stats", "/query", "/update"):
                raise _HttpError(405, f"method {method} not allowed on {path}")
            raise _HttpError(404, f"unknown path {path!r}")
        except _HttpError as exc:
            if exc.status == 400:
                self._counters["bad_requests"] += 1
            return exc.status, {"error": exc.message}
        except WireFormatError as exc:
            self._counters["bad_requests"] += 1
            return 400, {"error": str(exc)}
        except NodeNotFoundError as exc:
            self._counters["bad_requests"] += 1
            return 404, {"error": str(exc)}
        except CloudWalkerError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — a 500 must not kill the loop
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _parse_body(self, body: bytes) -> Dict[str, Any]:
        try:
            parsed = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") \
                from exc
        if not isinstance(parsed, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return parsed

    async def _handle_query(
        self, body: bytes
    ) -> Tuple[int, Union[Dict[str, Any], bytes]]:
        if self._stopping or self._coalescer is None:
            return 503, {"error": "service is shutting down"}
        payload = self._parse_body(body)
        lines = payload.get("queries")
        if not isinstance(lines, list) or not lines:
            raise _HttpError(400, "body must carry a non-empty 'queries' list")
        queries: List[Query] = []
        for line in lines:
            if not isinstance(line, str):
                raise _HttpError(
                    400, f"malformed query entry {line!r}; expected a wire "
                         "string like 'pair 1 2'"
                )
            queries.append(parse_query(
                line, default_k=self.service.service_params.default_top_k
            ))
        try:
            answers = await self._coalescer.submit(queries)
        except ServiceOverloadedError as exc:
            self._counters["queries_rejected"] += 1
            return 503, {"error": str(exc)}
        self._counters["queries_served"] += len(queries)
        rendered = render_query_body(queries, answers, answers.index_version)
        self._counters["response_bytes"] += len(rendered)
        return 200, rendered

    async def _handle_update(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        if self._stopping:
            return 503, {"error": "service is shutting down"}
        payload = self._parse_body(body)
        entries = payload.get("edges")
        if not isinstance(entries, list) or not entries:
            raise _HttpError(400, "body must carry a non-empty 'edges' list")
        edges = [edge_from_wire(entry) for entry in entries]
        try:
            # The service's own intake check, before anything is queued:
            # an edge past the node-growth limit is refused here, not in
            # the drain.
            edges = self.service.validate_edges(edges)
        except CloudWalkerError as exc:
            raise _HttpError(400, str(exc)) from exc
        bound = self.service.update_params.max_pending_edges
        if len(self._pending_edges) + len(edges) > bound:
            self._counters["updates_rejected"] += 1
            return 429, {"error": str(ServiceOverloadedError(
                "update admission refused", len(self._pending_edges), bound
            ))}
        self._pending_edges.extend(edges)
        self._counters["updates_accepted"] += 1
        self._counters["edges_accepted"] += len(edges)
        waiter: Optional["asyncio.Future[int]"] = None
        if payload.get("wait"):
            waiter = asyncio.get_running_loop().create_future()
            self._drain_waiters.append(waiter)
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain_updates()
            )
        if waiter is None:
            return 202, {"queued": len(edges),
                         "pending": len(self._pending_edges)}
        version = await waiter
        return 200, {"index_version": version}

    async def _stats_payload(self) -> Dict[str, Any]:
        assert self._query_executor is not None
        service_stats = await asyncio.get_running_loop().run_in_executor(
            self._query_executor, self.service.stats
        )
        return {
            **service_stats,
            "http": dict(self._counters),
            "coalescer": (self._coalescer.stats()
                          if self._coalescer is not None else {}),
        }

    # ------------------------------------------------------------------ #
    # Update drains
    # ------------------------------------------------------------------ #
    async def _drain_updates(self) -> None:
        """Apply buffered edges on the drain strand until none remain.

        One drain task exists at a time; each pass takes the whole buffer
        (coalescing an update burst into one re-index) and applies it with
        one ``add_edges``, so query batches on the other strand keep
        serving the previous version during the re-index.  Waiters from
        ``"wait": true`` updates resolve with the post-drain version.
        """
        loop = asyncio.get_running_loop()
        while self._pending_edges:
            edges, self._pending_edges = self._pending_edges, []
            waiters, self._drain_waiters = self._drain_waiters, []
            try:
                version = await loop.run_in_executor(
                    self._drain_executor, self._apply_edges, edges
                )
            except Exception as exc:  # noqa: BLE001 — surfaced to waiters
                self._counters["update_failures"] += 1
                for waiter in waiters:
                    if not waiter.done():
                        waiter.set_exception(exc)
                if not waiters:
                    # Fire-and-forget updates have no one to tell; the
                    # failure stays visible in the stats counters.
                    continue
            else:
                self._counters["update_drains"] += 1
                for waiter in waiters:
                    if not waiter.done():
                        waiter.set_result(version)

    def _apply_edges(self, edges: Sequence[Tuple[int, int]]) -> int:
        """Worker-strand body of one drain: apply, report version."""
        self.service.add_edges(edges)
        return self.service.index_version

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (
            f"HttpServiceServer(host={self.host!r}, port={self.port}, "
            f"window={self.coalesce_window}, "
            f"max_in_flight={self.max_in_flight})"
        )
