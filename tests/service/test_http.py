"""Tests for the asyncio HTTP/JSON serving tier (``service/http.py``).

Three layers of coverage:

* **protocol** — endpoints, status mapping (400 wire errors single-sourced
  through ``parse_query``/``parse_edge``, 404 unknown nodes, 405/404
  routing, 429/503 backpressure), keep-alive, and bitwise identity of
  decoded responses with the in-process service;
* **lifecycle** — ``stop()`` during in-flight requests drains rather than
  drops, is idempotent, and leaves the service's ``close()`` a safe no-op
  for the CLI's ``finally`` path;
* **concurrency** — overlapping real clients during deferred update
  drains observe monotone index versions and no torn reads (every
  response bitwise-matches a single-threaded reference at the version the
  response reports), including while snapshot saves race the coalescer
  and the drain strand.
"""

import asyncio
import glob
import http.client
import json
import socket
import struct
import sys
import threading
import time

import pytest

from repro.config import (
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.graph import generators
from repro.service import QueryService, parse_query
from repro.service.http import (
    MAX_BODY_BYTES,
    HttpServiceServer,
    edge_from_wire,
    encode_answer,
)

PARAMS = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                       index_walkers=15, query_walkers=40, seed=23)
QUERY_LINES = ["pair 3 7", "source 12", "topk 5 4"]
EDIT_BATCHES = [
    [(0, 40)],
    [(1, 55), (2, 63)],
    [(4, 70)],
    [(6, 80), (80, 3)],
]


def _graph():
    return generators.copying_model_graph(90, out_degree=4, seed=3)


def _sharded(graph, **service_overrides):
    service_params = ServiceParams(
        cache_capacity=32, coalesce_window=0.005, **service_overrides,
    )
    return QueryService.build(
        graph, PARAMS, service_params=service_params,
        sharding=ShardingParams(num_shards=3),
    )


def _expected(reference_service, lines):
    queries = [parse_query(line, default_k=10) for line in lines]
    answers = reference_service.run_batch(queries)
    return ([encode_answer(query, answer)
             for query, answer in zip(queries, answers)],
            answers.index_version)


async def _send(reader, writer, method, path, payload=None, close=False):
    """One raw HTTP/1.1 exchange on an open connection."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n")
    if close:
        head += "Connection: close\r\n"
    writer.write(head.encode("latin-1") + b"\r\n" + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    data = await reader.readexactly(length) if length else b""
    return status, (json.loads(data) if data else {}), headers


def _raw_query(lines):
    """The bytes of one ``POST /query`` request that closes its connection."""
    body = json.dumps({"queries": lines}).encode("utf-8")
    return (f"POST /query HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n").encode("latin-1") + body


async def _exchange_raw(port, request):
    """Send raw request bytes on a fresh connection; (status, body bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        await writer.drain()
        status_line = await reader.readline()
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return int(status_line.split()[1]), await reader.readexactly(length)
    finally:
        writer.close()


async def _request(port, method, path, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        status, data, _headers = await _send(reader, writer, method, path,
                                             payload, close=True)
        return status, data
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _serve(service, scenario, **server_overrides):
    """Run ``scenario(server)`` against a started server, then stop it."""
    async def body():
        server = HttpServiceServer(service, port=0, **server_overrides)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(body())


class TestProtocol:
    def test_health_version_stats(self):
        service = _sharded(_graph())
        version = service.index_version

        async def scenario(server):
            health = await _request(server.port, "GET", "/healthz")
            ver = await _request(server.port, "GET", "/version")
            stats = await _request(server.port, "GET", "/stats")
            return health, ver, stats

        (h_status, health), (v_status, ver), (s_status, stats) = _serve(
            service, scenario
        )
        assert (h_status, health) == (200, {"status": "ok",
                                            "index_version": version})
        assert (v_status, ver) == (200, {"index_version": version})
        assert s_status == 200
        assert stats["index_version"] == version
        assert stats["http"]["requests"] >= 2
        assert "batches" in stats["coalescer"]
        assert stats["scatter_hops"] == stats["misses_walked_inline"] == 0

    def test_query_round_trip_is_bitwise_identical(self):
        graph = _graph()
        service = _sharded(graph)
        with QueryService.build(graph, PARAMS) as reference:
            expected, version = _expected(reference, QUERY_LINES)

        async def scenario(server):
            return await _exchange_raw(server.port, _raw_query(QUERY_LINES))

        status, raw = _serve(service, scenario)
        assert status == 200
        # The body is byte-equal to ``json.dumps`` of the in-process
        # payload, so decoding it gives back exactly the served floats.
        assert raw == json.dumps({"answers": expected,
                                  "index_version": version}).encode("utf-8")

    def test_response_bytes_count_the_query_bodies_read(self):
        service = _sharded(_graph())
        lines = [["source 12"], ["pair 3 7", "topk 5 4"], QUERY_LINES]

        async def scenario(server):
            totals = []
            for _ in range(2):
                read = 0
                for queries in lines:
                    status, raw = await _exchange_raw(server.port,
                                                      _raw_query(queries))
                    assert status == 200
                    read += len(raw)
                _status, stats = await _request(server.port, "GET", "/stats")
                totals.append((read, stats["http"]["response_bytes"]))
            return totals

        (first_read, first_total), (second_read, second_total) = _serve(
            service, scenario)
        assert first_total == first_read > 0
        # The same sequence again writes the same bytes again.
        assert second_read == first_read
        assert second_total == first_total + second_read

    def test_negative_content_length_is_400_and_counted(self):
        service = _sharded(_graph())

        async def scenario(server):
            answer = await _exchange_raw(
                server.port,
                b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
            _status, stats = await _request(server.port, "GET", "/stats")
            return answer, stats["http"]["bad_requests"]

        (status, raw), bad_requests = _serve(service, scenario)
        assert status == 400
        assert json.loads(raw) == {"error": "malformed Content-Length"}
        assert bad_requests == 1

    def test_oversized_request_head_is_431_and_counted(self):
        service = _sharded(_graph())
        request = (b"GET /healthz HTTP/1.1\r\nX-Padding: " + b"a" * 70_000
                   + b"\r\n\r\n")

        async def scenario(server):
            answer = await _exchange_raw(server.port, request)
            _status, stats = await _request(server.port, "GET", "/stats")
            return answer, stats["http"]["bad_requests"]

        (status, raw), bad_requests = _serve(service, scenario)
        assert status == 431
        assert "request head exceeds" in json.loads(raw)["error"]
        assert bad_requests == 1

    def test_malformed_query_is_400_naming_the_input(self):
        service = _sharded(_graph())

        async def scenario(server):
            return await _request(server.port, "POST", "/query",
                                  {"queries": ["pair 3"]})

        status, payload = _serve(service, scenario)
        assert status == 400
        assert "pair 3" in payload["error"]

    def test_unknown_node_is_404(self):
        service = _sharded(_graph())

        async def scenario(server):
            return await _request(server.port, "POST", "/query",
                                  {"queries": ["pair 0 999999"]})

        status, payload = _serve(service, scenario)
        assert status == 404
        assert "999999" in payload["error"]

    def test_routing_errors(self):
        service = _sharded(_graph())

        async def scenario(server):
            return (
                await _request(server.port, "GET", "/nope"),
                await _request(server.port, "POST", "/healthz"),
                await _request(server.port, "POST", "/query", {"queries": []}),
            )

        (unknown, wrong_method, empty) = _serve(service, scenario)
        assert unknown[0] == 404
        assert wrong_method[0] == 405
        assert empty[0] == 400

    def test_update_wire_validation_is_single_sourced(self):
        """HTTP edge rejections carry the exact ``parse_edge`` message —
        surplus tokens and negative ids are refused naming the input."""
        service = _sharded(_graph())

        async def scenario(server):
            return (
                await _request(server.port, "POST", "/update",
                               {"edges": ["1 2 3"]}),
                await _request(server.port, "POST", "/update",
                               {"edges": [[-1, 2]]}),
            )

        surplus, negative = _serve(service, scenario)
        assert surplus[0] == 400
        assert negative[0] == 400
        with pytest.raises(ValueError) as surplus_ref:
            edge_from_wire("1 2 3")
        with pytest.raises(ValueError) as negative_ref:
            edge_from_wire([-1, 2])
        assert surplus[1]["error"] == str(surplus_ref.value)
        assert negative[1]["error"] == str(negative_ref.value)
        assert "surplus" in surplus[1]["error"]
        assert "non-negative" in negative[1]["error"]

    def test_waited_update_bumps_version_and_answers_track(self):
        graph = _graph()
        service = _sharded(graph)
        edges = [[0, 40], "1 55"]
        with QueryService.build(graph, PARAMS) as reference:
            before, version_before = _expected(reference, QUERY_LINES)
            reference.add_edges([edge_from_wire(entry) for entry in edges])
            after, version_after = _expected(reference, QUERY_LINES)

        async def scenario(server):
            first = await _request(server.port, "POST", "/query",
                                   {"queries": QUERY_LINES})
            update = await _request(server.port, "POST", "/update",
                                    {"edges": edges, "wait": True})
            second = await _request(server.port, "POST", "/query",
                                    {"queries": QUERY_LINES})
            return first, update, second

        first, update, second = _serve(service, scenario)
        assert first == (200, {"answers": before,
                               "index_version": version_before})
        assert update == (200, {"index_version": version_after})
        assert second == (200, {"answers": after,
                                "index_version": version_after})

    def test_fire_and_forget_update_is_accepted_and_drained(self):
        service = _sharded(_graph())
        version = service.index_version

        async def scenario(server):
            status, payload = await _request(
                server.port, "POST", "/update", {"edges": [[0, 40]]}
            )
            deadline = asyncio.get_running_loop().time() + 10.0
            while (service.index_version == version
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.01)
            return status, payload, service.index_version

        status, payload, drained_version = _serve(service, scenario)
        assert status == 202
        assert payload["queued"] == 1
        assert drained_version == version + 1

    @pytest.mark.parametrize("wait", [False, True], ids=["queued", "waited"])
    def test_update_past_node_growth_is_refused_at_intake(self, wait):
        """An edge past ``max_node_growth`` is a counted 400 before anything
        is queued, waited or not: no drain ever sees it."""
        service = _sharded(_graph())
        version = service.index_version
        body = {"edges": [[0, 1_000_000]]}
        if wait:
            body["wait"] = True

        async def scenario(server):
            reply = await _request(server.port, "POST", "/update", body)
            await asyncio.sleep(0.05)
            _status, stats = await _request(server.port, "GET", "/stats")
            return reply, stats, len(server._pending_edges)

        (status, payload), stats, pending = _serve(service, scenario)
        assert status == 400
        assert "would grow the graph" in payload["error"]
        assert stats["http"]["bad_requests"] == 1
        assert stats["http"]["updates_accepted"] == 0
        assert stats["http"]["edges_accepted"] == 0
        assert stats["http"]["update_failures"] == 0
        assert pending == 0
        assert service.index_version == version

    def test_update_burst_past_pending_bound_is_429(self):
        graph = _graph()
        service = QueryService.build(
            graph, PARAMS,
            update_params=UpdateParams(max_pending_edges=2),
            sharding=ShardingParams(num_shards=2),
        )

        async def scenario(server):
            return await _request(
                server.port, "POST", "/update",
                {"edges": [[0, 40], [1, 41], [2, 42]]},
            )

        status, payload = _serve(service, scenario)
        assert status == 429
        assert "retry with backoff" in payload["error"]

    def test_query_admission_past_max_in_flight_is_503(self):
        service = _sharded(_graph())

        async def scenario(server):
            return await _request(server.port, "POST", "/query",
                                  {"queries": ["pair 1 2", "pair 3 4"]})

        status, payload = _serve(service, scenario, max_in_flight=1)
        assert status == 503
        assert "retry with backoff" in payload["error"]

    def test_keep_alive_serves_multiple_requests_per_connection(self):
        service = _sharded(_graph())

        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            try:
                first = await _send(reader, writer, "GET", "/version")
                second = await _send(reader, writer, "POST", "/query",
                                     {"queries": ["pair 1 2"]})
                third = await _send(reader, writer, "GET", "/healthz",
                                    close=True)
                trailing = await reader.read()
                return first, second, third, trailing
            finally:
                writer.close()

        first, second, third, trailing = _serve(service, scenario)
        assert first[0] == 200 and first[2]["connection"] == "keep-alive"
        assert second[0] == 200
        assert third[0] == 200 and third[2]["connection"] == "close"
        assert trailing == b""  # the server honoured Connection: close

    def test_malformed_framing_is_answered_then_closed(self):
        service = _sharded(_graph())

        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            try:
                writer.write(b"NOT-HTTP\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                return status_line
            finally:
                writer.close()

        status_line = _serve(service, scenario)
        assert b"400" in status_line

    def test_http_block_counts_requests_and_drains_only(self):
        service = _sharded(_graph())

        async def scenario(server):
            return await _request(server.port, "GET", "/stats")

        status, stats = _serve(service, scenario)
        assert status == 200
        assert set(stats["http"]) == {
            "requests", "queries_served", "bad_requests", "queries_rejected",
            "updates_accepted", "updates_rejected", "edges_accepted",
            "update_drains", "update_failures", "response_bytes"}

    def test_rebalance_is_an_unknown_path(self):
        """Shard plans are fixed at build: ``/rebalance`` is no endpoint,
        and asking for it changes nothing."""
        service = _sharded(_graph())
        version = service.index_version

        async def scenario(server):
            return (await _request(server.port, "POST", "/rebalance",
                                   {"force": True}),
                    await _request(server.port, "GET", "/version"))

        (status, payload), (_v_status, after) = _serve(service, scenario)
        assert status == 404
        assert "/rebalance" in payload["error"]
        assert after == {"index_version": version}


def _raw(method, path, body=b"", length=None):
    """The bytes of one request that closes its connection."""
    length = len(body) if length is None else length
    return (f"{method} {path} HTTP/1.1\r\nContent-Length: {length}\r\n"
            "Connection: close\r\n\r\n").encode("latin-1") + body


def _json(payload):
    return json.dumps(payload).encode("utf-8")


class TestHostileClients:
    """Each hostile input ends in a bounded, specific error: a status and
    a message naming the fault, counted where it is the client's fault,
    with nothing escaping to the event loop and the server still serving
    the next connection."""

    @pytest.mark.parametrize("request_bytes,status,counted,message", [
        (_raw("POST", "/query", b"{not json"), 400, 1, "not valid JSON"),
        (_raw("POST", "/query", b"\xff\xfe"), 400, 1, "not valid JSON"),
        (_raw("POST", "/query", b"[1, 2]"), 400, 1,
         "must be a JSON object"),
        (_raw("POST", "/query", _json({})), 400, 1,
         "non-empty 'queries' list"),
        (_raw("POST", "/query", _json({"queries": [3]})), 400, 1,
         "malformed query entry"),
        (_raw("POST", "/query", _json({"queries": ["source 999999"]})),
         404, 1, "999999"),
        (_raw("POST", "/update", _json({"edges": "0 1"})), 400, 1,
         "non-empty 'edges' list"),
        (_raw("POST", "/update", _json({"edges": [{"u": 1}]})), 400, 1,
         "malformed edge entry"),
        (b"POST /query HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400, 1,
         "malformed Content-Length"),
        (_raw("POST", "/query", length=MAX_BODY_BYTES + 1), 413, 1,
         "exceeds"),
        (_raw("PUT", "/query", _json({"queries": ["pair 3 7"]})), 405, 0,
         "not allowed"),
    ], ids=["invalid-json", "not-utf8", "json-array", "no-queries",
            "query-not-a-string", "unknown-node", "edges-not-a-list",
            "edge-object", "content-length-not-a-number", "oversized-body",
            "wrong-method"])
    def test_malformed_request_is_rejected(self, request_bytes, status,
                                           counted, message):
        service = _sharded(_graph())

        async def scenario(server):
            loop = asyncio.get_running_loop()
            escaped = []
            loop.set_exception_handler(
                lambda _loop, context: escaped.append(context))
            answer = await _exchange_raw(server.port, request_bytes)
            after = await _request(server.port, "POST", "/query",
                                   {"queries": ["pair 3 7"]})
            _status, stats = await _request(server.port, "GET", "/stats")
            return answer, after, stats, escaped

        (got, raw), after, stats, escaped = _serve(service, scenario)
        assert got == status
        assert message in json.loads(raw)["error"]
        assert stats["http"]["bad_requests"] == counted
        assert after[0] == 200
        assert escaped == []

    def test_truncated_body_is_counted_and_closed(self):
        """A client that declares a body, sends part of it and closes is a
        bad request: counted, its connection closed, nothing escapes to the
        event loop's exception handler, and the next connection is
        served."""
        service = _sharded(_graph())

        async def scenario(server):
            loop = asyncio.get_running_loop()
            escaped = []
            loop.set_exception_handler(
                lambda _loop, context: escaped.append(context))
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            writer.write(b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n"
                         b"\r\nabc")
            await writer.drain()
            writer.write_eof()
            trailing = await reader.read()
            writer.close()
            stats = await _request(server.port, "GET", "/stats")
            await asyncio.sleep(0.05)
            return trailing, stats, escaped

        trailing, (status, stats), escaped = _serve(service, scenario)
        assert trailing == b""
        assert status == 200
        assert stats["http"]["bad_requests"] == 1
        assert escaped == []

    def test_client_closing_mid_head_is_a_clean_close(self):
        """A head that never completes is a closed connection, not a bad
        request: nothing is answered or counted, and nothing escapes."""
        service = _sharded(_graph())

        async def scenario(server):
            loop = asyncio.get_running_loop()
            escaped = []
            loop.set_exception_handler(
                lambda _loop, context: escaped.append(context))
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            writer.write(b"POST /query HTTP/1.1\r\nContent-Le")
            await writer.drain()
            writer.write_eof()
            trailing = await reader.read()
            writer.close()
            stats = await _request(server.port, "GET", "/stats")
            await asyncio.sleep(0.05)
            return trailing, stats, escaped

        trailing, (status, stats), escaped = _serve(service, scenario)
        assert trailing == b""
        assert status == 200
        assert stats["http"]["bad_requests"] == 0
        assert escaped == []

    def test_truncated_body_after_a_served_request(self):
        """On a keep-alive connection the first request is answered in
        full; the truncated second one is counted and ends the
        connection."""
        service = _sharded(_graph())
        with QueryService.build(_graph(), PARAMS) as reference:
            expected, version = _expected(reference, ["pair 3 7"])

        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            first = await _send(reader, writer, "POST", "/query",
                                {"queries": ["pair 3 7"]})
            writer.write(b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n"
                         b"\r\n{\"queries\"")
            await writer.drain()
            writer.write_eof()
            trailing = await reader.read()
            writer.close()
            stats = await _request(server.port, "GET", "/stats")
            return first, trailing, stats

        (status, payload, _headers), trailing, (_s, stats) = _serve(
            service, scenario)
        assert (status, payload) == (200, {"answers": expected,
                                           "index_version": version})
        assert trailing == b""
        assert stats["http"]["bad_requests"] == 1

    def test_reset_mid_body_is_counted(self):
        """A connection reset inside a declared body is a truncated
        request too: counted, and the server keeps serving."""
        service = _sharded(_graph())

        async def scenario(server):
            loop = asyncio.get_running_loop()
            escaped = []
            loop.set_exception_handler(
                lambda _loop, context: escaped.append(context))
            _reader, writer = await asyncio.open_connection("127.0.0.1",
                                                            server.port)
            writer.write(b"POST /update HTTP/1.1\r\nContent-Length: 64\r\n"
                         b"\r\n{\"edges\": [[0, ")
            await writer.drain()
            sock = writer.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            writer.transport.abort()
            deadline = loop.time() + 10.0
            stats = {}
            while loop.time() < deadline:
                _status, stats = await _request(server.port, "GET", "/stats")
                if stats["http"]["bad_requests"]:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            return stats, escaped

        stats, escaped = _serve(service, scenario)
        assert stats["http"]["bad_requests"] == 1
        assert stats["http"]["updates_accepted"] == 0
        assert escaped == []


class TestLifecycle:
    def test_stop_during_in_flight_request_drains_not_drops(self):
        graph = _graph()
        service = _sharded(graph)
        with QueryService.build(graph, PARAMS) as reference:
            expected, version = _expected(reference, QUERY_LINES)

        async def body():
            # After a batch of two, a long window parks a lone submission
            # inside the coalescer, so stop() races a genuinely in-flight
            # request.
            server = HttpServiceServer(service, port=0, coalesce_window=0.5)
            await server.start()
            queries = [parse_query("pair 1 2")]
            await asyncio.gather(server._coalescer.submit(queries),
                                 server._coalescer.submit(queries))
            task = asyncio.ensure_future(_request(
                server.port, "POST", "/query", {"queries": QUERY_LINES}
            ))
            await asyncio.sleep(0.05)  # admitted, waiting in the window
            await server.stop()
            return await task

        status, payload = asyncio.run(body())
        assert status == 200, "stop() dropped an admitted request"
        assert payload["answers"] == expected
        assert payload["index_version"] == version

    def test_stop_is_idempotent_and_close_stays_safe(self):
        service = _sharded(_graph())

        async def body():
            server = HttpServiceServer(service, port=0)
            await server.start()
            await server.stop()
            await server.stop()  # second stop: no-op

        asyncio.run(body())
        # stop() already closed the service; the CLI's ``finally`` close
        # must remain a safe no-op (pools released exactly once).
        service.close()
        service.close()

    def test_one_shard_service_gets_overlapped_drains(self):
        """K = 1 (the default) serves like any K: queries and update drains
        on separate strands, answers equal to a from-scratch build's."""
        graph = _graph()
        service = QueryService.build(graph, PARAMS)
        with QueryService.build(graph, PARAMS) as reference:
            before, version_before = _expected(reference, QUERY_LINES)
            reference.add_edges([(0, 40)])
            after, version_after = _expected(reference, QUERY_LINES)

        async def scenario(server):
            assert server._drain_executor is not server._query_executor
            first = await _request(server.port, "POST", "/query",
                                   {"queries": QUERY_LINES})
            update = await _request(server.port, "POST", "/update",
                                    {"edges": [[0, 40]], "wait": True})
            second = await _request(server.port, "POST", "/query",
                                    {"queries": QUERY_LINES})
            return first, update, second

        first, update, second = _serve(service, scenario)
        assert first == (200, {"answers": before,
                               "index_version": version_before})
        assert update == (200, {"index_version": version_after})
        assert second == (200, {"answers": after,
                                "index_version": version_after})

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="/dev/shm is a Linux construct")
    def test_processes_backend_server_leaves_no_shm_segments(self):
        """A ``processes``-backed service behind the server answers like
        the in-process reference, and stopping the server (which closes
        the service) leaves no shared-memory segment behind."""
        before = set(glob.glob("/dev/shm/psm_*"))
        graph = _graph()
        service = QueryService.build(
            graph, PARAMS,
            service_params=ServiceParams(cache_capacity=32,
                                         serve_backend="processes",
                                         serve_workers=2),
            sharding=ShardingParams(num_shards=3),
        )
        with QueryService.build(graph, PARAMS) as reference:
            expected, version = _expected(reference, QUERY_LINES)

        async def scenario(server):
            return await _request(server.port, "POST", "/query",
                                  {"queries": QUERY_LINES})

        assert _serve(service, scenario) == (
            200, {"answers": expected, "index_version": version})
        service.close()
        assert set(glob.glob("/dev/shm/psm_*")) <= before


class _LoopThread:
    """Runs a started server's event loop on a daemon thread, so real
    ``http.client`` threads can hammer it (the concurrency suite)."""

    def __init__(self, server):
        self.server = server
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=60), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                  self.loop)
        future.result(timeout=120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        self.loop.close()
        return False


class TestConcurrency:
    def test_overlapping_clients_during_drains_see_no_torn_reads(self):
        """Real client threads query while updates drain: every response
        must match a single-threaded reference at its reported version,
        and each client's observed versions must be monotone."""
        graph = _graph()

        # Reference: single-shard, single-threaded answers per version.
        by_version = {}
        with QueryService.build(graph, PARAMS) as reference:
            answers, version = _expected(reference, QUERY_LINES)
            by_version[version] = answers
            for batch in EDIT_BATCHES:
                assert reference.add_edges(batch) is not None
                answers, version = _expected(reference, QUERY_LINES)
                by_version[version] = answers
        final_version = max(by_version)

        service = _sharded(graph)
        observations = {0: [], 1: [], 2: []}
        errors = []
        stop = threading.Event()

        def client(slot):
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=60)
            try:
                while not stop.is_set():
                    body = json.dumps({"queries": QUERY_LINES}).encode()
                    connection.request("POST", "/query", body,
                                       {"Content-Type": "application/json"})
                    response = connection.getresponse()
                    payload = json.loads(response.read().decode("utf-8"))
                    if response.status != 200:
                        raise AssertionError(
                            f"query failed: {response.status} {payload}"
                        )
                    observations[slot].append(
                        (payload["index_version"], payload["answers"])
                    )
            except Exception as exc:  # noqa: BLE001 — surfaced after join
                errors.append(exc)
            finally:
                connection.close()

        with _LoopThread(HttpServiceServer(service, port=0,
                                           coalesce_window=0.002)) as running:
            port = running.server.port
            threads = [threading.Thread(target=client, args=(slot,))
                       for slot in observations]
            for thread in threads:
                thread.start()
            try:
                updater = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=60)
                try:
                    for batch in EDIT_BATCHES:
                        body = json.dumps({
                            "edges": [list(edge) for edge in batch],
                            "wait": True,
                        }).encode()
                        updater.request("POST", "/update", body,
                                        {"Content-Type": "application/json"})
                        response = updater.getresponse()
                        payload = json.loads(response.read().decode("utf-8"))
                        assert response.status == 200, payload
                        time.sleep(0.02)  # let batches land on this version
                finally:
                    updater.close()
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)

        assert errors == []
        assert service.index_version == final_version
        total = 0
        for slot, seen in observations.items():
            versions = [version for version, _ in seen]
            assert versions == sorted(versions), (
                f"client {slot} observed versions going backwards: {versions}"
            )
            for version, answers in seen:
                assert answers == by_version[version], (
                    f"torn read: answers at version {version} diverged"
                )
                total += 1
        assert total > 0, "concurrency run produced no observations"

    def test_snapshot_saves_racing_drains_and_clients_stay_bitwise_stable(
            self, tmp_path):
        """Snapshot saves race deferred-update drains and the HTTP
        coalescer: every response must bitwise-match the reference answers
        at the version it reports, each client's versions stay monotone,
        and every save commits the version it was taken at."""
        graph = _graph()
        by_version = {}
        with QueryService.build(graph, PARAMS) as reference:
            answers, base_version = _expected(reference, QUERY_LINES)
            by_version[base_version] = answers
            for batch in EDIT_BATCHES:
                assert reference.add_edges(batch) is not None
                answers, version = _expected(reference, QUERY_LINES)
                by_version[version] = answers

        service = _sharded(graph)
        observations = {0: [], 1: [], 2: []}
        errors = []
        stop = threading.Event()

        def client(slot):
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=60)
            try:
                while not stop.is_set():
                    body = json.dumps({"queries": QUERY_LINES}).encode()
                    connection.request("POST", "/query", body,
                                       {"Content-Type": "application/json"})
                    response = connection.getresponse()
                    payload = json.loads(response.read().decode("utf-8"))
                    if response.status != 200:
                        raise AssertionError(
                            f"query failed: {response.status} {payload}"
                        )
                    observations[slot].append(
                        (payload["index_version"], payload["answers"])
                    )
            except Exception as exc:  # noqa: BLE001 — surfaced after join
                errors.append(exc)
            finally:
                connection.close()

        saved = []
        with _LoopThread(HttpServiceServer(service, port=0,
                                           coalesce_window=0.002)) as running:
            port = running.server.port
            threads = [threading.Thread(target=client, args=(slot,))
                       for slot in observations]
            for thread in threads:
                thread.start()
            try:
                updater = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=60)
                try:
                    for batch in EDIT_BATCHES:
                        body = json.dumps({
                            "edges": [list(edge) for edge in batch],
                            "wait": True,
                        }).encode()
                        updater.request("POST", "/update", body,
                                        {"Content-Type": "application/json"})
                        response = updater.getresponse()
                        payload = json.loads(response.read().decode("utf-8"))
                        assert response.status == 200, payload
                        # Save while clients hammer the coalescer: the save
                        # takes the update lock and then the serve lock,
                        # so it interleaves with in-flight queries.
                        saved.append(service.save_snapshot(tmp_path)[0])
                finally:
                    updater.close()
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)

        assert errors == []
        # Updates bump the version exactly once each; saves never do.
        assert service.index_version == base_version + len(EDIT_BATCHES)
        assert saved == sorted(by_version)[1:]
        total = 0
        for slot, seen in observations.items():
            versions = [version for version, _ in seen]
            assert versions == sorted(versions), (
                f"client {slot} observed versions going backwards: {versions}"
            )
            for version, answers in seen:
                assert answers == by_version[version], (
                    f"torn read: answers at version {version} diverged"
                )
                total += 1
        assert total > 0, "save stress produced no observations"
