"""The asyncio HTTP/1.1 front end over the serving worker pool.

Stdlib only: :func:`asyncio.start_server` streams plus hand-rolled
request framing (request line, headers, ``Content-Length`` bodies,
keep-alive).  The event loop never runs pipeline work — every service
request is handed to the :class:`~repro.server.pool.WorkerPool` and
awaited under a deadline, so ``/healthz`` answers even while every
worker is busy.

Routes::

    GET  /healthz                         liveness + uptime
    GET  /stats                           server counters + pool + caches
    POST /v1/process                      ProcessRequest → ProcessResponse
    POST /v1/sweep                        SweepRequest → SweepResponse
    GET  /v1/parse/{PROTOCOL}             parsing diagnostics (JSON only)
    GET  /v1/session/{PROTOCOL}/flagged   flagged-sentence reports (JSON only)
    GET  /v1/session/{PROTOCOL}/pending   unresolved flagged reports

Content negotiation: a ``Content-Type: application/x-repro-bin`` request
body is decoded as the ``schema:1b`` binary envelope; an ``Accept:
application/x-repro-bin`` header gets the response in the same envelope.
Everything else is ``schema:1`` JSON.  Error responses are always JSON.

Deadlines: the server default (``--deadline``) can be tightened or
loosened per request with an ``X-Repro-Deadline: <seconds>`` header; a
request that exceeds it gets a 504 carrying the structured
``deadline-exceeded`` payload.  The worker keeps running to completion
(a process pool cannot abandon a task mid-computation) — the deadline
bounds the *caller's* wait, and the warmed caches mean the retry is
cheap.
"""

from __future__ import annotations

import asyncio
import time

from ..api.errors import ApiError, DeadlineExceeded
from .pool import BINARY_CONTENT_TYPE, ServiceConfig, WorkerPool, _json_body

#: Largest request body the server will read, in bytes.  Requests are
#: small (a protocol name and some flags); anything bigger is a client
#: bug or abuse, refused with 413 before allocation.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest request line + header block (readuntil limit).
MAX_HEADER_BYTES = 64 * 1024

_STATUS_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 504: "Gateway Timeout",
}


def _error(status: int, code: str, message: str) -> tuple[int, str, bytes]:
    return _json_body({"error": code, "message": message}, status)


class _Request:
    __slots__ = ("method", "path", "query", "version", "headers", "body")

    def __init__(self, method, path, query, version, headers, body):
        self.method = method
        self.path = path
        self.query = query
        self.version = version
        self.headers = headers
        self.body = body

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    @property
    def binary_in(self) -> bool:
        content_type = self.headers.get("content-type", "")
        return content_type.split(";")[0].strip() == BINARY_CONTENT_TYPE

    @property
    def binary_out(self) -> bool:
        return BINARY_CONTENT_TYPE in self.headers.get("accept", "")


def _parse_query(raw: str) -> dict:
    params: dict[str, str] = {}
    for pair in raw.split("&"):
        if not pair:
            continue
        key, _sep, value = pair.partition("=")
        params[key] = value
    return params


class ReproServer:
    """One listening socket, one worker pool, standard counters."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 config: ServiceConfig | None = None,
                 workers: int | None = None, registry=None,
                 deadline_s: float = 60.0) -> None:
        self.host = host
        self.port = port  # 0 = ephemeral; updated once the socket binds
        self.deadline_s = deadline_s
        self.pool = WorkerPool(config, workers=workers, registry=registry)
        self.started_at = time.monotonic()
        self.requests_total = 0
        self.responses_by_status: dict[int, int] = {}
        self.timeouts_total = 0
        self.inflight = 0
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle --------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_HEADER_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.pool.close()

    def run(self) -> None:
        """Block serving until interrupted (the ``python -m repro serve``
        entry point)."""
        try:
            asyncio.run(self.serve_forever())
        except KeyboardInterrupt:
            pass
        finally:
            self.pool.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling ----------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                self.requests_total += 1
                self.inflight += 1
                try:
                    status, content_type, body = await self._dispatch(request)
                finally:
                    self.inflight -= 1
                keep_alive = request.keep_alive
                self._write_response(writer, status, content_type, body,
                                     keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter):
        """One framed request, None on clean EOF.  Framing errors answer
        inline (the request never reaches the pool) and close."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                self._refuse(writer, 400, "bad-request",
                             "truncated request head")
            return None
        except asyncio.LimitOverrunError:
            self._refuse(writer, 431, "bad-request",
                         f"request head exceeds {MAX_HEADER_BYTES} bytes")
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            self._refuse(writer, 400, "bad-request",
                         f"malformed request line: {lines[0][:80]!r}")
            return None
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            self._refuse(writer, 400, "bad-request",
                         "unreadable Content-Length")
            return None
        if length < 0 or length > MAX_BODY_BYTES:
            self._refuse(writer, 413, "bad-request",
                         f"request body of {length} bytes exceeds the "
                         f"{MAX_BODY_BYTES}-byte cap")
            return None
        body = await reader.readexactly(length) if length else b""
        path, _sep, query = target.partition("?")
        return _Request(method, path, _parse_query(query), version, headers,
                        body)

    def _refuse(self, writer: asyncio.StreamWriter, status: int, code: str,
                message: str) -> None:
        self.requests_total += 1
        self._write_response(writer, *_error(status, code, message),
                             keep_alive=False)

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        content_type: str, body: bytes,
                        keep_alive: bool) -> None:
        self.responses_by_status[status] = (
            self.responses_by_status.get(status, 0) + 1
        )
        reason = _STATUS_REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "Server: repro-serve/1\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    # -- routing ----------------------------------------------------------------
    async def _dispatch(self, request: _Request) -> tuple[int, str, bytes]:
        route = self._route(request)
        if isinstance(route, tuple) and route and route[0] == "error":
            return _error(*route[1:])
        endpoint, params = route
        if endpoint == "healthz":
            return _json_body({
                "ok": True,
                "uptime_s": time.monotonic() - self.started_at,
            })
        if endpoint == "stats":
            return await self._stats(request)
        return await self._run_in_pool(request, endpoint, params)

    def _route(self, request: _Request):
        """``(endpoint, params)`` or ``("error", status, code, message)``."""
        path = request.path.rstrip("/") or "/"
        method = request.method
        query = request.query
        if path == "/healthz":
            expected = "GET"
            if method != expected:
                return ("error", 405, "bad-request",
                        f"{path} only answers {expected}")
            return "healthz", {}
        if path == "/stats":
            if method != "GET":
                return ("error", 405, "bad-request", f"{path} only answers GET")
            return "stats", {}
        if path in ("/v1/process", "/v1/sweep"):
            if method != "POST":
                return ("error", 405, "bad-request",
                        f"{path} only answers POST")
            return path.rsplit("/", 1)[1], {}
        if path.startswith("/v1/parse/"):
            if method != "GET":
                return ("error", 405, "bad-request", f"{path} only answers GET")
            protocol = path[len("/v1/parse/"):]
            if not protocol or "/" in protocol:
                return ("error", 404, "not-found",
                        "expected /v1/parse/{protocol}")
            return "parse", {
                "protocol": protocol,
                "parser_backend": query.get("parser_backend",
                                            query.get("backend", "")),
                "mode": query.get("mode", "revised"),
            }
        if path.startswith("/v1/session/"):
            if method != "GET":
                return ("error", 405, "bad-request", f"{path} only answers GET")
            rest = path[len("/v1/session/"):]
            protocol, _sep, view = rest.partition("/")
            if not protocol or view not in ("flagged", "pending"):
                return ("error", 404, "not-found",
                        "expected /v1/session/{protocol}/flagged or .../pending")
            return "session", {
                "protocol": protocol,
                "pending": view == "pending",
                "mode": query.get("mode", "revised"),
            }
        return ("error", 404, "not-found", f"no route for {method} {path}")

    # -- pool dispatch ----------------------------------------------------------
    def _deadline_for(self, request: _Request) -> float:
        raw = request.headers.get("x-repro-deadline", "")
        if raw:
            try:
                value = float(raw)
                if value > 0:
                    return value
            except ValueError:
                pass  # an unreadable header falls back to the default
        return self.deadline_s

    async def _run_in_pool(self, request: _Request, endpoint: str,
                           params: dict) -> tuple[int, str, bytes]:
        deadline = self._deadline_for(request)
        future = self.pool.submit(
            endpoint, request.body,
            binary_in=request.binary_in, binary_out=request.binary_out,
            params=params,
        )
        try:
            return await asyncio.wait_for(asyncio.wrap_future(future),
                                          timeout=deadline)
        except asyncio.TimeoutError:
            self.timeouts_total += 1
            error = DeadlineExceeded(deadline, endpoint=endpoint)
            return _json_body(error.to_dict(), error.http_status)
        except ApiError as exc:  # defensive: the pool renders these itself
            return _json_body(exc.to_dict(), exc.http_status)

    async def _stats(self, request: _Request) -> tuple[int, str, bytes]:
        server = {
            "uptime_s": time.monotonic() - self.started_at,
            "requests_total": self.requests_total,
            "responses_by_status": {str(code): count for code, count
                                    in sorted(self.responses_by_status.items())},
            "timeouts_total": self.timeouts_total,
            "inflight": self.inflight,
        }
        deadline = self._deadline_for(request)
        try:
            service = await asyncio.wait_for(
                asyncio.to_thread(self.pool.collect_stats,
                                  min(deadline, 15.0)),
                timeout=deadline,
            )
        except asyncio.TimeoutError:
            self.timeouts_total += 1
            error = DeadlineExceeded(deadline, endpoint="stats")
            return _json_body(error.to_dict(), error.http_status)
        payload = {
            "schema": 1, "kind": "server_stats",
            "data": {
                "server": server,
                "pool": self.pool.describe(),
                "service": service["aggregate"],
                "workers": service["workers"],
            },
        }
        return _json_body(payload)


__all__ = ["ReproServer", "MAX_BODY_BYTES", "MAX_HEADER_BYTES"]
