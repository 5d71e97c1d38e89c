"""The asyncio HTTP/1.1 front end over the serving worker pool.

Stdlib only: :func:`asyncio.start_server` streams plus hand-rolled
request framing (request line, headers, ``Content-Length`` bodies,
keep-alive).  The event loop never runs pipeline work — every service
request is handed to the :class:`~repro.server.pool.WorkerPool` and
awaited under a deadline, so ``/healthz`` answers even while every
worker is busy.

Routes::

    GET  /healthz                         live workers + uptime (503: none)
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
request whose answer is not back within it gets a 504 carrying the
structured ``deadline-exceeded`` payload, even when the answer arrives a
moment later (a memoized answer can beat the event loop's timer).  A
request still waiting for a worker is never sent; one already in a
worker runs to completion and its late reply is dropped — the deadline
bounds the *caller's* wait, and the warmed caches mean the retry is
cheap.  A worker that dies mid-request answers 502 ``worker-lost``, and
an exception in the front end's own code answers 500 ``internal``.
"""

from __future__ import annotations

import asyncio
import signal
import time
from collections.abc import Callable

from ..api.errors import DeadlineExceeded
from .pool import (BINARY_CONTENT_TYPE, ServiceConfig, WorkerPool, _error,
                   _internal_error, _json_body)

#: Largest request body the server will read, in bytes.  Requests are
#: small (a protocol name and some flags); anything bigger is a client
#: bug or abuse, refused with 413 before allocation.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest request line + header block (readuntil limit).
MAX_HEADER_BYTES = 64 * 1024

_REASON_PHRASES = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


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
                 workers: int | None = None,
                 deadline_s: float = 60.0) -> None:
        self.host = host
        self.port = port  # 0 = ephemeral; updated once the socket binds
        self.deadline_s = deadline_s
        self.pool = WorkerPool(config, workers=workers)
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
        self.pool.bind(asyncio.get_running_loop())

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.pool.close()

    def run(self, announce: Callable[[ReproServer], None] | None = None
            ) -> None:
        """Block serving until SIGINT or SIGTERM (the ``python -m repro
        serve`` entry point), then close the pool, which waits for its
        workers to exit.  ``announce(server)`` runs once the socket is
        bound."""
        async def serve_until_signalled() -> None:
            await self.start()
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
            if announce is not None:
                announce(self)
            await stop.wait()
            self._server.close()

        try:
            asyncio.run(serve_until_signalled())
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
                except Exception as exc:  # the front end's own fault
                    status, content_type, body = _internal_error(exc)
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
        raw_length = headers.get("content-length") or "0"
        # ASCII digits only: int() would also read "1_0", "+7" and "-1".
        if not (raw_length.isascii() and raw_length.isdigit()):
            self._refuse(writer, 400, "bad-request",
                         "unreadable Content-Length")
            return None
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
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
        reason = _REASON_PHRASES.get(status, "Unknown")
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
            live = self.pool.live_workers()
            return _json_body({
                "ok": live > 0, "live_workers": live,
                "uptime_s": time.monotonic() - self.started_at,
            }, 200 if live else 503)
        if endpoint == "stats":
            return await self._stats(request)
        return await self._run_in_pool(request, endpoint, params)

    def _route(self, request: _Request):
        """``(endpoint, params)`` or ``("error", status, code, message)``."""
        path = request.path.rstrip("/") or "/"
        method = request.method
        query = request.query
        if path in ("/healthz", "/stats"):
            if method != "GET":
                return ("error", 405, "bad-request", f"{path} only answers GET")
            return path[1:], {}
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
            return "parse", {"protocol": protocol}
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
        answer = self.pool.dispatch(
            endpoint, request.body, binary_in=request.binary_in,
            binary_out=request.binary_out, params=params)
        return await self._within_deadline(request, endpoint, answer)

    async def _within_deadline(self, request: _Request, endpoint: str,
                               answer) -> tuple[int, str, bytes]:
        """The triple ``answer`` resolves to, or a 504 if it is not back
        within the request's deadline."""
        deadline = self._deadline_for(request)
        expires = time.monotonic() + deadline
        try:
            result = await asyncio.wait_for(answer, timeout=deadline)
        except asyncio.TimeoutError:
            result = None
        # wait_for hands back a result that finished while its timer was
        # firing; an answer that lands after the deadline is still late.
        if result is not None and time.monotonic() <= expires:
            return result
        self.timeouts_total += 1
        error = DeadlineExceeded(deadline, endpoint=endpoint)
        return _json_body(error.to_dict(), error.http_status)

    async def _stats(self, request: _Request) -> tuple[int, str, bytes]:
        server = {
            "uptime_s": time.monotonic() - self.started_at,
            "requests_total": self.requests_total,
            "responses_by_status": {str(code): count for code, count
                                    in sorted(self.responses_by_status.items())},
            "timeouts_total": self.timeouts_total,
            "inflight": self.inflight,
        }

        def answer() -> tuple[int, str, bytes]:
            service = self.pool.collect_stats()
            return _json_body({
                "schema": 1, "kind": "server_stats",
                "data": {"server": server, "pool": self.pool.describe(),
                         "service": service["aggregate"],
                         "workers": service["workers"]},
            })

        # Off the event loop: the store's footprint scan and the encoding.
        return await self._within_deadline(request, "stats",
                                           asyncio.to_thread(answer))


__all__ = ["ReproServer", "MAX_BODY_BYTES", "MAX_HEADER_BYTES"]
