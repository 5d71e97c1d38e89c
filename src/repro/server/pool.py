"""Transport-agnostic request execution for the serving layer.

Two pieces live here, deliberately independent of HTTP framing:

* :func:`run_endpoint` — execute one service endpoint against one
  :class:`~repro.api.service.SageService` and render the result as a wire
  triple ``(status, content_type, body_bytes)``.  Request bodies arrive as
  raw bytes plus a flag saying which envelope they use (``schema:1`` JSON
  or the ``schema:1b`` binary envelope); responses are encoded the same
  way.  Every :class:`~repro.api.errors.ApiError` maps onto its
  ``http_status`` with the standard ``to_dict`` payload — errors are
  always JSON, even for binary-accepting clients, because a client that
  cannot decode the error envelope is exactly the client that needs a
  readable one.

* :class:`WorkerPool` — where those executions run.  With more than one
  CPU (or an explicit ``workers=N``), N fork-context worker processes
  that the pool starts itself, each owning one duplex pipe: the caller's
  event loop writes a request frame to an idle worker and reads the reply
  off that worker's descriptor, with no executor or relay thread in
  between.  Each worker builds its own :class:`SageService` over the
  *shared* persistent cache directory: a cold worker warm-starts every
  parse from disk instead of recomputing, and concurrent writers are safe
  because the store publishes atomically (see :mod:`repro.cache.store`).
  A worker exits when its pipe reaches EOF, which is also what the
  parent's death looks like to it.  On a single-CPU box — or when fork
  is unavailable — the pool degrades to one inline service behind a
  single-thread executor: the event loop stays responsive while pipeline
  work is serialized.  Either way :meth:`WorkerPool.dispatch`, called on
  a running event loop, is the only way in.

  This is the only process pool in the package.  Sentences are processed
  and flagged independently, so the concurrency worth having is between
  independent requests; a single request (a sweep included) runs in
  process on whichever worker picked it up.

  Cache and profile counters are per process, so every reply hands back
  its process's cumulative counters with its answer, and the parent
  keeps the latest per worker pid.  :meth:`WorkerPool.collect_stats`
  folds that table in memory: ``/stats`` never waits on a worker, and
  reports each one as of its last completed request.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import signal
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from operator import attrgetter

from ..api.binenc import from_bytes, to_bytes
from ..api.contracts import request_payload, to_json
from ..api.errors import ApiError, RequestError
from ..api.service import SageService, ServiceConfig
from ..cache.store import CacheStore
from ..counters import hit_rate
from ..gcpolicy import GC_COUNTERS, freeze, gc_counts
from ..parsing.profile import PROFILE, ParseProfile

JSON_CONTENT_TYPE = "application/json"
#: The ``schema:1b`` binary envelope (see :mod:`repro.api.binenc`), used
#: for both request bodies (``Content-Type``) and responses (``Accept``).
BINARY_CONTENT_TYPE = "application/x-repro-bin"

#: Endpoint names :func:`run_endpoint` understands.
ENDPOINTS = ("process", "sweep", "parse", "session")


# -- endpoint execution --------------------------------------------------------

def _json_body(payload: dict, status: int = 200) -> tuple[int, str, bytes]:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return status, JSON_CONTENT_TYPE, body


def _error(status: int, code: str, message: str) -> tuple[int, str, bytes]:
    """An error answer outside the :class:`ApiError` taxonomy."""
    return _json_body({"error": code, "message": message}, status)


def _decode_request(body: bytes, binary_in: bool):
    """The decoded wire body, for the service to coerce and type-check.

    Binary bodies are ``schema:1b`` envelopes.  JSON bodies may be the
    full ``schema:1`` envelope *or* a bare field dict
    (``{"protocol": "ICMP"}``) for curl ergonomics; an empty body means
    an all-defaults request.
    """
    if binary_in:
        return request_payload(from_bytes, bytes(body))
    if not body or not body.strip():
        return None
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        raise RequestError(
            "request body is neither UTF-8 JSON nor marked as the binary "
            f"envelope (send Content-Type: {BINARY_CONTENT_TYPE})"
        ) from None
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise RequestError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object, got "
                           f"{type(payload).__name__}")
    return payload


def _encode_response(response, binary_out: bool) -> tuple[int, str, bytes]:
    if binary_out:
        return 200, BINARY_CONTENT_TYPE, to_bytes(response)
    return 200, JSON_CONTENT_TYPE, to_json(response).encode("utf-8")


def _protocol_param(endpoint: str, params: dict) -> str:
    """The ``protocol`` parameter; a request without one is a 400."""
    try:
        return params["protocol"]
    except KeyError:
        raise RequestError(
            f"the {endpoint} endpoint needs a 'protocol' parameter"
        ) from None


def run_endpoint(service: SageService, endpoint: str, body: bytes = b"", *,
                 binary_in: bool = False, binary_out: bool = False,
                 params: dict | None = None) -> tuple[int, str, bytes]:
    """Execute ``endpoint`` and render the full wire triple.

    Never raises for request-shaped failures: :class:`ApiError` renders as
    its ``http_status`` with the structured ``to_dict`` payload, anything
    else as a 500 — a worker must hand *some* response back rather than
    poison the pool with a pickled traceback.
    """
    params = params or {}
    try:
        if endpoint == "process":
            request = _decode_request(body, binary_in)
            return _encode_response(service.process(request), binary_out)
        if endpoint == "sweep":
            request = _decode_request(body, binary_in)
            return _encode_response(service.sweep(request), binary_out)
        if endpoint == "parse":
            report = service.parse_diagnostics(
                _protocol_param(endpoint, params))
            return _json_body({"schema": 1, "kind": "parse_diagnostics",
                               "data": report})
        if endpoint == "session":
            session = service.session(_protocol_param(endpoint, params),
                                      mode=params.get("mode", "revised"))
            pending = bool(params.get("pending"))
            reports = session.pending() if pending else session.flagged()
            return _json_body({
                "schema": 1, "kind": "sentence_report_list",
                "data": {"protocol": session.protocol,
                         "pending_only": pending,
                         "reports": [report.to_dict()
                                     for report in reports]},
            })
        raise RequestError(
            f"unknown endpoint {endpoint!r}; known endpoints are "
            f"{', '.join(ENDPOINTS)}"
        )
    except ApiError as exc:
        return _json_body(exc.to_dict(), status=exc.http_status)
    except Exception as exc:  # the pool must answer, whatever broke
        return _internal_error(exc)


def _internal_error(exc: Exception) -> tuple[int, str, bytes]:
    """The 500 ``internal`` answer to an exception nothing else mapped."""
    return _error(500, "internal", f"{type(exc).__name__}: {exc}")


# -- the worker process ---------------------------------------------------------

#: The pipeline modules a worker needs for its first engine (a cold run,
#: a parse or winnow diagnostic, a session, an artifact) and for a
#: corpus's first read (the RFC text parser).  The parent imports them
#: before it forks, so workers share one copy instead of each compiling
#: its own in the middle of a request.
_WORKER_MODULES = ("repro.core.stages", "repro.parsing.indexed",
                   "repro.api.session", "repro.codegen.emitters",
                   "repro.codegen.interp", "repro.rfc.preprocess")


def _pool_run(service: SageService, endpoint: str, body: bytes,
              binary_in: bool, binary_out: bool, params: dict) -> tuple:
    """One request, inline or in a worker: the wire triple, plus this
    process's pid and cumulative counters for
    :meth:`WorkerPool.collect_stats`.  ``run_endpoint`` is looked up in
    this module on every call, so a wrapper installed before the fork
    (a tracer, a test gate) runs in the workers too."""
    triple = run_endpoint(service, endpoint, body, binary_in=binary_in,
                          binary_out=binary_out, params=params)
    return triple, os.getpid(), _counters(service)


def _worker_main(conn, parent_ends: list, config: ServiceConfig) -> None:
    """A forked worker: answer the request frames on ``conn`` one at a
    time until the parent closes its end or dies.

    The worker first closes every parent-side pipe end it inherited (its
    own and its older siblings'), so the parent's exit is an EOF here.
    It ignores SIGINT: a terminal's Ctrl-C reaches the whole process
    group, and the parent's shutdown ends its workers through that EOF.
    Its service is built on the first request, over its own locks and
    in-memory caches; the persistent caches converge on the shared store.
    """
    for end in parent_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service = None
    while True:
        try:
            request = conn.recv_bytes()
        except (EOFError, OSError):
            return
        if service is None:
            service = config.build_service()
            # Fork can capture the parent's locks mid-hold; workers are
            # single-threaded, so fresh locks are always safe.
            service.registry.reset_locks_after_fork()
        reply = _pool_run(service, *pickle.loads(request))
        try:
            conn.send_bytes(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        except OSError:  # the parent closed its end or died
            return


# -- stats: counters that ride on results --------------------------------------

#: The in-memory cache layers ``/stats`` reports, by registry accessor.
_CACHE_LAYERS = ("run_cache", "parse_cache", "winnow_cache", "compiled_cache")
_LAYER_COUNTERS = ("size", "hits", "misses", "disk_hits")
#: The per-process counters of the shared :class:`CacheStore`.
_STORE_COUNTERS = ("disk_hits", "disk_misses", "writes", "quarantined")
_read_cache = attrgetter(*_LAYER_COUNTERS[1:])
_read_store = attrgetter("root", *_STORE_COUNTERS)
_read_profile = attrgetter(*ParseProfile.__slots__)


def _counters(service: SageService) -> tuple:
    """This process's cumulative counters: ``_LAYER_COUNTERS`` per cache
    layer, the store's root and ``_STORE_COUNTERS`` (None without a
    store), and ``_PROFILE_COUNTERS``: the parse profile's counters in
    declared order, then the garbage collector's.

    They ride on every result, so they are flat tuples of attribute reads
    (cheap to build and to pickle); the on-disk footprint is shared by
    every worker, so the parent reads it once per ``/stats`` instead."""
    registry = service.registry
    store = registry.cache_store()
    return (tuple((len(cache), *_read_cache(cache)) for cache in
                  [getattr(registry, name)() for name in _CACHE_LAYERS]),
            None if store is None else _read_store(store),
            _read_profile(PROFILE) + gc_counts())


#: The profile counters ``/stats`` reports: the parser's, then the
#: collector's.
_PROFILE_COUNTERS = ParseProfile.__slots__ + GC_COUNTERS

#: What a worker reports before it has answered a request.
_IDLE = (((0, 0, 0, 0),) * len(_CACHE_LAYERS), None,
         (0,) * len(_PROFILE_COUNTERS))


def _with_rate(stats: dict) -> dict:
    return {**stats, "hit_rate": hit_rate(stats.get("hits", 0),
                                          stats.get("misses", 0))}


def _view(counters: tuple, shared_store: dict) -> dict:
    """:func:`_counters` as ``/stats`` reports them: keyed, with derived
    hit rates, and the store over ``shared_store``, the on-disk footprint
    every worker shares."""
    layers, store, profile = counters
    if store is not None:
        store = {**shared_store,
                 **dict(zip(("root", *_STORE_COUNTERS), store))}
        store["disk_hit_rate"] = hit_rate(store["disk_hits"],
                                          store["disk_misses"])
    return {
        **{name: _with_rate(dict(zip(_LAYER_COUNTERS, values)))
           for name, values in zip(_CACHE_LAYERS, layers)},
        "store": store,
        "profile": ParseProfile.with_rates(
            dict(zip(_PROFILE_COUNTERS, profile))),
    }


def _summed(columns) -> tuple:
    return tuple(map(sum, zip(*columns)))


def aggregate_stats(table: list[tuple], shared_store: dict) -> dict:
    """Fold every worker's :func:`_counters` into one truthful view:
    counters sum, rates are recomputed over the summed window, and the
    store's root (shared by construction) comes from any one worker.
    The sums start from :data:`_IDLE`, so a table that every worker has
    left still reports each counter, as zero."""
    rows = [_IDLE, *table]
    layers = tuple(map(_summed, zip(*(layers for layers, _s, _p in rows))))
    stores = [store for _l, store, _p in table if store is not None]
    store = None
    if stores:
        store = (stores[0][0], *_summed(store[1:] for store in stores))
    profile = _summed(profile for _l, _s, profile in rows)
    return {"worker_count": len(table),
            **_view((layers, store, profile), shared_store)}


# -- the pool ------------------------------------------------------------------

#: The answer once every worker has exited (nothing respawns them yet).
_NO_WORKERS = _error(503, "no-workers", "every worker process has exited")


class _Worker:
    """A forked worker and the parent's end of its duplex pipe.  While it
    holds a request, ``answer`` is that request's future, and it stays
    checked out until the reply arrives even when the caller has given
    up on it, so a late reply never reaches the next request."""

    __slots__ = ("process", "conn", "answer")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.answer: asyncio.Future | None = None


class WorkerPool:
    """Request execution over forked workers, or inline when that is moot.

    ``workers=None`` resolves automatically: ``os.cpu_count()`` processes
    when the machine has more than one CPU, inline otherwise (one worker
    cannot beat in-process execution).  An explicit ``workers=N``
    with ``N >= 2`` forces a process pool even on one CPU — that is how
    the concurrency tests exercise multi-process cache sharing — and
    ``workers`` of 0 or 1 forces inline.  If fork itself is unavailable
    the pool degrades to inline regardless.

    Process mode: each worker owns one duplex pipe.  :meth:`dispatch`,
    called on an event loop, writes a request frame to an idle worker (or
    queues it until one is free), and the loop reads the reply off that
    worker's descriptor: no executor, no relay thread.  A pool answers on
    one event loop at a time.  A worker that exits is dropped from
    dispatch and from :meth:`collect_stats`; the request it held answers
    502 ``worker-lost``, and once none is left every request answers 503
    ``no-workers``.

    Inline mode runs one shared service behind a single-thread executor:
    pipeline work is serialized (single-worker semantics) while the
    caller's event loop stays free to answer ``/healthz``.  In both modes
    :meth:`dispatch` is the only way to run a request.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 workers: int | None = None) -> None:
        self.config = config or ServiceConfig()
        requested = ((os.cpu_count() or 1) if workers is None
                     else max(int(workers), 1))
        self.mode = "inline"
        self.workers = 1
        self._service: SageService | None = None
        self._executor: ThreadPoolExecutor | None = None
        #: pid → that worker's counters as of its last completed request.
        self._counters: dict[int, tuple] = {}
        #: Process mode: live workers, the idle ones among them, requests
        #: waiting for one, and the loop the replies are read on.
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._waiting: deque = deque()
        self._loop: asyncio.AbstractEventLoop | None = None
        if requested > 1 and self._start_workers(requested):
            self.mode = "process"
            self.workers = requested
            return
        self._service = self.config.build_service()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._counters = {os.getpid(): _IDLE}

    def _start_workers(self, requested: int) -> bool:
        """Fork every worker now, from a quiet parent, before any event
        loop adds threads that fork must not race with."""
        import importlib
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            return False
        for name in _WORKER_MODULES:
            importlib.import_module(name)
        # CPython's pre-fork recipe: frozen objects are out of every
        # collection, so a worker's first collections do not write to
        # (and copy-on-write duplicate) the heap it shares with us.
        freeze()
        try:
            for _ in range(requested):
                parent_end, child_end = context.Pipe()
                parent_ends = [worker.conn for worker in self._workers]
                process = context.Process(
                    target=_worker_main, daemon=True,
                    args=(child_end, [*parent_ends, parent_end], self.config))
                try:
                    process.start()
                except OSError:
                    parent_end.close()
                    raise
                finally:
                    child_end.close()
                self._workers.append(_Worker(process, parent_end))
        except OSError:
            self.close()
            return False
        self._idle = list(self._workers)
        self._counters = {worker.process.pid: _IDLE
                          for worker in self._workers}
        return True

    # -- execution --------------------------------------------------------------
    def dispatch(self, endpoint: str, body: bytes = b"", *,
                 binary_in: bool = False, binary_out: bool = False,
                 params: dict | None = None) -> asyncio.Future:
        """A future on the running event loop resolving to the
        ``(status, content_type, body)`` triple.

        The worker's counters are recorded before that future resolves, so
        a caller holding its answer already sees its request counted.
        Cancelling it (a deadline) means a request still waiting for a
        worker is never sent; one already in a worker runs to completion
        and its reply is dropped.  Inline, asyncio's future chaining
        cancels the executor task that is still queued."""
        loop = asyncio.get_running_loop()
        if self._executor is not None:
            return loop.run_in_executor(
                self._executor, self._run_inline, endpoint, bytes(body),
                binary_in, binary_out, dict(params or {}))
        self.bind(loop)
        answer = loop.create_future()
        self._waiting.append((pickle.dumps(
            (endpoint, bytes(body), binary_in, binary_out, params or {}),
            pickle.HIGHEST_PROTOCOL), answer))
        self._drain()
        return answer

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Read every worker's replies, and the EOF of a worker that
        exits, on ``loop`` from now on.  A server binds its loop when it
        starts, so a worker that dies before the first request leaves
        ``/healthz`` at once; :meth:`dispatch` binds a pool used without
        a server on its first call."""
        if self._loop is loop:
            return
        if self._loop is not None and not self._loop.is_closed():
            raise RuntimeError("this pool already answers on another "
                               "event loop")
        self._loop = loop
        for worker in self._workers:
            loop.add_reader(worker.conn.fileno(), self._on_reply, worker)

    def _drain(self) -> None:
        """Hand waiting requests to idle workers."""
        waiting, idle = self._waiting, self._idle
        while waiting and idle:
            request, answer = waiting.popleft()
            if answer.done():
                continue  # its caller gave up before a worker was free
            worker = idle.pop()
            try:
                worker.conn.send_bytes(request)
            except OSError:  # the worker is gone; try the next one
                waiting.appendleft((request, answer))
                self._lose(worker)
                continue
            worker.answer = answer
        if not self._workers:
            while waiting:
                _request, answer = waiting.popleft()
                if not answer.done():
                    answer.set_result(_NO_WORKERS)

    def _on_reply(self, worker: _Worker) -> None:
        """The event loop's reader callback: one reply frame (read whole
        once it starts arriving, since the worker writes it in one go), or
        the EOF of a worker that exited."""
        try:
            triple, pid, counters = pickle.loads(worker.conn.recv_bytes())
        except (EOFError, OSError):
            self._lose(worker)
            self._drain()
            return
        self._counters[pid] = counters
        answer, worker.answer = worker.answer, None
        # A done answer is one whose caller gave up: the reply is late.
        if answer is not None and not answer.done():
            answer.set_result(triple)
        self._idle.append(worker)
        self._drain()

    def _run_inline(self, *request) -> tuple[int, str, bytes]:
        """One inline request, counted before its caller's future
        resolves."""
        triple, pid, counters = _pool_run(self._service, *request)
        self._counters[pid] = counters
        return triple

    def _lose(self, worker: _Worker) -> None:
        """Drop an exited worker from dispatch and from the stats table,
        and answer the request it held."""
        self._loop.remove_reader(worker.conn.fileno())
        worker.conn.close()
        self._workers.remove(worker)
        if worker in self._idle:
            self._idle.remove(worker)
        pid = worker.process.pid
        self._counters.pop(pid, None)
        if worker.answer is not None and not worker.answer.done():
            worker.answer.set_result(_error(
                502, "worker-lost",
                f"worker {pid} exited before it answered this request"))

    def collect_stats(self) -> dict:
        """Every worker's stats, as of its last completed request, plus
        the summed aggregate.

        Counters ride back on each result (see :meth:`dispatch`), so this
        sends nothing: it folds the per-pid table in memory and reads the
        shared store's on-disk footprint once.  A request still in flight
        is not counted yet.
        """
        table = sorted(dict(self._counters).items())
        roots = [store[0] for _pid, (_l, store, _p) in table if store]
        # A fresh store's stats: zero counters over the on-disk footprint.
        shared_store = CacheStore(roots[0]).stats() if roots else {}
        per_worker = [{"pid": pid, "cache_dir": store[0] if store else None,
                       **_view((layers, store, profile), shared_store)}
                      for pid, (layers, store, profile) in table]
        return {"workers": per_worker,
                "aggregate": aggregate_stats([c for _pid, c in table],
                                             shared_store)}

    # -- introspection / lifecycle ----------------------------------------------
    def live_workers(self) -> int:
        """How many workers can still answer; inline, the one thread."""
        return 1 if self._executor is not None else len(self._workers)

    def describe(self) -> dict:
        return {"mode": self.mode, "workers": self.workers,
                "cache_dir": self.config.cache_dir}

    def close(self) -> None:
        """Drop queued work and wait for every worker to exit (a request
        already running finishes first).  In process mode, call it on the
        pool's event loop or after that loop has stopped."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            return
        live = self._loop is not None and not self._loop.is_closed()
        workers, self._workers, self._idle = self._workers, [], []
        self._waiting.clear()
        for worker in workers:
            if live:
                self._loop.remove_reader(worker.conn.fileno())
            # The worker reads EOF once it is idle and exits.
            worker.conn.close()
        # An exited worker left the list; multiprocessing reaps it at exit.
        for worker in workers:
            worker.process.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "BINARY_CONTENT_TYPE",
    "ENDPOINTS",
    "JSON_CONTENT_TYPE",
    "ServiceConfig",
    "WorkerPool",
    "run_endpoint",
]
