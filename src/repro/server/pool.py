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
  CPU (or an explicit ``workers=N``), a fork-based
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers each
  build their own :class:`SageService` over the *shared* persistent cache
  directory: a cold worker warm-starts every parse from disk instead of
  recomputing, and concurrent writers are safe because the store
  publishes atomically (see :mod:`repro.cache.store`).  On a single-CPU
  box — or when fork is unavailable — the pool degrades to one inline
  service behind a single-thread executor: the event loop stays
  responsive while pipeline work is serialized.

  This is the only process pool in the package.  Sentences are processed
  and flagged independently, so the concurrency worth having is between
  independent requests; a single request (a sweep included) runs in
  process on whichever worker picked it up.

  Cache and profile counters are per process, so every pool task hands
  back its process's cumulative counters with its answer, and the parent
  keeps the latest per worker pid.  :meth:`WorkerPool.collect_stats`
  folds that table in memory: ``/stats`` never waits on a worker, and
  reports each one as of its last completed request.
"""

from __future__ import annotations

import json
import os
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from operator import attrgetter

from ..api.binenc import from_bytes, to_bytes
from ..api.contracts import to_json
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


def _decode_request(body: bytes, binary_in: bool):
    """The decoded wire body, for the service to coerce and type-check.

    Binary bodies are ``schema:1b`` envelopes.  JSON bodies may be the
    full ``schema:1`` envelope *or* a bare field dict
    (``{"protocol": "ICMP"}``) for curl ergonomics; an empty body means
    an all-defaults request.
    """
    if binary_in:
        return from_bytes(bytes(body))
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
                _protocol_param(endpoint, params),
                parser_backend=params.get("parser_backend", ""),
                mode=params.get("mode", "revised"),
            )
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
        return _json_body({"error": "internal",
                           "message": f"{type(exc).__name__}: {exc}"},
                          status=500)


# -- process-pool worker globals -----------------------------------------------
# Fork workers rebuild their own service from the ServiceConfig (paths,
# not objects): each worker owns fresh locks and an independent in-memory
# cache, while the *persistent* caches converge on the shared directory.

_WORKER_CONFIG: ServiceConfig | None = None
_WORKER_SERVICE: SageService | None = None


def _init_worker(config: ServiceConfig) -> None:
    global _WORKER_CONFIG, _WORKER_SERVICE
    _WORKER_CONFIG = config
    _WORKER_SERVICE = None  # built lazily, on the first real request


def _worker_service() -> SageService:
    global _WORKER_SERVICE
    if _WORKER_SERVICE is None:
        service = (_WORKER_CONFIG or ServiceConfig()).build_service()
        # Fork can capture the parent's locks mid-hold; workers are
        # single-threaded, so fresh locks are always safe.
        service.registry.reset_locks_after_fork()
        _WORKER_SERVICE = service
    return _WORKER_SERVICE


#: The pipeline modules a worker needs for its first engine (a cold run,
#: a parse or winnow diagnostic, a session, an artifact) and for a
#: corpus's first read (the RFC text parser).  The parent imports them
#: before it forks, so workers share one copy instead of each compiling
#: its own in the middle of a request.
_WORKER_MODULES = ("repro.core.stages", "repro.parsing.indexed",
                   "repro.api.session", "repro.codegen.emitters",
                   "repro.codegen.interp", "repro.rfc.preprocess")


def _worker_ping() -> int:
    """Warmup no-op: forces the process to exist before the event loop
    starts adding threads that fork must not race with."""
    return os.getpid()


def _pool_run(service: SageService | None, endpoint: str, body: bytes,
              binary_in: bool, binary_out: bool, params: dict) -> tuple:
    """One pool task, inline or in a worker (``service`` None): the wire
    triple, plus this process's pid and cumulative counters for
    :meth:`WorkerPool.collect_stats`."""
    service = service or _worker_service()
    triple = run_endpoint(service, endpoint, body, binary_in=binary_in,
                          binary_out=binary_out, params=params)
    return triple, os.getpid(), _counters(service)


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
    store's root (shared by construction) comes from any one worker."""
    layers = tuple(map(_summed, zip(*(layers for layers, _s, _p in table))))
    stores = [store for _l, store, _p in table if store is not None]
    store = None
    if stores:
        store = (stores[0][0], *_summed(store[1:] for store in stores))
    profile = _summed(profile for _l, _s, profile in table)
    return {"worker_count": len(table),
            **_view((layers, store, profile), shared_store)}


# -- the pool ------------------------------------------------------------------

def _unqueue(task_ref, answer: Future) -> None:
    task = task_ref()
    if task is not None and answer.cancelled():
        task.cancel()


class WorkerPool:
    """Request execution over forked workers, or inline when that is moot.

    ``workers=None`` resolves automatically: ``os.cpu_count()`` processes
    when the machine has more than one CPU, inline otherwise (one worker
    cannot beat in-process execution).  An explicit ``workers=N``
    with ``N >= 2`` forces a process pool even on one CPU — that is how
    the concurrency tests exercise multi-process cache sharing — and
    ``workers`` of 0 or 1 forces inline.  If fork itself is unavailable
    the pool degrades to inline regardless.

    Inline mode runs one shared service behind a single-thread executor:
    pipeline work is serialized (single-worker semantics) while the
    caller's event loop stays free to answer ``/healthz``.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 workers: int | None = None, registry=None) -> None:
        self.config = config or ServiceConfig()
        requested = ((os.cpu_count() or 1) if workers is None
                     else max(int(workers), 1))
        self.mode = "inline"
        self.workers = 1
        self._service: SageService | None = None
        self._executor = None
        #: pid → that worker's counters as of its last completed request.
        self._counters: dict[int, tuple] = {}
        if requested > 1:
            self._executor = self._start_process_pool(requested)
        if self._executor is None:
            if registry is not None:
                self._service = SageService(registry=registry)
            else:
                self._service = self.config.build_service()
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )
            self._counters = {os.getpid(): _IDLE}
        else:
            self.mode = "process"
            self.workers = requested

    def _start_process_pool(self, requested: int):
        import importlib
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            return None
        for name in _WORKER_MODULES:
            importlib.import_module(name)
        # CPython's pre-fork recipe: frozen objects are out of every
        # collection, so a worker's first collections do not write to
        # (and copy-on-write duplicate) the heap it shares with us.
        freeze()
        try:
            executor = ProcessPoolExecutor(
                max_workers=requested, mp_context=context,
                initializer=_init_worker, initargs=(self.config,),
            )
            # Fork every worker *now*, from a quiet single-threaded
            # parent, instead of lazily under concurrent request load.
            pings = [executor.submit(_worker_ping) for _ in range(requested)]
            pids = {ping.result(timeout=60) for ping in pings}
        except (OSError, ValueError, TimeoutError):
            return None
        # One worker may answer two pings; fork launches them all on the
        # first submit, so the executor already knows every pid.
        pids.update(getattr(executor, "_processes", ()))
        self._counters = dict.fromkeys(pids, _IDLE)
        return executor

    # -- execution --------------------------------------------------------------
    def submit(self, endpoint: str, body: bytes = b"", *,
               binary_in: bool = False, binary_out: bool = False,
               params: dict | None = None) -> Future:
        """A future resolving to the ``(status, content_type, body)`` triple.

        The worker's counters are recorded before that future resolves, so
        a caller holding its answer already sees its request counted."""
        task = self._executor.submit(_pool_run, self._service, endpoint,
                                     bytes(body), binary_in, binary_out,
                                     dict(params or {}))
        answer = Future()
        task.add_done_callback(partial(self._settle, answer))
        # A caller that gives up (a deadline) unqueues the task if it can;
        # weakly, as a cycle would keep both alive until a gc pass.
        answer.add_done_callback(partial(_unqueue, weakref.ref(task)))
        return answer

    def _settle(self, answer: Future, task: Future) -> None:
        if task.cancelled():
            answer.cancel()
            return
        error = task.exception()
        if error is None:
            triple, pid, counters = task.result()
            self._counters[pid] = counters
        # False when the caller already cancelled its answer.
        if answer.set_running_or_notify_cancel():
            if error is None:
                answer.set_result(triple)
            else:
                answer.set_exception(error)

    def run(self, endpoint: str, body: bytes = b"", *,
            binary_in: bool = False, binary_out: bool = False,
            params: dict | None = None,
            timeout: float | None = None) -> tuple[int, str, bytes]:
        """Synchronous :meth:`submit` (tests, CLI one-shots)."""
        return self.submit(endpoint, body, binary_in=binary_in,
                           binary_out=binary_out, params=params
                           ).result(timeout=timeout)

    def collect_stats(self) -> dict:
        """Every worker's stats, as of its last completed request, plus
        the summed aggregate.

        Counters ride back on each task's result (see :meth:`submit`), so
        this submits nothing: it folds the per-pid table in memory and
        reads the shared store's on-disk footprint once.  A request still
        in flight is not counted yet.
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
    def describe(self) -> dict:
        return {"mode": self.mode, "workers": self.workers,
                "cache_dir": self.config.cache_dir}

    def close(self) -> None:
        """Cancel queued work and wait for every worker to exit (a task
        already running finishes first)."""
        self._executor.shutdown(wait=True, cancel_futures=True)

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
