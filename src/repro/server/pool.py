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
"""

from __future__ import annotations

import json
import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from ..api.binenc import from_bytes, to_bytes
from ..api.contracts import ProcessRequest, SweepRequest, to_json
from ..api.errors import ApiError, RequestError
from ..api.service import SageService

JSON_CONTENT_TYPE = "application/json"
#: The ``schema:1b`` binary envelope (see :mod:`repro.api.binenc`), used
#: for both request bodies (``Content-Type``) and responses (``Accept``).
BINARY_CONTENT_TYPE = "application/x-repro-bin"

#: Endpoint names :func:`run_endpoint` understands.
ENDPOINTS = ("process", "sweep", "parse", "session", "stats")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a worker process needs to rebuild the service.

    Picklable by construction — it crosses the process boundary as the
    pool initializer argument, so it carries *paths*, never live objects.
    """

    cache_dir: str | None = None
    journal_path: str | None = None
    bundled_rewrites: bool = True

    def build_service(self) -> SageService:
        from ..rfc.registry import ProtocolRegistry

        if (self.cache_dir is None and self.journal_path is None
                and self.bundled_rewrites):
            # Nothing to customize: share the process-wide warm registry
            # (substrate, lexicons, parse cache) instead of rebuilding it.
            return SageService()
        registry = ProtocolRegistry(bundled_rewrites=self.bundled_rewrites,
                                    cache_dir=self.cache_dir)
        journal = None
        if self.journal_path:
            from ..disambiguation.resolution import (
                DecisionJournal,
                ResolutionError,
            )

            try:
                journal = DecisionJournal.load(self.journal_path)
            except (json.JSONDecodeError, ResolutionError, OSError) as exc:
                raise RequestError(
                    f"cannot read journal {self.journal_path}: {exc}"
                ) from exc
        return SageService(registry=registry, journal=journal)


# -- endpoint execution --------------------------------------------------------

def _rate(hits: int, misses: int) -> float | None:
    total = hits + misses
    return (hits / total) if total else None


def _json_body(payload: dict, status: int = 200) -> tuple[int, str, bytes]:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return status, JSON_CONTENT_TYPE, body


def _decode_request(body: bytes, binary_in: bool, request_type):
    """The request object (or JSON envelope string) for a wire body.

    Binary bodies must decode to exactly ``request_type``.  JSON bodies
    may be the full ``schema:1`` envelope *or* a bare field dict
    (``{"protocol": "ICMP"}``) for curl ergonomics; an empty body means
    an all-defaults request.
    """
    if binary_in:
        decoded = from_bytes(bytes(body))
        if not isinstance(decoded, request_type):
            raise RequestError(
                f"expected a {request_type.__name__} payload, got "
                f"{type(decoded).__name__}"
            )
        return decoded
    if not body or not body.strip():
        return request_type.from_dict({})
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
    if isinstance(payload, dict) and "schema" not in payload:
        return request_type.from_dict(payload)
    return text  # full envelope: the service coerces and type-checks it


def _encode_response(response, binary_out: bool) -> tuple[int, str, bytes]:
    if binary_out:
        return 200, BINARY_CONTENT_TYPE, to_bytes(response)
    return 200, JSON_CONTENT_TYPE, to_json(response).encode("utf-8")


def service_stats(service: SageService) -> dict:
    """The worker-side half of ``GET /stats``: cache counters with derived
    hit rates, persistent-store footprint, and the parser profile."""
    from ..parsing.profile import profile_snapshot

    registry = service.registry
    parse = dict(registry.parse_cache().stats())
    parse["hit_rate"] = _rate(parse.get("hits", 0), parse.get("misses", 0))
    compiled = dict(registry.compiled_cache().stats())
    compiled["hit_rate"] = _rate(compiled.get("hits", 0),
                                 compiled.get("misses", 0))
    store = registry.cache_store()
    store_stats = None
    if store is not None:
        store_stats = store.stats()
        store_stats["disk_hit_rate"] = _rate(store_stats["disk_hits"],
                                             store_stats["disk_misses"])
    return {
        "pid": os.getpid(),
        "cache_dir": registry.cache_dir,
        "parse_cache": parse,
        "compiled_cache": compiled,
        "store": store_stats,
        "profile": profile_snapshot(),
    }


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
            request = _decode_request(body, binary_in, ProcessRequest)
            return _encode_response(service.process(request), binary_out)
        if endpoint == "sweep":
            request = _decode_request(body, binary_in, SweepRequest)
            return _encode_response(service.sweep(request), binary_out)
        if endpoint == "parse":
            report = service.parse_diagnostics(
                params["protocol"],
                parser_backend=params.get("parser_backend", ""),
                mode=params.get("mode", "revised"),
            )
            return _json_body({"schema": 1, "kind": "parse_diagnostics",
                               "data": report})
        if endpoint == "session":
            session = service.session(params["protocol"],
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
        if endpoint == "stats":
            return _json_body({"schema": 1, "kind": "service_stats",
                               "data": service_stats(service)})
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


def _worker_ping() -> int:
    """Warmup no-op: forces the process to exist before the event loop
    starts adding threads that fork must not race with."""
    return os.getpid()


def _pool_run(endpoint: str, body: bytes, binary_in: bool, binary_out: bool,
              params: dict) -> tuple[int, str, bytes]:
    return run_endpoint(_worker_service(), endpoint, body,
                        binary_in=binary_in, binary_out=binary_out,
                        params=params)


def _pool_stats(rendezvous: str, expected: int, patience: float) -> dict:
    """One worker's stats, gathered under a filesystem rendezvous.

    Cache and profile counters are process-local, so ``/stats`` must hear
    from *every* worker.  A ``ProcessPoolExecutor`` worker runs one task
    at a time, so ``expected`` tasks that all block until ``expected``
    check-ins exist necessarily occupy ``expected`` distinct workers —
    the check-in files (one per pid) are the barrier.  ``patience``
    bounds the wait: a worker stuck behind a long pipeline request just
    means a partial (pid-deduplicated) aggregate, never a hang.
    """
    import time

    pid_file = os.path.join(rendezvous, str(os.getpid()))
    try:
        with open(pid_file, "w"):
            pass
    except OSError:
        return service_stats(_worker_service())
    give_up = time.monotonic() + patience
    while time.monotonic() < give_up:
        try:
            if len(os.listdir(rendezvous)) >= expected:
                break
        except OSError:
            break
        time.sleep(0.02)
    return service_stats(_worker_service())


def _sum_counters(dicts: list[dict], keys: tuple[str, ...]) -> dict:
    return {key: sum(d.get(key) or 0 for d in dicts) for key in keys}


def aggregate_stats(per_worker: list[dict]) -> dict:
    """Fold per-worker stats into one truthful view: counters sum, rates
    are recomputed over the summed window, the on-disk footprint (shared
    by construction) comes from any one worker."""
    from ..parsing.profile import COUNTER_NAMES, profile_delta

    parse = _sum_counters(
        [w["parse_cache"] for w in per_worker],
        ("size", "hits", "misses", "disk_hits"),
    )
    parse["hit_rate"] = _rate(parse["hits"], parse["misses"])
    compiled = _sum_counters(
        [w["compiled_cache"] for w in per_worker],
        ("size", "hits", "misses", "disk_hits"),
    )
    compiled["hit_rate"] = _rate(compiled["hits"], compiled["misses"])
    stores = [w["store"] for w in per_worker if w.get("store")]
    store = None
    if stores:
        store = _sum_counters(
            stores, ("disk_hits", "disk_misses", "writes", "quarantined")
        )
        store["disk_hit_rate"] = _rate(store["disk_hits"],
                                       store["disk_misses"])
        for key in ("root", "layout_version", "namespaces",
                    "quarantine_entries"):
            store[key] = stores[0].get(key)
    profiles = [w["profile"] for w in per_worker]
    zeros = {name: 0 for name in COUNTER_NAMES}
    profile = profile_delta(zeros, _sum_counters(profiles, COUNTER_NAMES))
    return {
        "worker_count": len(per_worker),
        "parse_cache": parse,
        "compiled_cache": compiled,
        "store": store,
        "profile": profile,
    }


# -- the pool ------------------------------------------------------------------

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
        cpu = os.cpu_count() or 1
        if workers is None:
            requested = cpu if cpu > 1 else 1
        else:
            requested = max(int(workers), 1)
        self.mode = "inline"
        self.workers = 1
        self._service: SageService | None = None
        self._executor = None
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
        else:
            self.mode = "process"
            self.workers = requested

    def _start_process_pool(self, requested: int):
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            return None
        try:
            executor = ProcessPoolExecutor(
                max_workers=requested, mp_context=context,
                initializer=_init_worker, initargs=(self.config,),
            )
            # Fork every worker *now*, from a quiet single-threaded
            # parent, instead of lazily under concurrent request load.
            pings = [executor.submit(_worker_ping) for _ in range(requested)]
            for ping in pings:
                ping.result(timeout=60)
        except (OSError, ValueError, TimeoutError):
            return None
        return executor

    # -- execution --------------------------------------------------------------
    def submit(self, endpoint: str, body: bytes = b"", *,
               binary_in: bool = False, binary_out: bool = False,
               params: dict | None = None) -> Future:
        """A future resolving to the ``(status, content_type, body)`` triple."""
        params = dict(params or {})
        if self.mode == "process":
            return self._executor.submit(_pool_run, endpoint, bytes(body),
                                         binary_in, binary_out, params)
        return self._executor.submit(
            run_endpoint, self._service, endpoint, body,
            binary_in=binary_in, binary_out=binary_out, params=params,
        )

    def run(self, endpoint: str, body: bytes = b"", *,
            binary_in: bool = False, binary_out: bool = False,
            params: dict | None = None,
            timeout: float | None = None) -> tuple[int, str, bytes]:
        """Synchronous :meth:`submit` (tests, CLI one-shots)."""
        return self.submit(endpoint, body, binary_in=binary_in,
                           binary_out=binary_out, params=params
                           ).result(timeout=timeout)

    def collect_stats(self, patience: float = 10.0) -> dict:
        """Stats from *every* worker plus the summed aggregate.

        Inline mode asks the one service directly.  Process mode fans a
        blocking rendezvous task out to each worker (see
        :func:`_pool_stats`); under concurrent load the barrier may time
        out and the aggregate covers the workers that answered — the
        ``worker_count`` field says how many that was.
        """
        if self.mode != "process":
            future = self._executor.submit(service_stats, self._service)
            worker = future.result(timeout=patience + 30)
            return {"workers": [worker], "aggregate": aggregate_stats([worker])}
        import shutil
        import tempfile

        rendezvous = tempfile.mkdtemp(prefix="repro-stats-")
        try:
            futures = [
                self._executor.submit(_pool_stats, rendezvous, self.workers,
                                      patience)
                for _ in range(self.workers)
            ]
            gathered: dict[int, dict] = {}
            for future in futures:
                try:
                    worker = future.result(timeout=patience + 30)
                except Exception:
                    continue  # a dying worker must not take /stats down
                gathered[worker["pid"]] = worker
        finally:
            shutil.rmtree(rendezvous, ignore_errors=True)
        per_worker = [gathered[pid] for pid in sorted(gathered)]
        return {"workers": per_worker,
                "aggregate": aggregate_stats(per_worker)}

    # -- introspection / lifecycle ----------------------------------------------
    def describe(self) -> dict:
        return {"mode": self.mode, "workers": self.workers,
                "cache_dir": self.config.cache_dir}

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

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
    "service_stats",
]
