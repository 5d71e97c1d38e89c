"""``repro.server`` — the HTTP serving layer over :class:`~repro.api.service.SageService`.

Two halves, deliberately decoupled:

* :mod:`repro.server.pool` — transport-agnostic request execution: a
  :class:`WorkerPool` that fans requests out to forked worker processes
  over one pipe each, read by the caller's event loop (when the machine
  has more than one CPU), or runs them inline on a single serialized
  thread,
  plus the endpoint handlers that turn a wire body into a wire response
  triple ``(status, content_type, bytes)`` with structured
  :class:`~repro.api.errors.ApiError` → HTTP status mapping.  Workers
  share the persistent content-addressed caches (:mod:`repro.cache`)
  through ``--cache-dir``/``$REPRO_CACHE_DIR``: a cold worker warm-starts
  every parse from disk instead of recomputing.

* :mod:`repro.server.http` — the asyncio HTTP/1.1 front end
  (:class:`ReproServer`): stdlib-only socket handling, keep-alive,
  per-request deadlines (504 on expiry), content negotiation between the
  ``schema:1`` JSON contract and the ``schema:1b`` binary envelope
  (``application/x-repro-bin``), and the ``/healthz`` + ``/stats``
  operational endpoints.

Driven by ``python -m repro serve`` and load-gated by
``benchmarks/load_harness.py`` (see ``scripts/ci.sh serve-gate``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".http": ("ReproServer",),
    ".pool": ("BINARY_CONTENT_TYPE", "JSON_CONTENT_TYPE", "ServiceConfig",
              "WorkerPool", "run_endpoint"),
})
