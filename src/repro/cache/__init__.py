"""Persistent content-addressed caching.

The package has two layers:

* :mod:`repro.cache.store` — :class:`CacheStore`, the disk format: a
  versioned directory of content-addressed entries with atomic
  rename-based writes (safe for concurrent writers) and
  corruption-quarantining reads;
* :mod:`repro.cache.persistent` — :class:`ContentCache`, the one cache
  class behind every registry cache: an in-memory memo that, bound to a
  namespace and a codec (:class:`PersistentParseCache` /
  :class:`PersistentWinnowCache` / :class:`PersistentRunCache` /
  :class:`PersistentCompiledCache`),
  writes through to one shared store, so every fresh process (CLI call,
  CI job, HTTP worker) starts warm.

A registry opts in via ``ProtocolRegistry(cache_dir=...)``; the command
line passes it ``--cache-dir`` or, failing that, the ``REPRO_CACHE_DIR``
environment variable.  See DESIGN.md §9 for the layout and invalidation
rules.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".persistent": ("COMPILED_NAMESPACE", "PARSE_NAMESPACE",
                    "RUN_NAMESPACE", "WINNOW_NAMESPACE", "ContentCache",
                    "PersistentCompiledCache", "PersistentParseCache",
                    "PersistentRunCache", "PersistentWinnowCache"),
    ".store": ("LAYOUT_VERSION", "CacheStore"),
})
