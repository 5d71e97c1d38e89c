"""Persistent content-addressed caching (ROADMAP item 4).

The package has two layers:

* :mod:`repro.cache.store` — :class:`CacheStore`, the disk format: a
  versioned directory of content-addressed entries with atomic
  rename-based writes (safe for concurrent writers) and
  corruption-quarantining reads;
* :mod:`repro.cache.persistent` — :class:`PersistentParseCache` /
  :class:`PersistentWinnowCache` / :class:`PersistentCompiledCache`, the
  registry cache classes promoted to write through one shared store, so
  every fresh process (CLI call, CI job, HTTP worker)
  starts warm.

A registry opts in via ``ProtocolRegistry(cache_dir=...)`` or the
``REPRO_CACHE_DIR`` environment variable; see DESIGN.md §9 for the layout
and invalidation rules.
"""

from .persistent import (
    COMPILED_NAMESPACE,
    PARSE_NAMESPACE,
    WINNOW_NAMESPACE,
    PersistentCompiledCache,
    PersistentParseCache,
    PersistentWinnowCache,
)
from .store import LAYOUT_VERSION, CacheStore

__all__ = [
    "CacheStore",
    "LAYOUT_VERSION",
    "PARSE_NAMESPACE",
    "WINNOW_NAMESPACE",
    "COMPILED_NAMESPACE",
    "PersistentParseCache",
    "PersistentWinnowCache",
    "PersistentCompiledCache",
]
