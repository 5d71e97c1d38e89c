"""Persistent promotions of the registry's in-memory caches.

:class:`PersistentParseCache` and :class:`PersistentCompiledCache` keep the
exact interface (and the in-memory front layer) of their base classes in
:mod:`repro.rfc.registry`, and add write-through to a shared
:class:`~repro.cache.store.CacheStore`:

* a ``get`` miss in memory falls through to the store; a disk hit is
  decoded, promoted into the memory layer, and counted as a hit (plus a
  separate ``disk_hits`` counter) — **not** a miss, because nothing was
  recomputed;
* every ``put`` publishes to the store atomically, so concurrent
  processes — CLI calls, CI jobs, HTTP workers — share
  warm state the moment any one of them computes it;
* a corrupt or undecodable disk entry degrades to an ordinary miss (the
  store quarantines the file), and the recompute's ``put`` republishes a
  good copy.

Parse entries serialize through the ``schema:1b`` binary envelope
(:mod:`repro.api.binenc`: the logical forms with their provenance spans /
triggers / flags, plus the parse metadata), imported lazily to keep this
layer importable before the api package.  Compiled-program entries cannot
persist their values (compiled callables), so the disk layer stores the
*rendered source* of text-rendering backends instead — a fresh process
skips the render and pays only the ``exec``; see
:func:`repro.runtime.harness.compile_unit`.

Cache *keys* are content fingerprints all the way down (backend id +
lexicon/chunker SHA-1 + sentence text for parses, backend + IR SHA-1 for
programs), so an edited lexicon or journal changes the keys and the store
needs no explicit invalidation — stale entries are unreachable, and
``clear`` is housekeeping, not correctness.
"""

from __future__ import annotations

from ..rfc.registry import CompiledProgramCache, ParseCache
from .store import CacheStore

#: Store namespaces, one per promoted cache.
PARSE_NAMESPACE = "parse"
WINNOW_NAMESPACE = "winnow"
COMPILED_NAMESPACE = "compiled"

_KEY_SEP = "\x1f"


def _key_string(key: tuple) -> str:
    """A cache-key tuple as the store's opaque key string."""
    return _KEY_SEP.join(str(part) for part in key)


class PersistentParseCache(ParseCache):
    """The shared sentence-parse cache, promoted to a disk store.

    ``clear()`` clears the in-memory layer only — the disk store outlives
    processes by design; use :meth:`clear_disk` (or the ``cache clear``
    CLI) to drop the persisted entries too.
    """

    def __init__(self, store: CacheStore) -> None:
        super().__init__()
        self.store = store
        self.disk_hits = 0

    def get(self, key: tuple):
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self.hits += 1
                return hit
        payload = self.store.get(PARSE_NAMESPACE, _key_string(key))
        if payload is not None:
            value = self._decode(payload)
            if value is not None:
                with self._lock:
                    self._entries[key] = value
                    self.hits += 1
                    self.disk_hits += 1
                return value
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: tuple, value) -> None:
        super().put(key, value)
        payload = self._encode(value)
        if payload is not None:
            self.store.put(PARSE_NAMESPACE, _key_string(key), payload)

    def clear_disk(self) -> int:
        return self.store.clear()

    def stats(self) -> dict:
        counters = super().stats()
        with self._lock:
            counters["disk_hits"] = self.disk_hits
        counters["store"] = self.store.stats()
        return counters

    @staticmethod
    def _encode(value) -> bytes | None:
        from ..api.binenc import parse_entry_to_bytes

        try:
            result, subject_supplied = value
            return parse_entry_to_bytes(result, subject_supplied)
        except Exception:
            # Ad-hoc cache values outside the pipeline's (ParseResult,
            # bool) contract stay memory-only rather than failing the parse.
            return None

    @staticmethod
    def _decode(payload: bytes):
        from ..api.binenc import parse_entry_from_bytes

        try:
            return parse_entry_from_bytes(payload)
        except Exception:
            # Decodable-header-but-bad-body entries (e.g. written by a
            # future schema) degrade to a recompute, never a crash.
            return None


class PersistentWinnowCache(ParseCache):
    """The shared winnow-result cache, promoted to the same disk store.

    Values are whole :class:`~repro.disambiguation.winnow.WinnowTrace`
    objects, serialized through the ``schema:1b`` trace codec (per-stage
    counts plus survivor and base forms with full provenance), so a
    warm-booting process replays every previously winnowed sentence —
    byte-identical counts, survivors, and survivor order — without running
    one check.  Keys are content fingerprints of the check suite, grammar
    substrate, sentence, and LF set (see
    :meth:`~repro.core.stages.WinnowStage.cache_key`), so rule edits make
    stale entries unreachable rather than wrong.
    """

    def __init__(self, store: CacheStore) -> None:
        super().__init__()
        self.store = store
        self.disk_hits = 0

    def get(self, key: tuple):
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self.hits += 1
                return hit
        payload = self.store.get(WINNOW_NAMESPACE, _key_string(key))
        if payload is not None:
            value = self._decode(payload)
            if value is not None:
                with self._lock:
                    self._entries[key] = value
                    self.hits += 1
                    self.disk_hits += 1
                return value
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: tuple, value) -> None:
        super().put(key, value)
        payload = self._encode(value)
        if payload is not None:
            self.store.put(WINNOW_NAMESPACE, _key_string(key), payload)

    def clear_disk(self) -> int:
        return self.store.clear()

    def stats(self) -> dict:
        counters = super().stats()
        with self._lock:
            counters["disk_hits"] = self.disk_hits
        counters["store"] = self.store.stats()
        return counters

    @staticmethod
    def _encode(value) -> bytes | None:
        from ..api.binenc import winnow_entry_to_bytes

        try:
            return winnow_entry_to_bytes(value)
        except Exception:
            # Ad-hoc values outside the WinnowTrace contract stay
            # memory-only rather than failing the winnow.
            return None

    @staticmethod
    def _decode(payload: bytes):
        from ..api.binenc import winnow_entry_from_bytes

        try:
            return winnow_entry_from_bytes(payload)
        except Exception:
            return None


class PersistentCompiledCache(CompiledProgramCache):
    """The compiled-program cache with a disk layer for rendered sources.

    Values (compiled function tables) stay process-local; what persists is
    each text backend's rendered source under the same ``(backend, SHA-1)``
    key, letting a cold process skip the render step (the compile itself —
    an ``exec`` — is re-paid once per process by construction).
    """

    def __init__(self, store: CacheStore) -> None:
        super().__init__()
        self.store = store

    def get_source(self, key: tuple) -> str | None:
        payload = self.store.get(COMPILED_NAMESPACE, _key_string(key))
        if payload is None:
            return None
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError:
            return None

    def put_source(self, key: tuple, source: str) -> None:
        self.store.put(COMPILED_NAMESPACE, _key_string(key),
                       source.encode("utf-8"))

    def stats(self) -> dict:
        counters = super().stats()
        counters["store"] = self.store.stats()
        return counters
