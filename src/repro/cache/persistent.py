"""The content-addressed cache class behind every registry cache.

:class:`ContentCache` is one in-memory front layer over an optional
shared :class:`~repro.cache.store.CacheStore`, bound to a store
``namespace`` and a value ``codec``.  With ``store=None`` it is a plain
thread-safe memo (every cache of a registry without a cache directory).
With a store:

* a ``get`` miss in memory falls through to the store; a disk hit is
  decoded, promoted into the memory layer, and counted as a hit (plus a
  separate ``disk_hits`` counter) — **not** a miss, because nothing was
  recomputed;
* every ``put`` publishes to the store atomically, so concurrent
  processes — CLI calls, CI jobs, HTTP workers — share
  warm state the moment any one of them computes it;
* a corrupt or undecodable disk entry degrades to an ordinary miss (the
  store quarantines the file), and the recompute's ``put`` republishes a
  good copy;
* ``clear()`` clears the in-memory layer only — the disk store outlives
  processes by design (the ``cache clear`` CLI drops persisted entries).

The named classes below are bindings of that one class, one per registry
cache: a namespace and a codec, nothing else.  Parse entries serialize
through the ``schema:1b`` parse-entry table, winnow entries through the
winnow-trace table and run entries through the ``sage_run`` table
(:mod:`repro.api.binenc`, imported lazily to keep this layer importable
before the api package).  Compiled-program values
(compiled callables) cannot persist, so that binding has no codec; its
disk layer stores the *rendered source* of text-rendering backends
through :meth:`ContentCache.get_source`/:meth:`~ContentCache.put_source`
instead — a fresh process skips the render and pays only the ``exec``;
see :func:`repro.runtime.harness.compile_unit`.

Cache *keys* are content fingerprints all the way down (backend name +
lexicon/chunker SHA-1 + sentence text for parses, backend + IR SHA-1 for
programs), so an edited lexicon or journal changes the keys and the store
needs no explicit invalidation — stale entries are unreachable, and
``clear`` is housekeeping, not correctness.
"""

from __future__ import annotations

import threading

#: Store namespaces, one per promoted cache.
PARSE_NAMESPACE = "parse"
WINNOW_NAMESPACE = "winnow"
RUN_NAMESPACE = "run"
COMPILED_NAMESPACE = "compiled"

_KEY_SEP = "\x1f"


def _key_string(key: tuple) -> str:
    """A cache-key tuple as the store's opaque key string."""
    return _KEY_SEP.join(str(part) for part in key)


class ContentCache:
    """A content-addressed memo, optionally written through to a store.

    Values are shared objects and must be treated as read-only.  A
    binding sets ``namespace`` (its slice of the store) and ``codec``: an
    object with ``encode(value) -> bytes`` and ``decode(bytes) -> value``,
    or None when values never leave the process.
    """

    namespace = ""
    codec = None

    def __init__(self, store=None) -> None:
        self.store = store
        self._entries: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        #: Bumped by every :meth:`clear`, so a memo built on top of this
        #: cache (the engine's run memo) can tell its entries predate it.
        self.generation = 0

    def _persists(self) -> bool:
        return self.store is not None and self.codec is not None

    def _stored(self, key: tuple) -> bool:
        """Whether ``key``'s entry lives in the store as well as in memory."""
        return self._persists()

    def get(self, key: tuple):
        """The value under ``key``, or None; each call counts one hit or
        one miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self.hits += 1
                return value
        if self._stored(key):
            payload = self.store.get(self.namespace, _key_string(key))
            value = None if payload is None else _attempt(self.codec.decode,
                                                          payload)
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
        with self._lock:
            self._entries[key] = value
        if self._stored(key):
            # Ad-hoc values outside the codec's contract stay memory-only
            # rather than failing the stage that computed them.
            payload = _attempt(self.codec.encode, value)
            if payload is not None:
                self.store.put(self.namespace, _key_string(key), payload)

    def get_source(self, key: tuple) -> str | None:
        """A rendered source published under ``key``, or None (always
        None without a store: memory has nowhere to keep sources across
        processes)."""
        if self.store is None:
            return None
        payload = self.store.get(self.namespace, _key_string(key))
        try:
            return None if payload is None else payload.decode("utf-8")
        except UnicodeDecodeError:
            return None

    def put_source(self, key: tuple, source: str) -> None:
        if self.store is not None:
            self.store.put(self.namespace, _key_string(key),
                           source.encode("utf-8"))

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            counters = {"size": len(self._entries), "hits": self.hits,
                        "misses": self.misses}
            if self._persists():
                counters["disk_hits"] = self.disk_hits
        if self.store is not None:
            counters["store"] = self.store.stats()
        return counters

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.generation += 1


def _attempt(convert, value):
    """``convert(value)``, or None when it fails: an entry that does not
    decode (say, one written by a future schema) degrades to a recompute,
    never a crash."""
    try:
        return convert(value)
    except Exception:
        return None


class _ParseEntries:
    """``(ParseResult, subject_supplied)`` pairs as ``schema:1b`` parse
    entries."""

    @staticmethod
    def encode(value) -> bytes:
        from ..api.binenc import parse_entry_to_bytes

        result, subject_supplied = value
        return parse_entry_to_bytes(result, subject_supplied)

    @staticmethod
    def decode(payload: bytes):
        from ..api.binenc import parse_entry_from_bytes

        return parse_entry_from_bytes(payload)


class _WinnowEntries:
    """:class:`~repro.disambiguation.winnow.WinnowTrace` objects as
    ``schema:1b`` winnow entries."""

    @staticmethod
    def encode(value) -> bytes:
        from ..api.binenc import winnow_entry_to_bytes

        return winnow_entry_to_bytes(value)

    @staticmethod
    def decode(payload: bytes):
        from ..api.binenc import winnow_entry_from_bytes

        return winnow_entry_from_bytes(payload)


class _RunEntries:
    """:class:`~repro.core.results.SageRun` objects as ``schema:1b`` run
    entries, their corpus by reference into ``registry``."""

    def __init__(self, registry) -> None:
        self.registry = registry

    def encode(self, value) -> bytes:
        from ..api.binenc import run_entry_to_bytes

        return run_entry_to_bytes(value, self.registry)

    def decode(self, payload: bytes):
        from ..api.binenc import run_entry_from_bytes

        return run_entry_from_bytes(payload, self.registry)


# -- bindings ------------------------------------------------------------------
# Distinct classes on purpose: each names one registry cache in stats,
# tracebacks and per-class instrumentation.

class PersistentParseCache(ContentCache):
    """The shared sentence-parse cache, promoted to a disk store.  Values
    are the parse stage's ``(ParseResult, subject_supplied)`` pairs."""

    namespace = PARSE_NAMESPACE
    codec = _ParseEntries


class PersistentWinnowCache(ContentCache):
    """The shared winnow-result cache, promoted to the same disk store.

    Values are whole :class:`~repro.disambiguation.winnow.WinnowTrace`
    objects (per-stage counts plus survivor and base forms with full
    provenance), so a warm-booting process replays every previously
    winnowed sentence — byte-identical counts, survivors, and survivor
    order — without running one check.  Keys are content fingerprints of
    the check suite, grammar substrate, sentence, and LF set (see
    :meth:`~repro.core.stages.WinnowStage.cache_key`), so rule edits make
    stale entries unreachable rather than wrong.
    """

    namespace = WINNOW_NAMESPACE
    codec = _WinnowEntries


class PersistentRunCache(ContentCache):
    """The whole-run memo, promoted to the same disk store.

    Values are whole :class:`~repro.core.results.SageRun` objects, so a
    fresh process answers a warm request with one read per protocol.
    Only keys whose last part — the registry's substrate part — is empty
    persist: those runs were computed over the pristine lexicon, chunker
    and check suite, which the key's package digest pins.  Runs over a
    mutated substrate stay in memory (see
    :func:`~repro.core.results.run_key_for`).  Decoding leaves the run's
    IR in its JSON form: it is typed, and the program fingerprint
    verified, on its first read, which raises on an entry that fails
    (:data:`~repro.api.contracts.STORED_RUN`).
    """

    namespace = RUN_NAMESPACE

    def __init__(self, store, registry) -> None:
        super().__init__(store)
        self.codec = _RunEntries(registry)

    def _stored(self, key: tuple) -> bool:
        return self._persists() and not key[-1]


class CompiledProgramCache(ContentCache):
    """A content-addressed store for compiled generated programs.

    Keys are built by the runtime harness as ``(backend_name, IR
    fingerprint)``, so identical generated code compiles exactly once per
    process no matter how many engines or scenarios request it.
    Values are function dictionaries (name → callable); compiled functions
    are not picklable, so they never leave the process that compiled them.
    """

    namespace = COMPILED_NAMESPACE


class PersistentCompiledCache(CompiledProgramCache):
    """The compiled-program cache with a disk layer for rendered sources:
    each text backend's source persists under the same ``(backend,
    SHA-1)`` key, letting a cold process skip the render step (the
    compile itself — an ``exec`` — is re-paid once per process by
    construction)."""
