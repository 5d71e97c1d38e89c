"""The cached protocol registry: one canonical home for bundled corpora.

Every stage of the pipeline needs the same handful of expensive artifacts —
parsed RFC corpora, the ~400-term networking dictionary, the CCG lexicon,
and a chart parser built over it.  Before this module each consumer rebuilt
them on demand: four hardcoded ``*_corpus()`` loaders re-read and re-parsed
their RFC text on every call, ``build_lexicon()`` was invoked at eight call
sites, and each ``Sage()`` re-paid dictionary + lexicon + parser
construction.

:class:`ProtocolRegistry` replaces that with a single registration +
memoization layer:

* ``register_protocol(name, source)`` declares a protocol once — a data file
  in ``repro.data`` (or an inline/filesystem spec) is all a new protocol
  needs; no code edits across layers;
* ``load_corpus(name)`` parses at most once per registry and returns the
  same :class:`~repro.rfc.corpus.Corpus` object on every subsequent call;
* ``dictionary()`` / ``lexicon()`` / ``chunker()`` / ``parser()`` /
  ``rewrites()`` memoize the NLP/CCG substrate the same way.

The default registry (module-level :func:`default_registry`) ships with the
paper's four protocols.  All cached objects are shared: treat them as
read-only, or call :meth:`ProtocolRegistry.invalidate` after mutating the
underlying data files.  See DESIGN.md for the data-file format.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from importlib import resources

from ..ccg.chart import CCGChartParser
from ..ccg.lexicon import Lexicon, build_lexicon
from ..parsing import DEFAULT_PARSER_BACKEND, create_parser
from ..nlp.chunker import NounPhraseChunker
from ..nlp.terms import TermDictionary, load_default_dictionary
from .corpus import Corpus, Rewrite, corpus_from_text, sentence_key

DEFAULT_PACKAGE = "repro.data"

#: The corpora bundled with the reproduction
#: (name, data file, description, sender-built message names).
BUNDLED_PROTOCOLS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("ICMP", "rfc792_icmp.txt", "RFC 792: all eight ICMP message types",
     ("echo", "timestamp", "information request")),
    ("IGMP", "rfc1112_igmp.txt", "RFC 1112 Appendix I: IGMP v1 packet header",
     ()),
    ("NTP", "rfc1059_ntp.txt", "RFC 1059: NTP data format and timeout dispatch",
     ()),
    ("BFD", "rfc5880_bfd.txt", "RFC 5880: control packet and reception rules",
     ()),
)


class UnknownProtocolError(KeyError):
    """Lookup of a protocol that was never registered."""

    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = known
        super().__init__(
            f"unknown protocol {name!r}: registered protocols are "
            f"{', '.join(known) or '(none)'}"
        )

    def __str__(self) -> str:  # KeyError.__str__ repr()s the message
        return self.args[0]


@dataclass(frozen=True)
class ProtocolSpec:
    """How to obtain one protocol's curated RFC excerpt.

    Exactly one of ``source`` (a resource filename inside ``package``),
    ``path`` (a filesystem path), or ``text`` (the spec text inline) feeds
    the loader.
    """

    name: str
    source: str = ""
    package: str = DEFAULT_PACKAGE
    path: str = ""
    text: str = ""
    description: str = ""
    #: Messages the probing sender constructs; everything else is built by
    #: the responding node.  Consumed by the generator's role policy
    #: (``builder_role``) via :meth:`ProtocolRegistry.sender_built`.
    sender_built: tuple[str, ...] = ()
    #: The parser backend this protocol's corpus prefers ("" = the
    #: process default).  Engines without an explicit backend of their own
    #: resolve each sentence's protocol through
    #: :meth:`ProtocolRegistry.parser_backend_for`.
    parser_backend: str = ""

    def read_text(self) -> str:
        if self.text:
            return self.text
        if self.path:
            with open(self.path, encoding="utf-8") as handle:
                return handle.read()
        return resources.files(self.package).joinpath(self.source).read_text()


class ParseCache:
    """A content-addressed store for sentence parses.

    Keys are built by the parse stage as ``(substrate_fingerprint,
    sentence_text, field)`` — the fingerprint covers the lexicon and chunker
    content, so a cache shared across Sage instances, both pipeline modes,
    and processes (through the disk store) can never serve a parse
    produced under a different grammar.  Values are whatever the stage stores (the pipeline stores the
    ``(ParseResult, subject_supplied)`` pair); they are shared objects and
    must be treated as read-only.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple):
        with self._lock:
            if key in self._entries:
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key: tuple, value) -> None:
        with self._lock:
            self._entries[key] = value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"size": len(self._entries), "hits": self.hits,
                    "misses": self.misses}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


class CompiledProgramCache(ParseCache):
    """A content-addressed store for compiled generated programs.

    Keys are built by the runtime harness as ``(backend_name, sha1)`` where
    the SHA-1 covers the Python source (exec backend) or the IR fingerprint
    (interpreter backend), so identical generated code compiles exactly
    once per process no matter how many engines or scenarios request it.
    Values are function dictionaries (name → callable); they are shared
    objects and must be treated as read-only.  Unlike parse-cache entries,
    compiled functions are not picklable, so they never leave the process
    that compiled them.
    """

    # Source-persistence hooks, overridden by the disk-backed
    # PersistentCompiledCache (repro.cache.persistent): the harness asks
    # for a previously rendered source before re-rendering, and publishes
    # the source it renders.  The in-memory cache has nowhere to keep
    # sources across processes, so these are deliberate no-ops.
    def get_source(self, key: tuple) -> str | None:
        return None

    def put_source(self, key: tuple, source: str) -> None:
        return None


class ProtocolRegistry:
    """Protocol registration plus memoized corpus/dictionary/lexicon access.

    The registry is also where recorded human decisions replay: a
    :class:`~repro.disambiguation.resolution.DecisionJournal` attached via
    :meth:`attach_journal` overlays its rewrite/annotate resolutions on the
    bundled ``rewrites.json`` table (journal wins per sentence) and exposes
    its force-select decisions through :meth:`selections`.  Constructing
    with ``bundled_rewrites=False`` starts from an empty rewrite table —
    the journal then carries *every* decision (the generalized successor of
    ``rewrites.json``).
    """

    def __init__(self, package: str = DEFAULT_PACKAGE,
                 bundled: bool = True, bundled_rewrites: bool = True,
                 cache_dir: str | os.PathLike | None = None) -> None:
        self.package = package
        self.bundled_rewrites = bundled_rewrites
        # Persistent-cache root: an explicit cache_dir wins, then the
        # REPRO_CACHE_DIR environment variable; None keeps the caches
        # purely in-memory (the historical behavior, and the default for
        # hermetic test runs).
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self._cache_store = None
        self._specs: dict[str, ProtocolSpec] = {}
        self._corpora: dict[str, Corpus] = {}
        self._lexicons: dict[tuple, Lexicon] = {}
        self._parsers: dict[tuple, CCGChartParser] = {}
        self._dictionary: TermDictionary | None = None
        self._chunker: NounPhraseChunker | None = None
        self._rewrites: list[Rewrite] | None = None
        self._rewrites_by_original: dict[str, Rewrite] | None = None
        self._journal = None
        self._parse_cache: ParseCache | None = None
        self._winnow_cache: ParseCache | None = None
        self._compiled_cache: CompiledProgramCache | None = None
        self._lock = threading.RLock()
        if bundled:
            for name, source, description, sender_built in BUNDLED_PROTOCOLS:
                # Bundled corpora always live in repro.data, independent of
                # the package a custom registry defaults new registrations to.
                self.register_protocol(
                    name, source, package=DEFAULT_PACKAGE,
                    description=description, sender_built=sender_built,
                )

    # -- registration ---------------------------------------------------------
    def register_protocol(self, name: str, source: str = "", *,
                          package: str | None = None, path: str = "",
                          text: str = "", description: str = "",
                          sender_built: tuple[str, ...] = (),
                          parser_backend: str = "",
                          replace: bool = False) -> ProtocolSpec:
        """Declare a protocol; adding a new workload is this one call.

        ``name`` is canonicalized to upper case; lookups are
        case-insensitive.  ``parser_backend`` pins the protocol to a
        registered parsing backend (default: the process default —
        currently ``"indexed"``); engines resolve it per sentence.
        Re-registering an existing name requires ``replace=True`` (and
        drops its cached corpus).
        """
        if not (source or path or text):
            raise ValueError("register_protocol needs a source, path, or text")
        key = name.upper()
        with self._lock:
            if key in self._specs and not replace:
                raise ValueError(
                    f"protocol {key!r} is already registered; "
                    "pass replace=True to override"
                )
            spec = ProtocolSpec(
                name=key, source=source, package=package or self.package,
                path=path, text=text, description=description,
                sender_built=tuple(sender_built),
                parser_backend=parser_backend,
            )
            self._specs[key] = spec
            self._corpora.pop(key, None)
            return spec

    def unregister_protocol(self, name: str) -> None:
        key = name.upper()
        with self._lock:
            self._specs.pop(key, None)
            self._corpora.pop(key, None)

    def protocols(self) -> list[str]:
        return list(self._specs)

    def sender_built(self, name: str) -> frozenset[str]:
        """The messages of ``name`` the probing sender constructs.

        Everything not in the set is built by the responding node.  This is
        registry metadata (one line per protocol at registration) rather
        than code: the generator's role policy consults it instead of
        hardcoding the ICMP message names.
        """
        return frozenset(self.spec(name).sender_built)

    def parser_backend_for(self, name: str) -> str:
        """The parser backend ``name``'s corpus is registered to prefer
        (the process default when unpinned or unregistered)."""
        try:
            return self.spec(name).parser_backend or DEFAULT_PARSER_BACKEND
        except KeyError:
            return DEFAULT_PARSER_BACKEND

    def spec(self, name: str) -> ProtocolSpec:
        key = name.upper()
        try:
            return self._specs[key]
        except KeyError:
            raise UnknownProtocolError(name, self.protocols()) from None

    # -- corpora ---------------------------------------------------------------
    def load_corpus(self, name: str) -> Corpus:
        """The parsed corpus for ``name``; parsed once, then memoized."""
        key = name.upper()
        with self._lock:
            corpus = self._corpora.get(key)
            if corpus is None:
                spec = self.spec(key)
                corpus = corpus_from_text(spec.read_text(), spec.name)
                self._corpora[key] = corpus
            return corpus

    def corpora(self) -> list[Corpus]:
        return [self.load_corpus(name) for name in self.protocols()]

    # -- NLP / CCG substrate ---------------------------------------------------
    def dictionary(self) -> TermDictionary:
        """The bundled term dictionary (shared instance; treat as read-only)."""
        with self._lock:
            if self._dictionary is None:
                self._dictionary = load_default_dictionary()
            return self._dictionary

    def chunker(self) -> NounPhraseChunker:
        """The default chunker, sharing the memoized dictionary."""
        with self._lock:
            if self._chunker is None:
                self._chunker = NounPhraseChunker(dictionary=self.dictionary())
            return self._chunker

    def lexicon(self, groups: tuple[str, ...] | None = None,
                include_overgen: bool = True) -> Lexicon:
        """The CCG lexicon for ``groups`` (default: every group), memoized."""
        key = (groups, include_overgen)
        with self._lock:
            lexicon = self._lexicons.get(key)
            if lexicon is None:
                if groups is None:
                    lexicon = build_lexicon(include_overgen=include_overgen)
                else:
                    lexicon = build_lexicon(groups, include_overgen=include_overgen)
                self._lexicons[key] = lexicon
            return lexicon

    def parser(self, groups: tuple[str, ...] | None = None,
               include_overgen: bool = True,
               backend: str | None = None) -> CCGChartParser:
        """A parser backend over the memoized lexicon, itself memoized.

        ``backend`` names a registered parser backend (None → the process
        default); each (groups, overgen, backend) combination is built
        once and shared — backends over the same lexicon share the
        memoized :class:`~repro.ccg.lexicon.Lexicon` instance.
        """
        backend = backend or DEFAULT_PARSER_BACKEND
        key = (groups, include_overgen, backend)
        with self._lock:
            parser = self._parsers.get(key)
            if parser is None:
                parser = create_parser(
                    backend, self.lexicon(groups, include_overgen)
                )
                self._parsers[key] = parser
            return parser

    def cache_store(self):
        """The shared on-disk :class:`~repro.cache.store.CacheStore`, or
        None when the registry has no cache directory configured.

        One store instance backs both promoted caches, so their stats and
        ``clear`` views agree; built lazily because most registries
        (tests, throwaway scripts) never touch disk."""
        if self.cache_dir is None:
            return None
        with self._lock:
            if self._cache_store is None:
                from ..cache.store import CacheStore

                self._cache_store = CacheStore(self.cache_dir)
            return self._cache_store

    def parse_cache(self) -> ParseCache:
        """The shared sentence-parse cache (see :class:`ParseCache`).

        Living here rather than on ``Sage`` means every engine built over
        this registry — strict and revised mode alike — reuses each other's
        parses: identical sentence text under the same lexicon/chunker
        fingerprint is parsed exactly once per process.  With a cache
        directory configured the cache is additionally disk-backed
        (:class:`~repro.cache.persistent.PersistentParseCache`): parses
        persist across processes and are shared with concurrent ones."""
        with self._lock:
            if self._parse_cache is not None:
                return self._parse_cache
        store = self.cache_store()
        with self._lock:
            if self._parse_cache is None:
                if store is not None:
                    from ..cache.persistent import PersistentParseCache

                    self._parse_cache = PersistentParseCache(store)
                else:
                    self._parse_cache = ParseCache()
            return self._parse_cache

    def winnow_cache(self) -> ParseCache:
        """The shared winnow-result cache (whole :class:`~repro.
        disambiguation.winnow.WinnowTrace` objects by content address).

        Keys are built by :meth:`~repro.core.stages.WinnowStage.cache_key`
        as ``(suite fingerprint, grammar substrate fingerprint, field,
        sentence, LF-set digest)`` — deliberately backend-free, so engines
        on different parser backends over the same grammar serve each
        other's winnow results.  With a cache directory configured the
        cache is disk-backed (:class:`~repro.cache.persistent.
        PersistentWinnowCache`): a warm-booting process replays every
        previously winnowed sentence without running a single check."""
        with self._lock:
            if self._winnow_cache is not None:
                return self._winnow_cache
        store = self.cache_store()
        with self._lock:
            if self._winnow_cache is None:
                if store is not None:
                    from ..cache.persistent import PersistentWinnowCache

                    self._winnow_cache = PersistentWinnowCache(store)
                else:
                    self._winnow_cache = ParseCache()
            return self._winnow_cache

    def compiled_cache(self) -> CompiledProgramCache:
        """The shared compiled-program cache (see :class:`CompiledProgramCache`).

        Living here rather than on the harness means every consumer of
        generated code built over this registry — scenario adapters,
        benchmarks, repeated engine runs — compiles each distinct program
        once; repeats are a dictionary hit on the content hash.  With a
        cache directory configured, rendered sources additionally persist
        (:class:`~repro.cache.persistent.PersistentCompiledCache`), so a
        cold process skips the render step."""
        with self._lock:
            if self._compiled_cache is not None:
                return self._compiled_cache
        store = self.cache_store()
        with self._lock:
            if self._compiled_cache is None:
                if store is not None:
                    from ..cache.persistent import PersistentCompiledCache

                    self._compiled_cache = PersistentCompiledCache(store)
                else:
                    self._compiled_cache = CompiledProgramCache()
            return self._compiled_cache

    # -- rewrites and journaled decisions --------------------------------------
    REWRITES_FILENAME = "rewrites.json"

    def load_rewrites(self) -> list[Rewrite]:
        """The bundled rewrite record (Table 6 / §6.4), memoized.

        Empty when the registry was constructed with
        ``bundled_rewrites=False`` (journal-only operation)."""
        with self._lock:
            if self._rewrites is None:
                if not self.bundled_rewrites:
                    self._rewrites = []
                else:
                    raw = json.loads(
                        resources.files(self.package)
                        .joinpath(self.REWRITES_FILENAME)
                        .read_text()
                    )
                    self._rewrites = [Rewrite(**entry) for entry in raw]
            return self._rewrites

    def rewrites(self) -> dict[str, Rewrite]:
        """Whitespace-insensitive original-sentence → rewrite index.

        The bundled table overlaid with the attached journal's
        rewrite/annotate resolutions (journal wins per sentence)."""
        with self._lock:
            if self._rewrites_by_original is None:
                index = {
                    sentence_key(rewrite.original): rewrite
                    for rewrite in self.load_rewrites()
                }
                if self._journal is not None:
                    index.update(self._journal.rewrites())
                self._rewrites_by_original = index
            return self._rewrites_by_original

    def attach_journal(self, journal) -> None:
        """Attach (or with ``None`` detach) a decision journal.

        ``journal`` is any object with ``rewrites()`` and ``selections()``
        views — in practice a :class:`~repro.disambiguation.resolution.
        DecisionJournal`.  Later :meth:`rewrites`/:meth:`selections` calls
        reflect it; engines built earlier pick it up via
        ``SageEngine.refresh_decisions``.
        """
        with self._lock:
            self._journal = journal
            self._rewrites_by_original = None

    @property
    def journal(self):
        """The attached decision journal, or None."""
        return self._journal

    def apply_resolution(self, resolution) -> None:
        """Record one resolution into the attached journal and refresh.

        Attaches a fresh in-memory journal when none is bound yet, so
        callers can start resolving without ceremony.
        """
        with self._lock:
            if self._journal is None:
                from ..disambiguation.resolution import DecisionJournal

                self._journal = DecisionJournal()
            self._journal.record(resolution)
            self._rewrites_by_original = None

    def selections(self) -> dict[str, str]:
        """Journaled force-select decisions (sentence key → LF signature)."""
        with self._lock:
            if self._journal is None:
                return {}
            return self._journal.selections()

    # -- cache control ---------------------------------------------------------
    def invalidate(self, name: str | None = None) -> None:
        """Drop this registry's cached artifacts: one corpus, or everything.

        ``invalidate("ICMP")`` drops just that corpus; ``invalidate()`` also
        clears the dictionary, lexicons, parsers, chunker, and rewrites (the
        registrations themselves survive).  Only this instance's caches are
        touched — after editing ``terms.txt`` also call
        :func:`repro.nlp.terms.load_default_dictionary` with
        ``refresh=True`` to re-read the process-wide dictionary.
        """
        with self._lock:
            if name is not None:
                key = name.upper()
                self.spec(key)  # raise on unknown names
                self._corpora.pop(key, None)
                return
            self._corpora.clear()
            self._lexicons.clear()
            self._parsers.clear()
            self._dictionary = None
            self._chunker = None
            self._rewrites = None
            self._rewrites_by_original = None
            if self._parse_cache is not None:
                self._parse_cache.clear()
            if self._winnow_cache is not None:
                self._winnow_cache.clear()
            if self._compiled_cache is not None:
                self._compiled_cache.clear()

    def clear(self) -> None:
        """Alias for full invalidation."""
        self.invalidate()

    def reset_locks_after_fork(self) -> None:
        """Replace this registry's locks (and its caches') with fresh ones.

        Fork can land while another thread of the parent holds a lock; the
        child inherits it permanently held.  Single-threaded fork workers
        call this once at startup.  Living here keeps the reset in sync
        with every lock the registry owns.
        """
        self._lock = threading.RLock()
        if self._parse_cache is not None:
            self._parse_cache._lock = threading.Lock()
        if self._winnow_cache is not None:
            self._winnow_cache._lock = threading.Lock()
        if self._compiled_cache is not None:
            self._compiled_cache._lock = threading.Lock()
        if self._cache_store is not None:
            self._cache_store.reset_lock_after_fork()


# -- the default registry ------------------------------------------------------

_default_registry: ProtocolRegistry | None = None
_default_lock = threading.Lock()


def default_registry() -> ProtocolRegistry:
    """The process-wide registry holding the four bundled protocols."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = ProtocolRegistry()
        return _default_registry


def register_protocol(name: str, source: str = "", **kwargs) -> ProtocolSpec:
    """Register a protocol on the default registry (see the method)."""
    return default_registry().register_protocol(name, source, **kwargs)


def load_corpus(name: str) -> Corpus:
    """Load (or fetch the cached) corpus for ``name`` from the default registry."""
    return default_registry().load_corpus(name)
