"""The cached protocol registry: one canonical home for bundled corpora.

Every stage of the pipeline needs the same handful of expensive artifacts —
parsed RFC corpora, the ~400-term networking dictionary, the CCG lexicon,
and a chart parser built over it.  Before this module each consumer rebuilt
them on demand: four hardcoded ``*_corpus()`` loaders re-read and re-parsed
their RFC text on every call, ``build_lexicon()`` was invoked at eight call
sites, and each pipeline object re-paid dictionary + lexicon + parser
construction.

:class:`ProtocolRegistry` replaces that with a single registration +
memoization layer:

* ``register_protocol(name, source)`` declares a protocol once — a data file
  in ``repro.data`` (or an inline/filesystem spec) is all a new protocol
  needs; no code edits across layers;
* ``load_corpus(name)`` reads the RFC text at most once per registry and
  returns the same :class:`~repro.rfc.corpus.Corpus` object on every
  subsequent call; the corpus parses that text on its first read;
* ``dictionary()`` / ``lexicon()`` / ``chunker()`` / ``parser()`` /
  ``check_suite()`` / ``rewrites()`` memoize the substrate the same way;
  every engine over the registry runs on exactly these instances;
* ``parse_cache()`` / ``winnow_cache()`` / ``run_cache()`` hold the
  content-addressed pipeline results every engine over the registry
  shares (per sentence for the first two, per corpus run for the last).

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
from typing import TYPE_CHECKING

from ..cache.persistent import (
    CompiledProgramCache,
    ContentCache,
    PersistentCompiledCache,
    PersistentParseCache,
    PersistentRunCache,
    PersistentWinnowCache,
)
from ..cache.store import CacheStore
from .corpus import Corpus, Rewrite, corpus_from_text, sentence_key

if TYPE_CHECKING:  # the substrate loads on first use (see lexicon()/chunker())
    from ..ccg.lexicon import Lexicon
    from ..disambiguation.checks import CheckSuite
    from ..nlp.chunker import NounPhraseChunker
    from ..nlp.terms import TermDictionary
    from ..parsing.indexed import IndexedChartParser

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

    def read_text(self) -> str:
        if self.text:
            return self.text
        if self.path:
            with open(self.path, encoding="utf-8") as handle:
                return handle.read()
        return resources.files(self.package).joinpath(self.source).read_text()


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
        # Persistent-cache root; None keeps the caches purely in-memory.
        # $REPRO_CACHE_DIR is read by the command line, not here.
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self._cache_store = None
        self._specs: dict[str, ProtocolSpec] = {}
        self._corpora: dict[str, Corpus] = {}
        self._lexicon: Lexicon | None = None
        self._parser: IndexedChartParser | None = None
        self._dictionary: TermDictionary | None = None
        self._chunker: NounPhraseChunker | None = None
        self._suite: CheckSuite | None = None
        self._rewrites: list[Rewrite] | None = None
        self._rewrites_by_original: dict[str, Rewrite] | None = None
        self._journal = None
        #: Lexicon, chunker and check-suite fingerprints of the default
        #: substrate, taken as it was built, before anything could mutate it.
        self._pristine: dict[str, str] = {}
        #: The parse, winnow, run and compiled caches, built on first use.
        self._caches: dict[str, ContentCache] = {}
        #: Bumped by every full :meth:`invalidate`; engines rebuild their
        #: stages over the new substrate when it moves.
        self.generation = 0
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
                          replace: bool = False) -> ProtocolSpec:
        """Declare a protocol; adding a new workload is this one call.

        ``name`` is canonicalized to upper case; lookups are
        case-insensitive.  Re-registering an existing name requires ``replace=True`` (and
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

    def spec(self, name: str) -> ProtocolSpec:
        key = name.upper()
        try:
            return self._specs[key]
        except KeyError:
            raise UnknownProtocolError(name, self.protocols()) from None

    # -- corpora ---------------------------------------------------------------
    def load_corpus(self, name: str) -> Corpus:
        """The corpus for ``name``; read once, then memoized (it parses
        on its first read)."""
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
        from ..nlp.terms import load_default_dictionary

        with self._lock:
            if self._dictionary is None:
                self._dictionary = load_default_dictionary()
            return self._dictionary

    def chunker(self) -> NounPhraseChunker:
        """The default chunker, sharing the memoized dictionary."""
        from ..nlp.chunker import NounPhraseChunker

        with self._lock:
            if self._chunker is None:
                self._chunker = NounPhraseChunker(dictionary=self.dictionary())
                self._pristine["chunker"] = self._chunker.fingerprint()
            return self._chunker

    def lexicon(self) -> Lexicon:
        """The full CCG lexicon (every group, over-generating entries
        included), memoized."""
        from ..ccg.lexicon import build_lexicon

        with self._lock:
            if self._lexicon is None:
                self._lexicon = build_lexicon()
                self._pristine["lexicon"] = self._lexicon.fingerprint()
            return self._lexicon

    def parser(self) -> IndexedChartParser:
        """The pipeline's parser over the memoized lexicon, memoized."""
        from ..parsing.indexed import IndexedChartParser

        with self._lock:
            if self._parser is None:
                self._parser = IndexedChartParser(self.lexicon())
            return self._parser

    def check_suite(self) -> CheckSuite:
        """The §4.2 check suite every engine over this registry winnows
        with (shared instance; mutate it only to change every engine)."""
        from ..disambiguation.checks import CheckSuite

        with self._lock:
            if self._suite is None:
                self._suite = CheckSuite.default()
                self._pristine["suite"] = self._suite.fingerprint()
            return self._suite

    def substrate_pristine(self) -> bool:
        """True while an engine over this registry computes exactly what a
        fresh process computes: the default lexicon and the check suite
        are unbuilt or still hold what they were built with, and neither
        stage cache has been cleared (a clear retires the runs built over
        it).  The chunker is read-only once built (its fingerprint is
        hashed once, as :class:`~repro.core.stages.ParseStage` does), so
        what it was built with is what it holds."""
        lexicon = self._lexicon
        if (lexicon is not None
                and lexicon.fingerprint() != self._pristine.get("lexicon")):
            return False
        suite = self._suite
        if (suite is not None
                and suite.fingerprint() != self._pristine.get("suite")):
            return False
        caches = self._caches
        return all(cache is None or cache.generation == 0
                   for cache in (caches.get("parse"), caches.get("winnow")))

    def substrate_key(self) -> tuple:
        """The substrate part of a run key: empty while
        :meth:`substrate_pristine` (the package digest in the key then
        pins the substrate), else the ``lexicon:chunker`` fingerprint, the
        suite fingerprint and the parse and winnow caches' clear
        generations, so a mutated grammar or suite, or a cleared stage
        cache, retires the runs built before it."""
        if self.substrate_pristine():
            return ()
        self.chunker()
        return (f"{self.lexicon().fingerprint()}:{self._pristine['chunker']}",
                self.check_suite().fingerprint(),
                self.parse_cache().generation, self.winnow_cache().generation)

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
                self._cache_store = CacheStore(self.cache_dir)
            return self._cache_store

    def _cache(self, name: str, memory_class,
               persistent_class=None) -> ContentCache:
        """The registry's ``name`` cache, built on first use: a
        ``persistent_class`` over the shared store (called with the store)
        when there is one to persist to, else a ``memory_class``."""
        with self._lock:
            cache = self._caches.get(name)
            if cache is not None:
                return cache
        store = self.cache_store() if persistent_class is not None else None
        with self._lock:
            if name not in self._caches:
                self._caches[name] = (persistent_class(store) if store is not None
                                      else memory_class())
            return self._caches[name]

    def parse_cache(self) -> ContentCache:
        """The shared sentence-parse cache: ``(substrate_fingerprint,
        sentence_text, field)`` → the parse stage's ``(ParseResult,
        subject_supplied)`` pair.

        The fingerprint covers the lexicon and chunker content, so the
        cache can never serve a parse produced under a different grammar.
        Living here rather than on an engine means every engine built over
        this registry — strict and revised mode alike — reuses each other's
        parses: identical sentence text under the same lexicon/chunker
        fingerprint is parsed exactly once per process.  With a cache
        directory configured the cache is additionally disk-backed
        (:class:`~repro.cache.persistent.PersistentParseCache`): parses
        persist across processes and are shared with concurrent ones."""
        return self._cache("parse", ContentCache, PersistentParseCache)

    def winnow_cache(self) -> ContentCache:
        """The shared winnow-result cache (whole :class:`~repro.
        disambiguation.winnow.WinnowTrace` objects by content address).

        Keys are built by :meth:`~repro.core.stages.WinnowStage.cache_key`
        as ``(suite fingerprint, grammar substrate fingerprint, field,
        sentence, LF-set digest)`` — deliberately parser-free, so the
        pipeline's parser and its chart oracle over the same grammar serve
        each other's winnow results.  With a cache directory configured the
        cache is disk-backed (:class:`~repro.cache.persistent.
        PersistentWinnowCache`): a warm-booting process replays every
        previously winnowed sentence without running a single check."""
        return self._cache("winnow", ContentCache, PersistentWinnowCache)

    def run_cache(self) -> ContentCache:
        """The shared whole-run memo: corpus → :class:`~repro.core.results.
        SageRun`, keyed by :func:`~repro.core.results.run_key_for`.

        The key covers every input a run depends on (the package's code
        and data, mode, corpus content, decision tables,
        role metadata, and — once the substrate is mutated — the
        :meth:`substrate_key`), so engines built over this registry serve
        each other's runs: a warm server worker answers a repeated request
        without touching a sentence.  Runs are shared objects and must be
        treated as read-only.

        With a cache directory configured the memo is disk-backed
        (:class:`~repro.cache.persistent.PersistentRunCache`, the ``run``
        namespace): a fresh process answers a warm request with one store
        read per protocol, before it builds an engine
        (:meth:`~repro.api.service.SageService.run`).  Only runs over the
        pristine substrate persist; a mutated grammar or suite keeps its
        runs in memory."""
        return self._cache("run", ContentCache,
                           lambda store: PersistentRunCache(store, self))

    def compiled_cache(self) -> CompiledProgramCache:
        """The shared compiled-program cache (see :class:`CompiledProgramCache`).

        Living here rather than on the harness means every consumer of
        generated code built over this registry — scenario adapters,
        benchmarks, repeated engine runs — compiles each distinct program
        once; repeats are a dictionary hit on the content hash.  With a
        cache directory configured, rendered sources additionally persist
        (:class:`~repro.cache.persistent.PersistentCompiledCache`), so a
        cold process skips the render step."""
        return self._cache("compiled", CompiledProgramCache,
                           PersistentCompiledCache)

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
        clears the dictionary, lexicon, parsers, chunker, check suite and
        rewrites (the registrations themselves survive); engines built
        before it rebuild their stages over the new substrate at their
        next parse.  Only this instance's caches are
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
            self._lexicon = None
            self._parser = None
            self._dictionary = None
            self._chunker = None
            self._suite = None
            self._pristine.clear()
            self.generation += 1
            self._rewrites = None
            self._rewrites_by_original = None
            for cache in self._caches.values():
                cache.clear()

    def reset_locks_after_fork(self) -> None:
        """Replace this registry's locks (and its caches') with fresh ones.

        Fork can land while another thread of the parent holds a lock; the
        child inherits it permanently held.  Single-threaded fork workers
        call this once at startup.  Living here keeps the reset in sync
        with every lock the registry owns.
        """
        self._lock = threading.RLock()
        for cache in self._caches.values():
            cache._lock = threading.Lock()
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
