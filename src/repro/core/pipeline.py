"""The SAGE pipeline facade: parse → disambiguate → generate code (Figure 1).

Per sentence:

1. NP-chunk and CCG-parse; on zero logical forms, re-parse with the
   header-field subject supplied from document structure (§4.1);
2. winnow logical forms through the §4.2 checks;
3. route the survivor to code generation; non-actionable sentences become
   ``@AdvComment`` annotations, ambiguous references are flagged.

Two modes mirror Figure 4's human-in-the-loop:

* ``strict`` — the RFC text as-is: ambiguous/unparsed sentences are flagged
  and produce no code (and the naive reading of under-specified sentences
  flows through, ready to fail unit tests);
* ``revised`` — sentences with entries in ``rewrites.json`` are replaced by
  their human rewrite before parsing, yielding clean code.

The heavy lifting lives in :mod:`repro.core.stages` (the three stage
objects) and :mod:`repro.core.engine` (the :class:`SageEngine` composing
them, with parse caching and multi-protocol batch runs).
:class:`Sage` here is a thin compatible facade over one engine: historical
call sites keep working unchanged, and ``Sage.process_corpus`` output is
identical to the engine's.
"""

from __future__ import annotations

from ..ccg.chart import ParseResult
from ..ccg.lexicon import Lexicon
from ..codegen.context import ContextResolver, SentenceContext
from ..disambiguation.checks import CheckSuite
from ..nlp.chunker import NounPhraseChunker
from ..nlp.tokenizer import Token
from ..rfc.corpus import Corpus, SpecSentence
from ..rfc.registry import ProtocolRegistry
from .engine import (
    STATUS_AMBIGUOUS_LF,
    STATUS_AMBIGUOUS_REF,
    STATUS_NON_ACTIONABLE,
    STATUS_OK,
    STATUS_REWRITTEN,
    STATUS_UNPARSED,
    SageEngine,
    SageRun,
    SentenceResult,
    SentenceStatus,
    modal_sentences,
)
from .stages import ParseStage, role_of

__all__ = [
    "STATUS_AMBIGUOUS_LF",
    "STATUS_AMBIGUOUS_REF",
    "STATUS_NON_ACTIONABLE",
    "STATUS_OK",
    "STATUS_REWRITTEN",
    "STATUS_UNPARSED",
    "Sage",
    "SageRun",
    "SentenceResult",
    "SentenceStatus",
    "modal_sentences",
]


class Sage:
    """The end-to-end pipeline object (one per run) — facade over an engine.

    Construction arguments, attributes, and per-sentence/per-corpus methods
    are unchanged from the pre-engine pipeline; the instance simply owns a
    :class:`~repro.core.engine.SageEngine` and delegates.  Code that wants
    the batch surface should use the engine directly (``sage.engine``
    or ``SageEngine(...)``).
    """

    def __init__(
        self,
        mode: str = "revised",
        lexicon: Lexicon | None = None,
        chunker: NounPhraseChunker | None = None,
        suite: CheckSuite | None = None,
        resolver: ContextResolver | None = None,
        protocol_registry: ProtocolRegistry | None = None,
    ) -> None:
        self.engine = SageEngine(
            mode=mode,
            lexicon=lexicon,
            chunker=chunker,
            suite=suite,
            resolver=resolver,
            protocol_registry=protocol_registry,
        )

    # -- substrate views (historical attribute surface) -------------------------
    # These were plain instance attributes before the engine refactor, and
    # assigning to them was a supported pattern (tests swap rewrite tables,
    # experiments swap check suites) — so every property also has a setter
    # that delegates to the owning stage.
    @property
    def mode(self) -> str:
        return self.engine.mode

    @mode.setter
    def mode(self, mode: str) -> None:
        if mode not in ("strict", "revised"):
            raise ValueError(f"unknown mode {mode!r}")
        self.engine.mode = mode

    @property
    def protocol_registry(self) -> ProtocolRegistry:
        return self.engine.protocol_registry

    @protocol_registry.setter
    def protocol_registry(self, registry: ProtocolRegistry) -> None:
        # Historical semantics: assignment swaps the registry used for
        # corpus-name resolution; substrate already built is untouched.
        self.engine.protocol_registry = registry

    @property
    def lexicon(self) -> Lexicon:
        return self.engine.lexicon

    @lexicon.setter
    def lexicon(self, lexicon: Lexicon) -> None:
        # Rebuild the parser over the new grammar, preserving whichever
        # registered backend the engine's stage was running (ad-hoc parser
        # objects rebuild as the default backend, the historical
        # behavior).  Marks the engine custom-lexicon so per-protocol
        # backend resolution can never fall back to the registry grammar.
        self.engine.set_lexicon(lexicon)

    @property
    def chunker(self) -> NounPhraseChunker:
        return self.engine.chunker

    @chunker.setter
    def chunker(self, chunker: NounPhraseChunker) -> None:
        self.engine.parse_stage.chunker = chunker

    @property
    def parser(self):
        return self.engine.parser

    @parser.setter
    def parser(self, parser) -> None:
        self.engine.parse_stage.parser = parser

    @property
    def suite(self) -> CheckSuite:
        return self.engine.suite

    @suite.setter
    def suite(self, suite: CheckSuite) -> None:
        self.engine.winnow_stage.suite = suite

    @property
    def registry(self):
        """The handler registry (historical name)."""
        return self.engine.generate_stage.handlers

    @registry.setter
    def registry(self, handlers) -> None:
        self.engine.generate_stage.handlers = handlers

    @property
    def rewrites(self):
        return self.engine.rewrites

    @rewrites.setter
    def rewrites(self, rewrites) -> None:
        self.engine.rewrites = rewrites

    # -- pipeline surface -------------------------------------------------------
    def parse_sentence(self, spec: SpecSentence) -> tuple[ParseResult, bool]:
        """Parse, retrying with the field subject supplied on zero LFs."""
        return self.engine.parse_sentence(spec)

    def process_sentence(self, spec: SpecSentence) -> SentenceResult:
        return self.engine.process_sentence(spec)

    def process_corpus(self, corpus: Corpus | str) -> SageRun:
        """Run the pipeline over ``corpus`` — a :class:`Corpus` object or a
        registered protocol name (resolved through the protocol registry)."""
        return self.engine.process_corpus(corpus)

    # -- historical helpers, now stage methods ----------------------------------
    @staticmethod
    def _supply_variants(spec: SpecSentence, tokens: list[Token]):
        return ParseStage.supply_variants(spec, tokens)

    @staticmethod
    def _role_of(text: str) -> str:
        return role_of(text)

    def _context_for(self, spec: SpecSentence) -> SentenceContext:
        return self.engine.generate_stage.context_for(spec)
