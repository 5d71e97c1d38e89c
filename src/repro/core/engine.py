"""The staged execution engine composing parse → winnow → generate.

:class:`SageEngine` owns one instance of each stage from ``stages.py`` and
orchestrates the control flow the paper's Figure 4 describes — rewrite
lookup, stage sequencing, status flagging, and the human-rewrite recursion.
On top of the per-sentence pipeline it adds two batch surfaces:

* :meth:`SageEngine.process_corpus` — one corpus (identical in output to
  the historical ``Sage.process_corpus``);
* :meth:`SageEngine.process_corpora` — every registered protocol in one
  call, in process.  The parses it computes land in the shared
  :class:`~repro.rfc.registry.ParseCache`, so a follow-up run skips
  re-parsing entirely.

The historical :class:`~repro.core.pipeline.Sage` class remains as a thin
facade over this engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field

from ..ccg.chart import CCGChartParser, ParseResult
from ..ccg.lexicon import Lexicon
from ..parsing import backend_id, create_parser
from ..ccg.semantics import Sem, iter_calls, signature
from ..codegen.context import AmbiguousReference, ContextResolver, UnknownReference
from ..codegen.generator import CodeUnit, SentenceCode
from ..codegen.handlers import NonActionable
from ..disambiguation.checks import CheckSuite
from ..disambiguation.winnow import WinnowTrace
from ..nlp.chunker import NounPhraseChunker
from ..nlp.tokenizer import split_sentences
from ..rfc.corpus import Corpus, Rewrite, SpecSentence, sentence_key
from ..rfc.registry import ParseCache, ProtocolRegistry, default_registry
from .stages import GenerateStage, ParseStage, WinnowStage, role_of


class SentenceStatus(str, enum.Enum):
    """What the pipeline concluded about one sentence.

    Members are plain strings (``SentenceStatus.OK == "ok"``, hashes like
    ``"ok"``, serializes as ``"ok"``), so every historical call site that
    compared against the old string constants — and every JSON consumer —
    keeps working; the enum adds the closed set and the ``flagged`` property
    the service layer dispatches on.
    """

    OK = "ok"
    NON_ACTIONABLE = "non-actionable"
    AMBIGUOUS_LF = "ambiguous-lf"
    AMBIGUOUS_REF = "ambiguous-ref"
    UNPARSED = "unparsed"
    REWRITTEN = "rewritten"

    # String transparency: render and hash as the value so enum members and
    # raw strings interoperate as dict keys and in f-strings.
    __str__ = str.__str__
    __format__ = str.__format__

    def __hash__(self) -> int:
        return str.__hash__(self)

    @property
    def flagged(self) -> bool:
        """True when a human must look at the sentence (Figure 4)."""
        return self in FLAGGED_STATUSES

    @classmethod
    def coerce(cls, value: "SentenceStatus | str") -> "SentenceStatus | str":
        """The member for ``value`` when it names one, else the raw string
        (ad-hoc experiment statuses pass through untouched)."""
        # Dict probe instead of EnumMeta.__call__: coerce sits on the
        # deserialisation hot path (once per sentence) and the metaclass
        # call is ~10x the cost of the lookup.  Members hash as their
        # value, so passing an existing member through is a hit too.
        member = cls._value2member_map_.get(value)
        return member if member is not None else value


# Historical constant names, kept as aliases of the enum members.
STATUS_OK = SentenceStatus.OK
STATUS_NON_ACTIONABLE = SentenceStatus.NON_ACTIONABLE
STATUS_AMBIGUOUS_LF = SentenceStatus.AMBIGUOUS_LF
STATUS_AMBIGUOUS_REF = SentenceStatus.AMBIGUOUS_REF
STATUS_UNPARSED = SentenceStatus.UNPARSED
STATUS_REWRITTEN = SentenceStatus.REWRITTEN

#: Statuses a human must look at (Figure 4's feedback arrows).
FLAGGED_STATUSES = (STATUS_AMBIGUOUS_LF, STATUS_AMBIGUOUS_REF, STATUS_UNPARSED)


@dataclass
class SentenceResult:
    """Everything the pipeline derived from one specification sentence."""

    spec: SpecSentence
    status: SentenceStatus | str
    trace: WinnowTrace | None = None
    logical_form: Sem | None = None
    codes: list[SentenceCode] = dataclass_field(default_factory=list)
    rewrite: Rewrite | None = None
    sub_results: list["SentenceResult"] = dataclass_field(default_factory=list)
    subject_supplied: bool = False
    reason: str = ""
    #: True when the parser's cell budget truncated this sentence's chart:
    #: the winnow provenance may be incomplete (honest-pruning flag).
    pruned: bool = False

    @property
    def base_lf_count(self) -> int:
        return self.trace.base_count if self.trace else 0

    @property
    def final_lf_count(self) -> int:
        return self.trace.final_count if self.trace else 0


@dataclass
class SageRun:
    """One full pipeline run over a corpus."""

    corpus: Corpus
    results: list[SentenceResult]
    code_unit: CodeUnit

    def by_status(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    def flagged(self) -> list[SentenceResult]:
        """Sentences a human must look at (Figure 4's feedback arrows)."""
        return [
            result
            for result in self.results
            if result.status in FLAGGED_STATUSES
        ]

    def rewritten(self) -> list[SentenceResult]:
        return [r for r in self.results if r.status == STATUS_REWRITTEN]

    def traces(self) -> list[WinnowTrace]:
        return [r.trace for r in self.results if r.trace is not None]


def modal_sentences(run: SageRun) -> list[SentenceResult]:
    """Sentences whose code came from a @May reading — the candidates the
    §6.5 unit tests flag as under-specified."""
    flagged = []
    for result in run.results:
        form = result.logical_form
        if form is None:
            continue
        if any(call.pred == "May" for call in iter_calls(form)):
            flagged.append(result)
    return flagged


class SageEngine:
    """Composable staged pipeline: one engine, three stages, shared cache."""

    def __init__(
        self,
        mode: str = "revised",
        lexicon: Lexicon | None = None,
        chunker: NounPhraseChunker | None = None,
        suite: CheckSuite | None = None,
        resolver: ContextResolver | None = None,
        protocol_registry: ProtocolRegistry | None = None,
        parse_cache: ParseCache | None | bool = True,
        winnow_cache: ParseCache | None | bool = True,
        parser_backend: str | None = None,
    ) -> None:
        if mode not in ("strict", "revised"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.protocol_registry = protocol_registry or default_registry()
        #: Engine-wide backend override; None defers to each protocol's
        #: registered preference (``register_protocol(parser_backend=...)``)
        #: and ultimately the process default.
        self.parser_backend = parser_backend
        # Default construction shares the registry's memoized substrate, so
        # a second engine re-pays none of the dictionary/lexicon/parser cost;
        # explicit arguments still get private instances.
        chunker = chunker or self.protocol_registry.chunker()
        if lexicon is None:
            lexicon = self.protocol_registry.lexicon()
            parser = self.protocol_registry.parser(backend=parser_backend)
            self._custom_lexicon = False
        else:
            parser = create_parser(parser_backend, lexicon)
            self._custom_lexicon = True
        if parse_cache is True:
            parse_cache = self.protocol_registry.parse_cache()
        elif parse_cache is False:
            parse_cache = None
        self.parse_stage = ParseStage(parser, chunker, cache=parse_cache)
        #: Backend name → ParseStage, for per-protocol backend resolution;
        #: stages share this engine's chunker and cache.
        self._parse_stages: dict[str, ParseStage] = {
            backend_id(parser): self.parse_stage
        }
        # The winnow cache follows the parse-cache switch: a default engine
        # shares the registry's (possibly disk-backed) winnow cache, and an
        # engine built hermetic (parse_cache=False) stays fully uncached.
        if winnow_cache is True:
            winnow_cache = (self.protocol_registry.winnow_cache()
                            if parse_cache is not None else None)
        elif winnow_cache is False:
            winnow_cache = None
        self.winnow_stage = WinnowStage(
            suite, cache=winnow_cache,
            substrate_fingerprint=self.parse_stage.substrate_fingerprint,
        )
        self.generate_stage = GenerateStage(resolver=resolver)
        self.rewrites = self.protocol_registry.rewrites()
        #: Journaled LF selections (sentence key → chosen LF signature),
        #: applied in revised mode when winnowing leaves several survivors.
        self.selections = self.protocol_registry.selections()

    def set_lexicon(self, lexicon: Lexicon) -> None:
        """Swap the engine onto a new grammar.

        Rebuilds the default stage's parser over ``lexicon`` (preserving
        its registered backend, when it has one) and marks the engine
        custom-lexicon: per-protocol backend resolution stops consulting
        the registry's lexicon and every stage built from now on uses the
        supplied grammar.  Previously resolved per-backend stages are
        dropped (they carry the old grammar).
        """
        from ..parsing import parser_backend_names

        backend = backend_id(self.parse_stage.parser)
        if backend not in parser_backend_names():
            backend = None
        self.parse_stage.parser = create_parser(backend, lexicon)
        self._custom_lexicon = True
        self._parse_stages = {backend_id(self.parse_stage.parser):
                              self.parse_stage}

    def refresh_decisions(self) -> None:
        """Re-pull the human-decision tables from the registry.

        An engine snapshots ``rewrites``/``selections`` at construction;
        after new resolutions land in the registry's journal (a
        :class:`~repro.api.session.DisambiguationSession` resolving
        sentences), this picks them up without rebuilding the substrate.
        """
        self.rewrites = self.protocol_registry.rewrites()
        self.selections = self.protocol_registry.selections()

    # -- convenience views over the stages -------------------------------------
    @property
    def lexicon(self) -> Lexicon:
        return self.parse_stage.parser.lexicon

    @property
    def chunker(self) -> NounPhraseChunker:
        return self.parse_stage.chunker

    @property
    def parser(self) -> CCGChartParser:
        return self.parse_stage.parser

    @property
    def suite(self) -> CheckSuite:
        return self.winnow_stage.suite

    @property
    def parse_cache(self) -> ParseCache | None:
        return self.parse_stage.cache

    @property
    def winnow_cache(self) -> ParseCache | None:
        return self.winnow_stage.cache

    def stages(self) -> tuple[ParseStage, WinnowStage, GenerateStage]:
        return (self.parse_stage, self.winnow_stage, self.generate_stage)

    # -- per-sentence pipeline --------------------------------------------------
    def _stage_for(self, spec: SpecSentence) -> ParseStage:
        """The parse stage serving ``spec``'s protocol.

        An engine-wide ``parser_backend`` pins every sentence to one
        stage.  Otherwise the sentence's protocol resolves its registered
        backend preference; stages are built lazily per backend name and
        share this engine's chunker and parse cache (whose keys carry the
        backend id, so entries never cross).  Engines built over a custom
        lexicon always use their single private stage.
        """
        if self.parser_backend is not None or self._custom_lexicon:
            return self.parse_stage
        protocol = spec.protocol
        if not protocol:
            return self.parse_stage
        return self._stage_for_backend(
            self.protocol_registry.parser_backend_for(protocol)
        )

    def _stage_for_backend(self, backend: str) -> ParseStage:
        """The (lazily built, memoized) stage running ``backend`` for this
        engine — over the engine's own lexicon when one was supplied, the
        registry's memoized substrate otherwise.  Stages share the
        engine's chunker and parse cache; cache keys carry the backend id
        so entries never cross."""
        stage = self._parse_stages.get(backend)
        if stage is None:
            if self._custom_lexicon:
                parser = create_parser(backend, self.lexicon)
            else:
                parser = self.protocol_registry.parser(backend=backend)
            stage = ParseStage(parser, self.parse_stage.chunker,
                               cache=self.parse_stage.cache)
            self._parse_stages[backend] = stage
        return stage

    def parse_sentence(self, spec: SpecSentence) -> tuple[ParseResult, bool]:
        """Parse, retrying with the field subject supplied on zero LFs."""
        parsed = self._stage_for(spec).run(spec)
        return parsed.result, parsed.subject_supplied

    def parse_batch(self, corpus: Corpus | str, *,
                    parser_backend: str | None = None) -> list:
        """Parse a whole corpus through one backend instance (no winnow,
        no codegen) — the batch diagnostics surface behind ``python -m
        repro parse``.

        ``corpus`` is a :class:`Corpus` or a registered protocol name;
        ``parser_backend`` overrides the stage resolution (engine setting,
        then the protocol's registered preference).  Returns the
        :class:`~repro.core.stages.ParsedSentence` list in corpus order,
        cache-served like any pipeline parse.
        """
        if isinstance(corpus, str):
            corpus = self.protocol_registry.load_corpus(corpus)
        if parser_backend is None:
            stage = (self._stage_for(corpus.sentences[0])
                     if corpus.sentences else self.parse_stage)
        else:
            stage = self._stage_for_backend(parser_backend)
        return stage.run_batch(corpus.sentences)

    @staticmethod
    def _decision_for(table: dict, spec: SpecSentence):
        """Look up a journaled/bundled decision for ``spec``.

        Journal entries are protocol-scoped (``(PROTOCOL, key)`` tuple
        keys) so a decision made in one protocol's session never leaks
        onto an identical sentence in another corpus; the bundled table
        and protocol-less resolutions use bare sentence keys and apply
        everywhere.  A scoped entry wins over an unscoped one.
        """
        key = sentence_key(spec.text)
        if spec.protocol:
            scoped = table.get((spec.protocol.upper(), key))
            if scoped is not None:
                return scoped
        return table.get(key)

    def process_sentence(self, spec: SpecSentence) -> SentenceResult:
        rewrite = self._decision_for(self.rewrites, spec)
        if rewrite is not None and rewrite.category == "non-actionable":
            return SentenceResult(
                spec=spec, status=STATUS_NON_ACTIONABLE, rewrite=rewrite,
                reason="annotated non-actionable",
                codes=[SentenceCode(sentence=spec.text, status="non-actionable")],
            )

        parsed = self._stage_for(spec).run(spec)
        trace = self.winnow_stage.run(parsed)
        result = SentenceResult(
            spec=spec, status=STATUS_OK, trace=trace,
            subject_supplied=parsed.subject_supplied,
            pruned=parsed.pruned,
        )
        context = self.generate_stage.context_for(spec)

        if trace.final_count == 0:
            return self._flagged(result, STATUS_UNPARSED, rewrite)
        if trace.final_count > 1:
            form = self._journaled_selection(spec, trace.survivors)
            if form is None:
                if self.generate_stage.all_non_actionable(trace.survivors, context):
                    if rewrite is not None and rewrite.revised:
                        return self._flagged(result, STATUS_NON_ACTIONABLE, rewrite)
                    result.status = STATUS_NON_ACTIONABLE
                    result.reason = "descriptive prose (no actionable reading)"
                    result.codes = [SentenceCode(sentence=spec.text, status="non-actionable")]
                    return result
                return self._flagged(result, STATUS_AMBIGUOUS_LF, rewrite)
            result.reason = "journaled LF selection"
        else:
            form = trace.survivors[0]
        result.logical_form = form
        if (
            self.mode == "revised"
            and rewrite is not None
            and rewrite.category == "imprecise"
        ):
            # Figure 4's unit-test loop: the sentence parses cleanly but its
            # naive reading fails interoperability tests (§6.5); in revised
            # mode the post-test rewrite replaces it.
            return self._flagged(result, STATUS_AMBIGUOUS_LF, rewrite)
        try:
            handled = self.generate_stage.generate(form, context)
        except AmbiguousReference as exc:
            result.reason = str(exc)
            return self._flagged(result, STATUS_AMBIGUOUS_REF, rewrite)
        except (NonActionable, UnknownReference) as exc:
            if rewrite is not None and rewrite.revised:
                # The fragment-annotation case (Table 5's "rephrasing"): code
                # generation fails on the original, the rewrite succeeds.
                return self._flagged(result, STATUS_NON_ACTIONABLE, rewrite)
            result.status = STATUS_NON_ACTIONABLE
            result.reason = getattr(exc, "reason", str(exc))
            result.codes = [SentenceCode(sentence=spec.text, status="non-actionable")]
            return result
        result.codes = [
            SentenceCode(
                sentence=spec.text,
                ops=handled.ops,
                goal_message=handled.goal_message,
                role=context.role,
            )
        ]
        return result

    def _journaled_selection(self, spec: SpecSentence,
                             survivors: list[Sem]) -> Sem | None:
        """The survivor a journaled force-select resolution names, if any.

        Selections are human decisions, so — like rewrites — they only apply
        in revised mode; a selection whose signature matches none of the
        current survivors is ignored (the grammar moved under it), leaving
        the sentence flagged for a fresh decision.
        """
        if self.mode != "revised" or not self.selections:
            return None
        chosen = self._decision_for(self.selections, spec)
        if chosen is None:
            return None
        for form in survivors:
            if signature(form) == chosen:
                return form
        return None

    def _flagged(self, result: SentenceResult, status: SentenceStatus,
                 rewrite: Rewrite | None) -> SentenceResult:
        """A sentence needing human attention; apply its rewrite if allowed."""
        result.status = status
        result.rewrite = rewrite
        if self.mode == "revised" and rewrite is not None and rewrite.revised:
            result.status = STATUS_REWRITTEN
            for revised_sentence in split_sentences(rewrite.revised):
                sub_spec = SpecSentence(
                    text=revised_sentence,
                    protocol=result.spec.protocol,
                    message=result.spec.message,
                    field=result.spec.field,
                    kind=result.spec.kind,
                    field_group=result.spec.field_group,
                )
                sub_result = self.process_sentence(sub_spec)
                result.sub_results.append(sub_result)
                result.codes.extend(sub_result.codes)
        return result

    # -- corpus pipeline --------------------------------------------------------
    def process_corpus(self, corpus: Corpus | str) -> SageRun:
        """Run the pipeline over ``corpus`` — a :class:`Corpus` object or a
        registered protocol name (resolved through the protocol registry)."""
        if isinstance(corpus, str):
            corpus = self.protocol_registry.load_corpus(corpus)
        results = [self.process_sentence(spec) for spec in corpus.sentences]
        unit = self._assemble(corpus, results)
        return SageRun(corpus=corpus, results=results, code_unit=unit)

    def process_corpora(
        self,
        protocols: list[str] | None = None,
        *,
        parallel: bool = True,
    ) -> dict[str, SageRun]:
        """Run every protocol (default: all registered) in one call.

        Identical to calling :meth:`process_corpus` per protocol, in
        registration order.  ``parallel`` is accepted for compatibility
        and ignored: sentences are independent, so concurrency lives
        between requests (the server's worker pool), not inside one.
        """
        names = [name.upper() for name in (
            protocols if protocols is not None
            else self.protocol_registry.protocols()
        )]
        corpora = [self.protocol_registry.load_corpus(name) for name in names]
        return {name: self.process_corpus(corpus)
                for name, corpus in zip(names, corpora)}

    def _assemble(self, corpus: Corpus, results: list[SentenceResult]) -> CodeUnit:
        """IR assembly (the generate stage emits a typed Program), with the
        sender-built role metadata resolved from the protocol registry."""
        by_section: dict[str, list[SentenceCode]] = {}
        for result in results:
            by_section.setdefault(result.spec.message, []).extend(result.codes)
        try:
            sender_built = self.protocol_registry.sender_built(corpus.protocol)
        except KeyError:
            # Ad-hoc corpora processed without a registration fall back to
            # the generator's bundled-ICMP default.
            sender_built = None
        return self.generate_stage.assemble(corpus, by_section,
                                            sender_built=sender_built)

