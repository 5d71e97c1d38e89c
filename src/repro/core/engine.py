"""The staged execution engine: parse → winnow → generate (Figure 1).

:class:`SageEngine` owns one instance of each stage from ``stages.py`` and
orchestrates the control flow the paper's Figure 4 describes — rewrite
lookup, stage sequencing, status flagging, and the human-rewrite recursion.
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

On top of the per-sentence pipeline the engine adds two batch surfaces:

* :meth:`SageEngine.process_corpus` — one corpus;
* :meth:`SageEngine.process_corpora` — every registered protocol in one
  call, in process.  The parses it computes land in the registry's shared
  parse cache, so a follow-up run skips re-parsing entirely.

Every engine runs on its registry's substrate (lexicon, chunker, parser,
check suite, stage caches) and memoizes whole runs: :meth:`SageEngine.
run_key` addresses a run by the content of everything it depends on, and
the registry's run memo answers a repeated ``process_corpus`` without
running a single stage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..ccg.semantics import Sem, signature
from ..codegen.ir import Program, SentenceCode
from ..gcpolicy import cold_batch_gc
from ..nlp.tokenizer import split_sentences
from ..rfc.corpus import Corpus, Rewrite, SpecSentence, sentence_key
from ..rfc.registry import ProtocolRegistry, default_registry
from .results import (  # noqa: F401  (re-exported: the engine's results)
    FLAGGED_STATUSES,
    SageRun,
    SentenceResult,
    SentenceStatus,
    modal_sentences,
    run_key_for,
)

if TYPE_CHECKING:  # the stages and their substrate load with the first engine
    from ..ccg.chart import CCGChartParser, ParseResult
    from ..ccg.lexicon import Lexicon
    from ..disambiguation.checks import CheckSuite
    from ..nlp.chunker import NounPhraseChunker
    from .stages import ParseStage


class SageEngine:
    """Composable staged pipeline: one engine, three stages, run over the
    registry's substrate and caches."""

    def __init__(self, mode: str = "revised",
                 protocol_registry: ProtocolRegistry | None = None) -> None:
        from .stages import GenerateStage

        if mode not in ("strict", "revised"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.protocol_registry = protocol_registry or default_registry()
        # Built eagerly from the registry's memoized substrate, so a second
        # engine re-pays none of the dictionary/lexicon/parser/suite cost.
        self._build_stages()
        self.generate_stage = GenerateStage()
        self._run_cache = self.protocol_registry.run_cache()
        self.rewrites = self.protocol_registry.rewrites()
        #: Journaled LF selections (sentence key → chosen LF signature),
        #: applied in revised mode when winnowing leaves several survivors.
        self.selections = self.protocol_registry.selections()

    def _build_stages(self) -> None:
        """Build the parse and winnow stages over the registry's current
        substrate; a full :meth:`~repro.rfc.registry.ProtocolRegistry.
        invalidate` makes the next parse rebuild them, so an engine never
        computes over a substrate the run keys no longer describe."""
        from .stages import ParseStage, WinnowStage

        registry = self.protocol_registry
        self._generation = registry.generation
        self.parse_stage = ParseStage(
            registry.parser(), registry.chunker(),
            cache=registry.parse_cache())
        self.winnow_stage = WinnowStage(
            registry.check_suite(), cache=registry.winnow_cache(),
            substrate_fingerprint=self.parse_stage.substrate_fingerprint,
        )

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

    # -- per-sentence pipeline --------------------------------------------------
    def current_parse_stage(self) -> ParseStage:
        """The parse stage, after rebuilding both stages if a full
        invalidate moved the registry's substrate since they were built."""
        if self._generation != self.protocol_registry.generation:
            self._build_stages()
        return self.parse_stage

    def parse_sentence(self, spec: SpecSentence) -> tuple[ParseResult, bool]:
        """Parse, retrying with the field subject supplied on zero LFs."""
        parsed = self.current_parse_stage().run(spec)
        return parsed.result, parsed.subject_supplied

    def parse_batch(self, corpus: Corpus | str) -> list:
        """Parse a whole corpus through the engine's parser (no winnow, no
        codegen) — the batch diagnostics surface behind ``python -m repro
        parse``.

        ``corpus`` is a :class:`Corpus` or a registered protocol name.
        Returns the :class:`~repro.core.stages.ParsedSentence` list in
        corpus order, cache-served like any pipeline parse.
        """
        if isinstance(corpus, str):
            corpus = self.protocol_registry.load_corpus(corpus)
        return self.current_parse_stage().run_batch(corpus.sentences)

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
        from ..codegen.context import AmbiguousReference, UnknownReference
        from ..codegen.handlers import NonActionable

        rewrite = self._decision_for(self.rewrites, spec)
        if rewrite is not None and rewrite.category == "non-actionable":
            return SentenceResult(
                spec=spec, status=SentenceStatus.NON_ACTIONABLE,
                rewrite=rewrite,
                reason="annotated non-actionable",
                codes=[SentenceCode(sentence=spec.text, status="non-actionable")],
            )

        parsed = self.current_parse_stage().run(spec)
        trace = self.winnow_stage.run(parsed)
        result = SentenceResult(
            spec=spec, status=SentenceStatus.OK, trace=trace,
            subject_supplied=parsed.subject_supplied,
            pruned=parsed.pruned,
        )
        context = self.generate_stage.context_for(spec)

        if trace.final_count == 0:
            return self._flagged(result, SentenceStatus.UNPARSED, rewrite)
        if trace.final_count > 1:
            form = self._journaled_selection(spec, trace.survivors)
            if form is None:
                if self.generate_stage.all_non_actionable(trace.survivors, context):
                    if rewrite is not None and rewrite.revised:
                        return self._flagged(
                            result, SentenceStatus.NON_ACTIONABLE, rewrite)
                    result.status = SentenceStatus.NON_ACTIONABLE
                    result.reason = "descriptive prose (no actionable reading)"
                    result.codes = [SentenceCode(sentence=spec.text, status="non-actionable")]
                    return result
                return self._flagged(result, SentenceStatus.AMBIGUOUS_LF, rewrite)
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
            return self._flagged(result, SentenceStatus.AMBIGUOUS_LF, rewrite)
        try:
            handled = self.generate_stage.generate(form, context)
        except AmbiguousReference as exc:
            result.reason = str(exc)
            return self._flagged(result, SentenceStatus.AMBIGUOUS_REF, rewrite)
        except (NonActionable, UnknownReference) as exc:
            if rewrite is not None and rewrite.revised:
                # The fragment-annotation case (Table 5's "rephrasing"): code
                # generation fails on the original, the rewrite succeeds.
                return self._flagged(result, SentenceStatus.NON_ACTIONABLE, rewrite)
            result.status = SentenceStatus.NON_ACTIONABLE
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
            result.status = SentenceStatus.REWRITTEN
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
    def run_key(self, corpus: Corpus) -> tuple | None:
        """The content address of ``process_corpus(corpus)``:
        :func:`run_key_for` over this engine's registry, mode and decision
        tables (None for a corpus built by hand).
        :meth:`~repro.api.service.SageService.run` computes the same key
        without building an engine."""
        return run_key_for(self.protocol_registry, corpus, self.mode,
                           self.rewrites, self.selections)

    def process_corpus(self, corpus: Corpus | str) -> SageRun:
        """Run the pipeline over ``corpus`` — a :class:`Corpus` object or a
        registered protocol name (resolved through the protocol registry).

        A run whose :meth:`run_key` is already in the registry's run memo
        is returned from there without touching a sentence or the garbage
        collector; the returned :class:`SageRun` is then shared and must be
        treated as read-only.  A miss goes to :meth:`compute`.
        """
        if isinstance(corpus, str):
            corpus = self.protocol_registry.load_corpus(corpus)
        key = self.run_key(corpus)
        run = self._memoized(key)
        return self.compute(corpus, key) if run is None else run

    def process_corpora(
        self,
        protocols: list[str] | None = None,
        *,
        parallel: bool = True,
    ) -> dict[str, SageRun]:
        """Run every protocol (default: all registered) in one call.

        Identical to calling :meth:`process_corpus` per protocol, in
        registration order, except that the runs the memo misses share one
        :func:`cold_batch_gc` window.  ``parallel`` is ignored: sentences
        are independent, so concurrency lives between requests (the
        server's worker pool), not inside one.  The keyword stays only
        because ``perfbench/workloads.py`` still passes it; no other caller
        does.
        """
        names = list(dict.fromkeys(name.upper() for name in (
            protocols if protocols is not None
            else self.protocol_registry.protocols()
        )))
        corpora = [self.protocol_registry.load_corpus(name) for name in names]
        keys = [self.run_key(corpus) for corpus in corpora]
        runs = [self._memoized(key) for key in keys]
        if any(run is None for run in runs):
            with cold_batch_gc():  # the compute windows nest inside this one
                runs = [self.compute(corpus, key) if run is None else run
                        for corpus, key, run in zip(corpora, keys, runs)]
        return dict(zip(names, runs))

    def _memoized(self, key: tuple | None) -> SageRun | None:
        """The run memo's entry under ``key`` (one counted lookup), or
        None on a miss or when ``key`` is None (a corpus built by hand)."""
        return None if key is None else self._run_cache.get(key)

    def compute(self, corpus: Corpus, key: tuple | None) -> SageRun:
        """Run every stage over ``corpus`` inside one
        :func:`cold_batch_gc` window and memoize the run under ``key``
        (unless None) — the path behind every run-memo miss."""
        with cold_batch_gc():
            results = [self.process_sentence(spec)
                       for spec in corpus.sentences]
            run = SageRun(corpus=corpus, results=results,
                          code_unit=self._assemble(corpus, results))
            if key is not None:
                self._run_cache.put(key, run)
        return run

    def _assemble(self, corpus: Corpus, results: list[SentenceResult]) -> Program:
        """IR assembly (the generate stage emits a typed Program), with the
        sender-built role metadata resolved from the protocol registry."""
        by_section: dict[str, list[SentenceCode]] = {}
        for result in results:
            by_section.setdefault(result.spec.message, []).extend(result.codes)
        try:
            sender_built = self.protocol_registry.sender_built(corpus.protocol)
        except KeyError:
            # Ad-hoc corpora processed without a registration fall back to
            # the bundled-ICMP default of ``builder_role``.
            sender_built = None
        return self.generate_stage.assemble(corpus, by_section,
                                            sender_built=sender_built)

