"""The interactive human-in-the-loop surface (Figure 4, as an object).

A :class:`DisambiguationSession` is one operator working one protocol:

1. **open** — run the pipeline; every sentence becomes a
   :class:`~repro.api.contracts.SentenceReport` carrying its status, the LF
   count after each winnow check, and the surviving readings by stable
   signature;
2. **iterate** — :meth:`flagged` / :meth:`pending` enumerate the sentences
   still needing a decision;
3. **resolve** — :meth:`resolve` records a
   :class:`~repro.disambiguation.resolution.Resolution` (rewrite, annotate,
   or force-select an LF by signature) into the session's
   :class:`~repro.disambiguation.resolution.DecisionJournal`, which the
   registry replays on every later run;
4. **replay** — the next :attr:`run`/:meth:`response` access re-processes
   the corpus with all journaled decisions applied; a *fresh* session over
   the same journal reproduces the same output (the governance property the
   end-to-end test locks against the golden C files).

Sessions mutate their registry (they attach the journal to it).  Pass a
private :class:`~repro.rfc.registry.ProtocolRegistry` when the process-wide
default must stay pristine.
"""

from __future__ import annotations

import pathlib

from ..ccg.semantics import signature
from ..core.engine import SageEngine, SageRun
from ..disambiguation.resolution import DecisionJournal, Resolution
from ..rfc.corpus import sentence_key
from .contracts import ProcessResponse, SentenceReport, _check_mode
from .errors import ProtocolNotFound, RequestError, SentenceNotFound


class DisambiguationSession:
    """One operator, one protocol, one decision journal."""

    def __init__(self, protocol: str, mode: str = "revised",
                 registry=None, journal: DecisionJournal | None = None,
                 journal_path: str | pathlib.Path | None = None) -> None:
        if registry is None:
            from ..rfc.registry import default_registry

            registry = default_registry()
        self.registry = registry
        self.mode = _check_mode(mode)
        try:
            self.protocol = registry.spec(protocol).name
        except KeyError:
            raise ProtocolNotFound(protocol, registry.protocols()) from None
        if journal is not None and journal_path is not None:
            raise RequestError("pass either a journal or a journal_path")
        if journal is None:
            if journal_path is not None:
                journal = DecisionJournal.load(journal_path)
            elif getattr(registry, "journal", None) is not None:
                # The registry already has a journal (e.g. a SageService
                # constructed over one): the session continues it.
                journal = registry.journal
            else:
                journal = DecisionJournal()
        self.journal = journal
        self.registry.attach_journal(journal)
        self._engine: SageEngine | None = None

    # -- running ----------------------------------------------------------------
    @property
    def engine(self) -> SageEngine:
        """The session's engine (kept across reruns for its warm caches)."""
        if self._engine is None:
            self._engine = SageEngine(mode=self.mode,
                                      protocol_registry=self.registry)
        return self._engine

    @property
    def run(self) -> SageRun:
        """The current pipeline run, with every journaled decision applied.

        The registry's run memo keys on the decision tables, so repeated
        reads return one shared run and a resolve moves to a new one.
        """
        engine = self.engine
        engine.refresh_decisions()
        return engine.process_corpus(self.protocol)

    def response(self, include_sentences: bool = True,
                 artifacts: tuple[str, ...] = ()) -> ProcessResponse:
        """The current run as a serializable :class:`ProcessResponse`."""
        return ProcessResponse.from_run(self.run, self.mode,
                                        include_sentences=include_sentences,
                                        artifacts=artifacts)

    # -- inspection -------------------------------------------------------------
    def reports(self) -> list[SentenceReport]:
        """Every sentence of the current run, in corpus order."""
        return [SentenceReport.from_result(result, index)
                for index, result in enumerate(self.run.results)]

    def flagged(self) -> list[SentenceReport]:
        """Sentences the pipeline escalated (Figure 4's feedback arrows)."""
        return [report for report in self.reports() if report.flagged]

    def pending(self) -> list[SentenceReport]:
        """Flagged sentences still needing an effective decision.

        The queue is computed on the *replayed* run: a resolution that
        worked removes its sentence by changing the status, while a
        journaled resolution that had no effect — a select_lf whose
        signature no longer matches any survivor, or a revised-mode-only
        decision in a strict session — leaves its sentence in the queue
        rather than silently hiding still-flagged work.
        """
        return self.flagged()

    def report(self, selector) -> SentenceReport:
        """One sentence's report, by corpus index or by (partial) text."""
        result, index = self._locate(selector)
        return SentenceReport.from_result(result, index)

    def survivors(self, selector) -> list[str]:
        """The surviving LF signatures of one sentence (stable order) —
        what a force-select resolution chooses among."""
        result, _index = self._locate(selector)
        if result.trace is None:
            return []
        return [signature(form) for form in result.trace.survivors]

    def _locate(self, selector):
        results = self.run.results
        if isinstance(selector, int):
            if not 0 <= selector < len(results):
                raise SentenceNotFound(
                    f"sentence index {selector} out of range "
                    f"(corpus has {len(results)} sentences)"
                )
            return results[selector], selector
        wanted = sentence_key(str(selector))
        for index, result in enumerate(results):
            if sentence_key(result.spec.text) == wanted:
                return result, index
        # Partial match fallback: unique substring of the normalized text.
        matches = [
            (result, index) for index, result in enumerate(results)
            if wanted and wanted in sentence_key(result.spec.text)
        ]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise SentenceNotFound(
                f"selector {selector!r} matches {len(matches)} sentences; "
                "be more specific"
            )
        raise SentenceNotFound(
            f"no sentence of {self.protocol} matches {selector!r}"
        )

    # -- resolving --------------------------------------------------------------
    def resolve(self, selector=None, *, rewrite: str | None = None,
                category: str = "", annotate: bool = False,
                select_lf: str | None = None, note: str = "",
                resolution: Resolution | None = None) -> Resolution:
        """Record one decision and schedule the replay.

        Either pass a ready-made ``resolution`` (its ``original`` addresses
        the sentence), or address a sentence with ``selector`` (index or
        text) and exactly one of:

        * ``rewrite="..."`` (+ optional ``category``) — replace the text;
        * ``annotate=True`` — mark it non-actionable;
        * ``select_lf="@Is(...)"`` — force one surviving reading by its
          stable signature (also accepts the survivor's index as an int).

        The resolution is appended to the journal (persisting immediately
        when the journal has a path); the decision tables change, so the
        next :attr:`run`/:meth:`response` access replays everything.
        """
        if resolution is None:
            if selector is None:
                raise RequestError(
                    "resolve needs a selector (or a ready-made resolution)"
                )
            result, _index = self._locate(selector)
            chosen = [option for option in (rewrite, select_lf) if option is not None]
            if annotate:
                chosen.append("annotate")
            if len(chosen) != 1:
                raise RequestError(
                    "pass exactly one of rewrite=, annotate=True, select_lf="
                )
            common = {
                "protocol": self.protocol,
                "status_before": str(result.status),
                "note": note,
            }
            if rewrite is not None:
                resolution = Resolution.rewrite(
                    result.spec.text, rewrite,
                    category=category or self._default_category(result),
                    **common,
                )
            elif annotate:
                resolution = Resolution.annotate(result.spec.text, **common)
            else:
                if isinstance(select_lf, int):
                    options = self.survivors(_index)
                    if not 0 <= select_lf < len(options):
                        raise RequestError(
                            f"survivor index {select_lf} out of range "
                            f"({len(options)} survivors)"
                        )
                    select_lf = options[select_lf]
                resolution = Resolution.select_lf(result.spec.text, select_lf,
                                                  **common)
        self.journal.record(resolution)
        self.registry.attach_journal(self.journal)  # drop the rewrite memo
        return resolution

    @staticmethod
    def _default_category(result) -> str:
        """The Table 6 category a rewrite of ``result`` falls under."""
        status = str(result.status)
        if status == "unparsed":
            return "unparsed"
        if status in ("ambiguous-lf", "ambiguous-ref"):
            return "ambiguous"
        return "imprecise"  # parsed fine; the operator knows better (§6.5)

    def resolutions(self) -> list[Resolution]:
        return list(self.journal)

