"""The winnowing driver: sequential and isolated check application.

Produces the data behind Figure 5 (LF counts after each sequential check)
and Figure 6 (per-check effect in isolation: how many LFs each check removes
on its own, and how many sentences it touches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..ccg.semantics import Sem, consts_of
from .profile import PROFILE

if TYPE_CHECKING:  # the checks load with the first winnow, not with traces
    from .checks import CheckSuite

STAGE_BASE = "Base"
STAGE_FINAL = "Final Selection"


@dataclass
class WinnowTrace:
    """Per-sentence record of LF counts after each sequential stage."""

    sentence: str
    counts: dict[str, int] = field(default_factory=dict)
    survivors: list[Sem] = field(default_factory=list)
    base_forms: list[Sem] = field(default_factory=list)

    @property
    def base_count(self) -> int:
        return self.counts.get(STAGE_BASE, 0)

    @property
    def final_count(self) -> int:
        return len(self.survivors)

    @property
    def ambiguous_after_winnowing(self) -> bool:
        return self.final_count > 1


def _default(suite: CheckSuite | None) -> CheckSuite:
    if suite is None:
        from .checks import CheckSuite

        suite = CheckSuite.default()
    return suite


def winnow(sentence: str, forms: list[Sem], suite: CheckSuite | None = None) -> WinnowTrace:
    """Apply the §4.2 checks in order, recording the count after each."""
    suite = _default(suite)
    PROFILE.winnows += 1
    PROFILE.forms_in += len(forms)
    trace = WinnowTrace(sentence=sentence, base_forms=list(forms))
    trace.counts[STAGE_BASE] = len(forms)
    current = list(forms)
    for check in suite.in_order():
        filtered = check.filter(current)
        # A check must never wipe out every reading: if it would, the check
        # does not apply to this sentence (mirrors the paper's blocklist
        # semantics, which only ever *narrows* ambiguity).
        if filtered or not current:
            current = filtered
        trace.counts[check.name] = len(current)
    current = final_selection(current)
    trace.counts[STAGE_FINAL] = len(current)
    trace.survivors = current
    PROFILE.forms_survived += len(current)
    return trace


def final_selection(forms: list[Sem]) -> list[Sem]:
    """Figure 1's "Final LF Selection": prefer content-maximal readings.

    When vacuous-modifier lexical entries let a reading drop a constituent
    (e.g. "returned in X" parsed without binding X), the reading that grounds
    *more* of the sentence's constants is the faithful one.  Keep only the
    LFs with the maximal number of constants, sorted by their stable
    :meth:`~repro.ccg.semantics.Sem.sort_key` so survivor order (and every
    session diff or JSON snapshot derived from it) is reproducible.
    """
    if len(forms) <= 1:
        return list(forms)
    counts = [len(consts_of(form)) for form in forms]
    best = max(counts)
    kept = [form for form, count in zip(forms, counts) if count == best]
    return sorted(kept, key=Sem.sort_key)


@dataclass
class IsolatedEffect:
    """Figure 6 data: one check applied alone to the base LF sets."""

    check_name: str
    removed_per_sentence: list[int] = field(default_factory=list)
    affected_sentences: int = 0

    @property
    def mean_removed(self) -> float:
        if not self.removed_per_sentence:
            return 0.0
        return sum(self.removed_per_sentence) / len(self.removed_per_sentence)


def isolated_effects(
    sentences: list[tuple[str, list[Sem]]], suite: CheckSuite | None = None
) -> list[IsolatedEffect]:
    """Apply each check alone to every sentence's base LF set (Figure 6)."""
    suite = _default(suite)
    effects = []
    for check in suite.in_order():
        effect = IsolatedEffect(check_name=check.name)
        for _sentence, forms in sentences:
            if len(forms) <= 1:
                continue
            removed = len(forms) - len(check.filter(list(forms)))
            effect.removed_per_sentence.append(removed)
            if removed > 0:
                effect.affected_sentences += 1
        effects.append(effect)
    return effects


@dataclass
class WinnowSummary:
    """Figure 5 data over a corpus: per-stage max/avg/min LF counts."""

    stages: list[str]
    max_counts: list[int]
    avg_counts: list[float]
    min_counts: list[int]
    sentence_count: int

    def rows(self) -> list[tuple[str, int, float, int]]:
        return list(
            zip(self.stages, self.max_counts, self.avg_counts, self.min_counts)
        )


def summarize(traces: list[WinnowTrace], ambiguous_only: bool = True) -> WinnowSummary:
    """Aggregate winnow traces into the Figure 5 max/avg/min series.

    The paper plots "text fragments that could lead to multiple logical
    forms", so by default only sentences with a base count > 1 contribute.
    """
    relevant = [
        trace
        for trace in traces
        if trace.base_count > (1 if ambiguous_only else 0)
    ]
    if not relevant:
        return WinnowSummary([], [], [], [], 0)
    stages = [STAGE_BASE] + [
        check.name for check in _default(None).in_order()
    ] + [STAGE_FINAL]
    max_counts, avg_counts, min_counts = [], [], []
    for stage in stages:
        values = [trace.counts.get(stage, 0) for trace in relevant]
        max_counts.append(max(values))
        avg_counts.append(sum(values) / len(values))
        min_counts.append(min(values))
    return WinnowSummary(
        stages=stages,
        max_counts=max_counts,
        avg_counts=avg_counts,
        min_counts=min_counts,
        sentence_count=len(relevant),
    )
