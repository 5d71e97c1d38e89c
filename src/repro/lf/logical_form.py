"""Convenience wrapper over semantic terms as sentence logical forms."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ccg.semantics import Sem, iter_calls, signature


@dataclass
class LogicalForm:
    """One logical form plus derived views (signature, predicates)."""

    sem: Sem

    def __str__(self) -> str:
        return signature(self.sem)

    def predicates(self) -> list[str]:
        return [call.pred for call in iter_calls(self.sem)]


@dataclass
class SentenceLFs:
    """All logical forms for one sentence at one pipeline stage."""

    sentence: str
    forms: list[Sem] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.forms)

    @property
    def ambiguous(self) -> bool:
        return self.count > 1

    @property
    def unparsed(self) -> bool:
        return self.count == 0
