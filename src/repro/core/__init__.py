"""The SAGE pipeline: the paper's primary contribution, end to end."""

from .engine import (
    SageEngine,
    SageRun,
    SentenceResult,
    SentenceStatus,
    modal_sentences,
)
from .stages import (
    GenerateStage,
    ParsedSentence,
    ParseStage,
    WinnowStage,
    role_of,
)

__all__ = [
    "GenerateStage",
    "ParsedSentence",
    "ParseStage",
    "SageEngine",
    "SageRun",
    "SentenceResult",
    "SentenceStatus",
    "WinnowStage",
    "modal_sentences",
    "role_of",
]
