"""The SAGE pipeline: the paper's primary contribution, end to end."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".engine": ("SageEngine",),
    ".results": ("SageRun", "SentenceResult", "SentenceStatus",
                 "modal_sentences"),
    ".stages": ("GenerateStage", "ParsedSentence", "ParseStage",
                "WinnowStage", "role_of"),
})
