"""The §4.2 disambiguation stage: checks, winnowing, and human resolutions."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".checks": ("ArgumentOrderingCheck", "AssociativityCheck", "Check",
                "CheckSuite", "DistributivityCheck", "NestingRule",
                "PredicateOrderingCheck", "TypeCheck", "reset_winnow_state"),
    ".profile": ("WinnowProfile",),
    ".resolution": ("RESOLUTION_KINDS", "DecisionJournal", "Resolution",
                    "ResolutionError", "resolution_for_rewrite"),
    ".winnow": ("IsolatedEffect", "WinnowSummary", "WinnowTrace",
                "isolated_effects", "summarize", "winnow"),
})
