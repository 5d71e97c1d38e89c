"""The §4.2 disambiguation stage: checks, winnowing, and human resolutions."""

from .checks import (
    ArgumentOrderingCheck,
    AssociativityCheck,
    Check,
    CheckSuite,
    DistributivityCheck,
    NestingRule,
    PredicateOrderingCheck,
    TypeCheck,
    reset_winnow_state,
)
from .profile import WinnowProfile
from .resolution import (
    RESOLUTION_KINDS,
    DecisionJournal,
    Resolution,
    ResolutionError,
    resolution_for_rewrite,
)
from .winnow import (
    IsolatedEffect,
    WinnowSummary,
    WinnowTrace,
    isolated_effects,
    summarize,
    winnow,
)

__all__ = [
    "ArgumentOrderingCheck",
    "AssociativityCheck",
    "Check",
    "CheckSuite",
    "DecisionJournal",
    "DistributivityCheck",
    "IsolatedEffect",
    "NestingRule",
    "PredicateOrderingCheck",
    "RESOLUTION_KINDS",
    "Resolution",
    "ResolutionError",
    "TypeCheck",
    "WinnowProfile",
    "WinnowSummary",
    "WinnowTrace",
    "isolated_effects",
    "reset_winnow_state",
    "resolution_for_rewrite",
    "summarize",
    "winnow",
]
