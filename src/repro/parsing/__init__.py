"""repro.parsing — the parsing subsystem.

The paper's front end (§4.1, CCG parsing of RFC sentences into logical
forms) as a first-class subsystem: a closed table of two parser backends —
the ``reference`` CKY chart and the ``indexed`` packed-forest parser —
whose corpus-wide parity is locked in tests and gated in CI.  See
DESIGN.md §8, and §10 for the agenda-driven hot path, the cross-sentence
span memo, and the :mod:`.profile` counters.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".backend": ("DEFAULT_PARSER_BACKEND", "PARSER_BACKENDS",
                 "REFERENCE_PARSER_BACKEND", "create_parser"),
    ".forest": ("PackedItem", "ParseForest", "PruneBudget"),
    ".indexed": ("IndexedChartParser", "reset_parser_state"),
    ".profile": ("PROFILE",),
    ".values": ("normalize_batch",),
})
