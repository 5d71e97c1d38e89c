"""repro.parsing — the parsing subsystem.

The paper's front end (§4.1, CCG parsing of RFC sentences into logical
forms): the category-indexed packed-forest parser
(:class:`~repro.parsing.indexed.IndexedChartParser`) is the pipeline's
only parser, and the plain CKY chart (:class:`~repro.ccg.chart.
CCGChartParser`) is its parity oracle, whose corpus-wide agreement is
locked in tests and gated in CI.  See DESIGN.md §8, and §10 for the
agenda-driven hot path, the cross-sentence span memo, and the
:mod:`.profile` counters.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".forest": ("PackedItem", "ParseForest", "PruneBudget"),
    ".indexed": ("IndexedChartParser", "reset_parser_state"),
    ".profile": ("PROFILE",),
    ".values": ("normalize_batch",),
})
