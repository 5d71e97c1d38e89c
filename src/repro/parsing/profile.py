"""Instrumentation counters for the parser hot path.

One process-global :class:`ParseProfile` (a
:class:`~repro.counters.Counters`) accumulates what the agenda-driven
indexed backend (:mod:`.indexed`) and the fused normalizer (:mod:`.values`)
actually did: agenda pops and scheduled targets, cells visited vs seeded
from the cross-sentence span memo, per-memo hit/miss counts, and budget
drops.

Consumers:

* ``SageService.parse_diagnostics`` wraps each batch parse in a delta and
  reports it under the ``"profile"`` key;
* ``python -m repro parse --profile`` renders the same delta;
* ``benchmarks/pipeline_smoke.py`` records the head-to-head sweep's
  counters into ``BENCH_pipeline.json`` and gates the span-memo reuse rate
  (formulaic RFC prose must keep reusing spans, or the cross-sentence
  memo silently stopped paying for itself).
"""

from __future__ import annotations

from ..counters import Counters

__all__ = ["ParseProfile", "PROFILE"]


class ParseProfile(Counters):
    """The parser's counters, in reporting order."""

    __slots__ = (
        "parses",               # parse_forest calls (indexed backend)
        "agenda_pops",          # targets popped off the combination agenda
        "agenda_scheduled",     # distinct targets ever pushed
        "cells_visited",        # popped targets actually combined (memo misses)
        "cells_seeded",         # popped targets seeded whole from the span memo
        "span_memo_hits",       # span-memo probes answered
        "span_memo_misses",     # span-memo probes that had to combine
        "items_reused",         # packed items adopted from the span memo
        "production_memo_hits",   # candidate outcomes answered without
        "production_memo_misses", # / with a sid-level β-engine run
        "apply_memo_hits",      # normal-form applications answered by identity
        "apply_memo_misses",
        "lexical_cache_hits",   # lexical span lookups answered
        "lexical_cache_misses",
        "budget_drops",         # items the PruneBudget rejected (counted drops)
        "deferred_items",       # combined items inserted without building terms
        "forced_items",         # deferred items whose term was later demanded
    )

    RATES = (
        ("span_memo_hits", "span_memo_misses", "span_reuse_rate"),
        ("production_memo_hits", "production_memo_misses",
         "production_memo_hit_rate"),
        ("apply_memo_hits", "apply_memo_misses", "apply_memo_hit_rate"),
        ("lexical_cache_hits", "lexical_cache_misses",
         "lexical_cache_hit_rate"),
    )


#: The process-global profile every parser in this process reports into.
PROFILE = ParseProfile()
