"""Instrumentation counters for the winnow hot path.

One process-global :class:`WinnowProfile` (a
:class:`~repro.counters.Counters`) accumulates what the memoized §4.2
checks (:mod:`.checks`) and the cached :class:`WinnowStage` actually did:
winnow calls and form flow, per-memo hit/miss counts for the sid-keyed
canonical-signature / type / nesting tables, the per-node span/calls
traversal caches, and the stage-level winnow result cache.

Consumers:

* ``SageService.winnow_diagnostics`` wraps a corpus winnow in a delta and
  reports it under the ``"profile"`` key;
* ``python -m repro winnow --profile`` renders the same delta;
* ``benchmarks/pipeline_smoke.py`` records the warm sweep's counters into
  ``BENCH_pipeline.json`` under ``winnow_profile``.
"""

from __future__ import annotations

from ..counters import Counters

__all__ = ["WinnowProfile", "PROFILE"]


class WinnowProfile(Counters):
    """The winnow stage's counters, in reporting order."""

    __slots__ = (
        "winnows",              # winnow() calls (cache misses at the stage level)
        "forms_in",             # base logical forms entering winnow()
        "forms_survived",       # survivors leaving winnow()
        "canon_memo_hits",      # sid → canonical-form probes answered
        "canon_memo_misses",
        "type_memo_hits",       # sid → well-typed probes answered
        "type_memo_misses",
        "nesting_memo_hits",    # sid → nesting-ordered probes answered
        "nesting_memo_misses",
        "span_cache_hits",      # per-node span_of results answered
        "span_cache_misses",
        "calls_cache_hits",     # per-node iter_calls tuples answered
        "calls_cache_misses",
        "form_cache_hits",      # per-form provenance check results answered
        "form_cache_misses",    # (argument ordering + distributivity)
        "stage_cache_hits",     # WinnowStage result-cache probes answered
        "stage_cache_misses",
    )

    RATES = (
        ("canon_memo_hits", "canon_memo_misses", "canon_memo_hit_rate"),
        ("type_memo_hits", "type_memo_misses", "type_memo_hit_rate"),
        ("nesting_memo_hits", "nesting_memo_misses", "nesting_memo_hit_rate"),
        ("span_cache_hits", "span_cache_misses", "span_cache_hit_rate"),
        ("calls_cache_hits", "calls_cache_misses", "calls_cache_hit_rate"),
        ("form_cache_hits", "form_cache_misses", "form_cache_hit_rate"),
        ("stage_cache_hits", "stage_cache_misses", "stage_cache_hit_rate"),
    )


#: The process-global profile every winnow in this process reports into.
PROFILE = WinnowProfile()
