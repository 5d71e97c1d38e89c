"""The process's one garbage-collector policy (DESIGN.md §10.5).

A cold batch (a corpus parsed, winnowed and generated with empty memos)
allocates hundreds of thousands of tracked objects that survive as memos
and creates no cyclic garbage, so every automatic collection inside it
only copies survivors forward.  Three calls make up the policy, and no
other module touches :mod:`gc`'s freeze machinery:

* :func:`cold_batch_gc` brackets cold batch work: one collection on entry,
  the collector off for the batch, the survivors frozen on the way out;
* :func:`release` hands the frozen objects back, at every point where
  memos are dropped (the only place frozen objects die in cycles: a
  ``Call`` or ``Lam`` term's cached normal form points back at the term),
  and collects when that point is inside a window, before its exit
  freeze;
* :func:`freeze` freezes everything now alive (the window's exit, and the
  server pool before it forks its workers).

:func:`gc_counts` / :func:`gc_delta` report the collector's counters
(:data:`GC_COUNTERS`) for ``parse --profile`` and ``/stats``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

#: The collector's counters as reports name them: objects frozen out of
#: collection, then collections run per generation.
GC_COUNTERS = ("gc_frozen", "gc_collections_gen0", "gc_collections_gen1",
               "gc_collections_gen2")

#: How many :func:`cold_batch_gc` windows are open; only the outermost acts.
_window_depth = 0

#: ``gc.get_freeze_count()`` walks every frozen object (milliseconds
#: after a cold batch), too slow for a per-request snapshot, so the count
#: is read at the first snapshot after a :func:`freeze` and kept until the
#: next freeze or release.  Frozen objects that die by reference count in
#: between are still counted.
_frozen_count: int | None = None


def freeze() -> None:
    """Move every object the collector tracks out of all later
    collections (until the next :func:`release`)."""
    global _frozen_count
    gc.freeze()
    _frozen_count = None


def release() -> None:
    """Hand every frozen object back to the collector.

    Freezing is leak-free only while nothing frozen dies in a cycle, and
    such cycles appear where memos are dropped, so every drop point calls
    this.  Inside a :func:`cold_batch_gc` window it also collects, so the
    exit freeze cannot pin the dropped cycles; outside one the next
    window's entry collection, or the automatic collector, reclaims them
    (a reset followed by a cold batch pays one full collection, not
    two)."""
    global _frozen_count
    gc.unfreeze()
    _frozen_count = 0
    if _window_depth:
        gc.collect()


@contextmanager
def cold_batch_gc():
    """Run the body as one cold batch: the outermost window collects once
    on entry (the freeze must not pin garbage the caller left behind),
    disables the collector for the batch, and on a normal exit freezes
    the survivors.  The collector's enabled state is restored as found,
    also when the body raises; nested windows do nothing."""
    global _window_depth
    outermost = _window_depth == 0
    was_enabled = gc.isenabled()
    _window_depth += 1
    try:
        if outermost:
            gc.collect()
            gc.disable()
        yield
        if outermost:
            freeze()
    finally:
        _window_depth -= 1
        if outermost and was_enabled:
            gc.enable()


def gc_counts() -> tuple[int, ...]:
    """The collector's state now, in :data:`GC_COUNTERS` order."""
    global _frozen_count
    if _frozen_count is None:
        _frozen_count = gc.get_freeze_count()
    return (_frozen_count,
            *(generation["collections"] for generation in gc.get_stats()))


def gc_delta(before: tuple[int, ...]) -> dict:
    """:data:`GC_COUNTERS` over the window since ``before`` (a
    :func:`gc_counts` tuple): the frozen count now, and the collections
    each generation ran in the window."""
    now = gc_counts()
    return dict(zip(GC_COUNTERS, (now[0], *(after - start for after, start
                                            in zip(now[1:], before[1:])))))
