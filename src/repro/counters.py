"""Monotonic instrumentation counters with derived hit rates.

A :class:`Counters` subclass declares its counter names as ``__slots__``
and its hit/miss pairs as ``RATES``; one process-global instance is what
the hot path increments (:data:`repro.parsing.profile.PROFILE`,
:data:`repro.disambiguation.profile.PROFILE`).  Counting is always on —
``PROFILE.x += n`` is a slot store, noise next to the work it describes —
so a snapshot is always truthful for the process, and a *delta* between
two snapshots is truthful for any bracketed region (one batch parse, one
corpus winnow, one benchmark sweep).

Hit *rates* are derived when read (:meth:`Counters.delta`,
:meth:`Counters.with_rates`), never stored: a rate is only
meaningful relative to the window it was measured over.
"""

from __future__ import annotations


class Counters:
    """A bundle of monotonic int counters (see module docstring)."""

    __slots__ = ()

    #: ``(hits, misses, rate)`` name triples: each derived rate is
    #: ``hits / (hits + misses)`` over the reported window, 0.0 when empty.
    RATES: tuple[tuple[str, str, str], ...] = ()

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (test/benchmark bracketing)."""
        for name in self.__slots__:
            setattr(self, name, 0)

    def counts(self) -> dict:
        """The raw counters as a plain dict (JSON-safe), in declared order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def delta(self, before: dict) -> dict:
        """The counters now minus ``before`` (a :meth:`counts` dict), with
        rates recomputed over that window."""
        return self.with_rates({name: getattr(self, name) - before[name]
                                for name in self.__slots__})

    @classmethod
    def with_rates(cls, counts: dict) -> dict:
        """``counts`` plus every derived rate, computed over ``counts``."""
        out = dict(counts)
        for hits, misses, rate in cls.RATES:
            total = counts[hits] + counts[misses]
            out[rate] = (counts[hits] / total) if total else 0.0
        return out


def hit_rate(hits: int, misses: int) -> float | None:
    """``hits / (hits + misses)`` for a cache report, or None before any
    lookups: a rate is only meaningful over a window that saw traffic."""
    total = hits + misses
    return (hits / total) if total else None
