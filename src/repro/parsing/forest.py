"""The packed parse forest: shared subderivations, lazy LF enumeration.

A CKY chart whose cells deduplicate semantically is already *packing*
derivations — this module makes that packing explicit.  Each
:class:`PackedItem` is one (category, normal-form semantics) equivalence
class in one cell; every further way the grammar derived it only bumps
:meth:`PackedItem.derivation_count`, so the forest grows with the number
of *distinct* readings, not of parse trees.  The one backpointer an item
keeps is its founding candidate, which :meth:`PackedItem.triple` forces.

Pruning is explicit: a :class:`PruneBudget` bounds how many distinct items
a cell may hold, and every item the budget rejects is *counted* on
:attr:`ParseForest.dropped_items` (surfaced as ``pruned`` on the
:class:`~repro.ccg.chart.ParseResult`, the pipeline's ``SentenceResult``,
and the API's ``SentenceReport``) — the silent ``MAX_CELL_ITEMS``
truncation the reference chart used to perform is now an auditable event.

Logical forms enumerate lazily: :meth:`ParseForest.logical_forms` is a
generator over the grounded root items in chart insertion order, so a
caller wanting only the first reading (or the first *n*) never pays for
the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..ccg.categories import NP, S, Category, category_id
from ..ccg.chart import MAX_CELL_ITEMS, ParseResult
from ..ccg.semantics import Sem
from .profile import PROFILE
from .values import sid_grounded

__all__ = ["PruneBudget", "PackedItem", "ParseForest"]


@dataclass(frozen=True)
class PruneBudget:
    """The explicit pruning contract for a chart parse.

    ``max_cell_items`` bounds the *distinct* (category, semantics) items a
    single cell may hold; additional derivations of an item already present
    pack onto it for free.  Items rejected by the bound are counted, never
    silently discarded.

    A budget below one item per cell is a contradiction, not a
    configuration: it could only ever produce an empty forest while
    *looking* like a successful parse with every item "dropped".  It fails
    loudly at construction instead.
    """

    max_cell_items: int = MAX_CELL_ITEMS

    def __post_init__(self) -> None:
        if self.max_cell_items < 1:
            raise ValueError(
                f"PruneBudget.max_cell_items must be >= 1, got "
                f"{self.max_cell_items}: a zero-item budget cannot parse "
                "anything and would silently return an empty forest"
            )


#: The backend's production function, registered by :mod:`.indexed` at
#: import time (avoids a circular import): ``(rule, left, right) -> tuple``
#: of ``(category, triple)`` productions.  Deferred items call it to build
#: their semantics on first demand.
_PRODUCER = None


def register_producer(produce) -> None:
    """Install the production function deferred items force through."""
    global _PRODUCER
    _PRODUCER = produce


class PackedItem:
    """One equivalence class of derivations in one chart cell.

    ``sem`` is the cell semantics exactly as the reference backend's cell
    would carry it (verbatim-stamped for lexical items, β-normal for
    combined items); ``ntriple`` is the normalized ``(sem, sid, grounded)``
    triple further combinations apply.  ``sid`` is the hash-consed
    structural id — equal ids mean equal provenance-free structure, the
    dedup relation.

    Combined items are created :meth:`deferred`: their ``sid`` and
    ``catid`` come from the sid-level β-engine alone, and those two are
    all chart construction ever consults — so the actual term is not
    built until something *reads* it (:meth:`triple`), which only happens
    along the founding-candidate cone of an enumerated root; groundedness,
    read only for root candidates, waits for its first read too.  The
    pruned/packed majority of chart items never pays term construction.
    """

    __slots__ = ("category", "catid", "sem", "sid", "_grounded", "ntriple",
                 "derivations", "_pending")

    def __init__(self, category: Category, sem: Sem, ntriple: tuple) -> None:
        self.category = category
        cid = category.__dict__.get("_cid")
        self.catid: int = category_id(category) if cid is None else cid
        self.sem = sem
        self.ntriple = ntriple
        self.sid: int = ntriple[1]
        self._grounded: bool | None = ntriple[2]
        self.derivations = 1
        self._pending = None

    @classmethod
    def deferred(cls, category: Category, catid: int, sid: int,
                 grounded: bool | None, rule: int, litem: "PackedItem",
                 ritem: "PackedItem", position: int) -> "PackedItem":
        """A combined item whose term is built on first :meth:`triple` call
        from its founding candidate ``(rule, litem, ritem)`` — the same
        production an eager insert would have run, so the forced triple is
        value-identical; ``grounded`` None is computed on first read."""
        item = cls.__new__(cls)
        item.category = category
        item.catid = catid
        item.sem = None
        item.ntriple = None
        item.sid = sid
        item._grounded = grounded
        item.derivations = 1
        item._pending = (rule, litem, ritem, position)
        return item

    def triple(self) -> tuple:
        """The normalized ``(sem, sid, grounded)`` triple, building it (and
        transitively its children's) on first demand for deferred items."""
        t = self.ntriple
        if t is None:
            rule, litem, ritem, position = self._pending
            t = _PRODUCER(rule, litem, ritem)[position][1]
            self.sem = t[0]
            self.ntriple = t
            self._pending = None
            PROFILE.forced_items += 1
        return t

    @property
    def grounded(self) -> bool:
        """Whether the semantics are grounded (from ``sid`` if unknown)."""
        grounded = self._grounded
        if grounded is None:
            grounded = self._grounded = sid_grounded(self.sid)
        return grounded

    def derivation_count(self) -> int:
        """How many distinct ways this item was derived (packing width)."""
        return self.derivations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedItem({self.category}, sid {self.sid}, ×{self.derivations})"


class ParseForest:
    """Everything one sentence's chart derived, packed.

    ``cells`` maps spans to their item lists in insertion order — the same
    order the reference backend's cells carry, which is what makes forest
    enumeration order (and therefore every downstream survivor list)
    backend-independent.
    """

    def __init__(self, length: int, cells: dict[tuple[int, int], list[PackedItem]],
                 unknown_words: list[str], dropped_items: int,
                 budget: PruneBudget, cells_filled: int,
                 backend: str = "") -> None:
        self.length = length
        self.cells = cells
        self.unknown_words = unknown_words
        self.dropped_items = dropped_items
        self.budget = budget
        self.cells_filled = cells_filled
        self.backend = backend

    @property
    def pruned(self) -> bool:
        """True when the budget rejected at least one item: the forest (and
        every LF set enumerated from it) may be incomplete."""
        return self.dropped_items > 0

    # -- enumeration -----------------------------------------------------------
    def root_items(self) -> list[PackedItem]:
        """Full-span items with a root category (S, or NP for fragments)
        and grounded semantics, in chart insertion order."""
        return [
            item
            for item in self.cells.get((0, self.length), [])
            if item.category in (S, NP) and item.grounded
        ]

    def logical_forms(self) -> Iterator[Sem]:
        """Lazily enumerate the grounded root logical forms.

        Signature-deduplicated across root categories (an S and an NP
        reading with identical semantics count once), preserving insertion
        order — identical to the eager list the reference backend builds.
        """
        seen: set[int] = set()
        for item in self.root_items():
            if item.sid not in seen:
                seen.add(item.sid)
                sem = item.sem
                yield sem if sem is not None else item.triple()[0]

    # -- statistics ------------------------------------------------------------
    def item_count(self) -> int:
        return sum(len(items) for items in self.cells.values())

    def packed_derivations(self) -> int:
        """Total derivations across all items — how much tree-space the
        packing shares (≥ :meth:`item_count`)."""
        return sum(
            item.derivations
            for items in self.cells.values()
            for item in items
        )

    # -- adaptation ------------------------------------------------------------
    def to_result(self) -> ParseResult:
        """The flat :class:`~repro.ccg.chart.ParseResult` view of the forest."""
        return ParseResult(
            logical_forms=list(self.logical_forms()),
            unknown_words=self.unknown_words,
            token_count=self.length,
            cells_filled=self.cells_filled,
            dropped_items=self.dropped_items,
            backend=self.backend,
        )
