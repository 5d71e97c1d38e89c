"""The optimized chart backend: category-indexed cells over a packed forest.

Same grammar, same combinators, same cells — different enumeration.  Where
the reference backend tries every rule on every cell×cell item pair, this
backend keeps per-cell indexes (items by exact category, forward/backward
functions by result category, conjunctions, saturated constituents) and
only visits pairs whose categories can actually unify under some rule:

* forward application ``X/Y Y``: each forward function looks up exactly
  the right-cell items of category ``Y``;
* forward composition ``X/Y Y/Z``: ... the right-cell forward functions
  whose *result* is ``Y``;
* backward application/composition mirror with the left cell;
* coordination: the left cell's CONJ items × the right cell's saturated
  constituents.

Chart exploration is **agenda-driven**: instead of sweeping every
``(span, mid)`` slot of the CKY triangle — most of which are provably
empty the moment the lexical layer is down — the combination loop keeps a
best-first agenda of *target* spans, fed by a cell-adjacency index.  A
target is scheduled exactly when some adjacent pair of non-empty cells
could produce into it, and the agenda priority ``(span width, start)`` is
precisely the reference backend's sweep order, so popping the agenda dry
visits the same cells in the same order while never touching the empty
regions of the chart.  A cell is popped at most once (the scheduled set
dedups), every pop either seeds the cell from the span memo or combines
it, and the ``PruneBudget`` is charged per pop — the drops a pop records
are final because nothing revisits its cell.

On top of the agenda sits the cross-sentence **span-signature memo**:
the finished contents of a combination cell are a pure function of the
lexicon, the prune budget, the span's start offset, and the exact
``(text, kind)`` token sequence it covers — nothing outside the span ever
reaches into it.  Once any sentence has combined a span, every later
sentence in the corpus that repeats those tokens at that offset (RFC
prose repeats its phrasing heavily — "send an ICMP message", shared field
clauses, boilerplate sentence prefixes) seeds the finished cell with the
*same* packed items in one dict probe: no candidate enumeration, no
production lookups, no new term objects.  Reuse is keyed by the lexicon
fingerprint and the budget, so an edited grammar or a different pruning
contract can never be served another configuration's cells, and the
adopted items carry the exact provenance (spans, triggers) a fresh
derivation would have produced — reuse is invisible in the output, which
the shuffled-corpus property test locks.

Candidate productions are tagged ``(mid, left_index, right_index, rule)``
and sorted before insertion, which reproduces the reference backend's
insertion sequence exactly — so semantic dedup keeps the *same*
representative (same provenance spans and triggers), cells truncate at the
same point under the same budget, and the enumerated logical forms match
the reference list element-for-element.  Parity is therefore structural;
the test suite and the benchmark gate verify it corpus-wide.

Everything the loop does is counted on the process-global
:data:`~repro.parsing.profile.PROFILE` (agenda pops, seeded vs combined
cells, memo hit rates, budget drops) — surfaced through
``SageService.parse_diagnostics``, ``python -m repro parse --profile``,
and the pipeline smoke benchmark.

Semantics flow as the fused normalizer's ``(sem, sid, grounded)`` triples
(:mod:`.values`): combining two items substitutes into already-normal
forms, building the result term, its dedup id, and its groundedness in one
pass.  Insertion never builds a term, though: the structural outcome of a
candidate is deterministic in its rule, operand categories and operand
structures, and is learned over interned ids.  An application's outcome
is the function's result category plus ``sid_apply(fn sid, arg sid)``,
which the sid-level β-engine memoizes itself; composition and
coordination rows, whose categories are built from both operands, sit in
a process-global *production memo*.  So once any sentence anywhere has
derived a combination shape, every later duplicate derivation — the
majority, CCG's spurious ambiguity being what it is — resolves to "count
one more derivation" with a dict probe or two.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..ccg.categories import (
    CONJ,
    FORWARD,
    NP,
    S,
    Category,
    Func,
    backward,
    category_id,
    forward,
)
from ..ccg.chart import (
    MAX_CELL_ITEMS,
    CCGChartParser,
    ParseResult,
    lexical_span_items,
    strip_terminal_punct,
)
from ..ccg.combinators import (
    RULE_BACKWARD_APPLICATION,
    RULE_BACKWARD_COMPOSITION,
    RULE_COORDINATION,
    RULE_FORWARD_APPLICATION,
    RULE_FORWARD_COMPOSITION,
)
from ..ccg.lexicon import Lexicon
from ..ccg.semantics import Const
from ..gcpolicy import release
from ..nlp.tokenizer import Token
from .forest import PackedItem, ParseForest, PruneBudget, register_producer
from .profile import PROFILE
from .values import (
    _SID_APPLY_MEMO,
    Triple,
    apply_triple,
    lam_wrap,
    make_call_triple,
    neutral,
    normalize,
    normalize_batch,
    reset_apply_memo,
    reset_derived_memos,
    sid_apply,
    sid_of_key,
)

#: (rule, left category id, left sid, right category id, right sid) →
#: tuple of (category, category id, sid, grounded) per production, for the
#: composition and coordination rules (application outcomes are read off
#: ``_SID_APPLY_MEMO``).  Structure-only and therefore process-global:
#: provenance does not participate, so a hit is valid for any derivation
#: with structurally-equal operands.
_PRODUCTION_MEMO: dict[tuple, tuple] = {}

#: (rule, left category id, right category id) → (category, category id)
#: for the composition and coordination rows, whose category is built from
#: the operand categories: one frozen ``Func`` per distinct shape instead
#: of one per production-memo miss.  Application rows reuse the operand's
#: own ``result``.
_COMPOSED_CATEGORY: dict[tuple[int, int, int], tuple[Category, int]] = {}

#: Lexical span cache: the chart items (category, stamped sem, normalized
#: triple) a given surface span yields are a pure function of the lexicon
#: content, the span's tokens, and the start position, so they are shared
#: process-wide.  Sharing the *sem objects* across sentences is what
#: feeds the apply memo in :mod:`.values` — identical phrases at
#: identical offsets re-derive combination results by dict probe.
#:
#: The cache is generational: one inner dict per lexicon fingerprint (an
#: edited or different lexicon can never be served another grammar's
#: items), bounded to the most recent :data:`_LEXICAL_GENERATIONS`
#: fingerprints so a long-lived service editing its lexicon does not
#: accumulate orphaned generations forever.  Inner keys: single tokens by
#: (start, text, kind); multiword spans by (start, lowered words).
#: Misses (spans yielding no items) cache as empty tuples.
_LEXICAL_CACHE: dict[str, dict[tuple, tuple]] = {}
_LEXICAL_GENERATIONS = 4


def _lexical_generation(fingerprint: str) -> dict[tuple, tuple]:
    generation = _LEXICAL_CACHE.get(fingerprint)
    if generation is None:
        if len(_LEXICAL_CACHE) >= _LEXICAL_GENERATIONS:
            _LEXICAL_CACHE.pop(next(iter(_LEXICAL_CACHE)))
            # The apply memo pins sem objects from the dropped
            # generation's items; those entries can never hit again, so
            # release them wholesale (live entries rebuild on demand).
            reset_apply_memo()
            release()
        generation = _LEXICAL_CACHE.setdefault(fingerprint, {})
    return generation


#: Cross-sentence span-signature memo (see module docstring).  Outer key:
#: (lexicon fingerprint, budget max_cell_items) — a cell's contents and
#: its counted drops are pure functions of those two plus the inner key,
#: (start offset, ((text, kind), ...) for the span's tokens).  Values are
#: (finished _Cell or None, drops charged when the cell was combined); a
#: popped cell is final (nothing revisits it), so the *cell object* with
#: its indexes is adopted wholesale on a hit — no re-insertion, no index
#: rebuild.  Empty spans memoize as (None, 0) so repeated dead phrasing
#: skips candidate enumeration too.  Generational like the lexical
#: cache, and bounded by the same count, so a long-lived service cycling
#: lexicons releases old span graphs.
_SPAN_MEMO: dict[tuple[str, int], dict[tuple, tuple]] = {}
_SPAN_GENERATIONS = 4

_EMPTY_SPAN = (None, 0)


def _span_generation(fingerprint: str, max_cell_items: int) -> dict[tuple, tuple]:
    key = (fingerprint, max_cell_items)
    generation = _SPAN_MEMO.get(key)
    if generation is None:
        if len(_SPAN_MEMO) >= _SPAN_GENERATIONS:
            _SPAN_MEMO.pop(next(iter(_SPAN_MEMO)))
            release()
        generation = _SPAN_MEMO.setdefault(key, {})
    return generation


def reset_parser_state() -> None:
    """Return the indexed backend to a process-cold state.

    Drops every process-global memo a parse warms as a side effect — the
    span-signature memo, the lexical span cache, the structural
    production memo, the composed-category memo, and the derived term/sid
    memos in :mod:`.values` —
    so the next sweep re-pays full chart construction and term
    production.  The value intern tables survive (see
    :func:`repro.parsing.values.reset_derived_memos`).  This exists for
    benchmark cold-start bracketing: best-of-N cold rounds need each
    round to actually be cold.
    """
    _SPAN_MEMO.clear()
    _LEXICAL_CACHE.clear()
    _PRODUCTION_MEMO.clear()
    _COMPOSED_CATEGORY.clear()
    reset_derived_memos()
    release()


class _Cell:
    """One chart cell plus the indexes the combination loop consults."""

    __slots__ = ("items", "by_key", "by_cat", "fwd", "bwd",
                 "fwd_by_result", "bwd_by_result", "conj", "non_func")

    def __init__(self) -> None:
        self.items: list[PackedItem] = []
        #: (category id, structural id) → item, for insertion-time dedup.
        self.by_key: dict[tuple[int, int], PackedItem] = {}
        self.by_cat: dict[int, list] = {}
        #: (index, item, argument category id) for function categories.
        self.fwd: list = []
        self.bwd: list = []
        self.fwd_by_result: dict[int, list] = {}
        self.bwd_by_result: dict[int, list] = {}
        self.conj: list = []
        self.non_func: list = []

    def insert(self, item: PackedItem) -> None:
        index = len(self.items)
        self.items.append(item)
        key = (item.catid, item.sid)
        if key not in self.by_key:
            self.by_key[key] = item
        category = item.category
        self.by_cat.setdefault(item.catid, []).append((index, item))
        # The routing decision (function? which slash? which arg/result
        # ids? conjunction?) is a pure function of the category — cache
        # it on the category object so repeat inserts are one dict probe.
        d = category.__dict__
        plan = d.get("_ixplan")
        if plan is None:
            if isinstance(category, Func):
                plan = (category_id(category.arg),
                        category_id(category.result),
                        category.slash == FORWARD)
            else:
                plan = (None, None, category == CONJ)
            d["_ixplan"] = plan
        arg_cid = plan[0]
        if arg_cid is not None:
            # Function entries carry their argument-category id so the
            # candidate scan probes the opposite cell with plain ints.
            entry = (index, item, arg_cid)
            if plan[2]:
                self.fwd.append(entry)
                self.fwd_by_result.setdefault(plan[1], []).append((index, item))
            else:
                self.bwd.append(entry)
                self.bwd_by_result.setdefault(plan[1], []).append((index, item))
        else:
            entry = (index, item)
            self.non_func.append(entry)
            if plan[2]:
                self.conj.append(entry)


#: Shared sentinel for cached-empty single-token spans (never mutated,
#: never entered into a chart).
_EMPTY_CELL = _Cell()


class IndexedChartParser(CCGChartParser):
    """The ``indexed`` parser backend (see module docstring).

    Subclasses :class:`~repro.ccg.chart.CCGChartParser` for interface
    compatibility (``lexicon``, ``max_cell_items``, ``parse``); the chart
    construction is entirely its own.
    """

    name = "indexed"

    def __init__(self, lexicon: Lexicon, max_cell_items: int = MAX_CELL_ITEMS,
                 budget: PruneBudget | None = None,
                 reuse_spans: bool = True) -> None:
        if budget is None:
            budget = PruneBudget(max_cell_items=max_cell_items)
        super().__init__(lexicon, budget.max_cell_items)
        self.budget = budget
        #: Whether combination cells may be seeded from (and stored into)
        #: the cross-sentence span-signature memo.  Reuse never changes
        #: outputs (the property tests lock this); disabling it exists for
        #: control runs and A/B measurement.
        self.reuse_spans = reuse_spans

    # -- public API ------------------------------------------------------------
    def parse(self, tokens: list[Token]) -> ParseResult:
        return self.parse_forest(tokens).to_result()

    def parse_forest(self, tokens: list[Token]) -> ParseForest:
        """Parse into a :class:`~repro.parsing.forest.ParseForest`."""
        tokens = strip_terminal_punct(tokens)
        length = len(tokens)
        if not tokens:
            return ParseForest(0, {}, [], 0, self.budget, 0, backend=self.name)
        PROFILE.parses += 1
        cells: dict[tuple[int, int], _Cell] = {}
        covered = [False] * length
        unknown = self._fill_lexical(tokens, cells, covered)
        # The reference chart registers every width-1 cell it fills plus
        # every width>=2 span it sweeps; the agenda never touches empty
        # spans, so reproduce that count arithmetically.
        cells_filled = (length * (length - 1)) // 2 + sum(
            1 for (start, end) in cells if end - start == 1
        )
        dropped = self._combine_spans(tokens, cells)
        return ParseForest(
            length=length,
            cells={span: cells[span].items for span in cells},
            unknown_words=unknown,
            dropped_items=dropped,
            budget=self.budget,
            cells_filled=cells_filled,
            backend=self.name,
        )

    # -- lexical spans ---------------------------------------------------------
    def _fill_lexical(self, tokens: list[Token], cells,
                      covered: list[bool]) -> list[str]:
        length = len(tokens)
        words_lower = [token.lower for token in tokens]
        matches_by_start = [
            dict(self.lexicon.iter_matches(words_lower, start))
            for start in range(length)
        ]
        # Same cell-filling order as the reference chart: span length
        # ascending, start ascending.
        lexical_cache = _lexical_generation(self.lexicon.fingerprint())
        cache_hits = 0
        cache_misses = 0
        # Width-1 cells are never combination targets (targets have
        # width >= 2), so a finished single-token _Cell is immutable and
        # can be *shared* across every sentence that repeats the token at
        # the offset: one dict probe adopts the whole indexed cell, items
        # and all.  Multiword lexical cells can receive combination
        # insertions, so those still cache (category, sem, triple) tuples
        # and rebuild fresh PackedItems per sentence.
        for start in range(length):
            token = tokens[start]
            cache_key = (start, token.text, token.kind)
            shared = lexical_cache.get(cache_key)
            if shared is None:
                cache_misses += 1
                items = lexical_span_items(
                    self.lexicon, tokens, start, start + 1,
                    entries=matches_by_start[start].get(start + 1, ()),
                )
                # The stored sem is the verbatim (unreduced, stamped)
                # lexical semantics — exactly what the reference cell
                # carries — alongside the normalized triple that drives
                # combination and dedup.  The span's item semantics share
                # subterms (type-raised entries wrap the same stamped
                # bodies), so normalize them as one batch over the shared
                # DAG.
                triples = normalize_batch([item.sem for item in items])
                shared = _Cell() if items else _EMPTY_CELL
                for item, triple in zip(items, triples):
                    shared.insert(PackedItem(category=item.category,
                                             sem=item.sem, ntriple=triple))
                lexical_cache[cache_key] = shared
            else:
                cache_hits += 1
            if shared.items:
                covered[start] = True
                cells[(start, start + 1)] = shared
        for span_len in range(2, min(self.lexicon.max_phrase_words, length) + 1):
            for start in range(0, length - span_len + 1):
                end = start + span_len
                entries = matches_by_start[start].get(end, ())
                if not entries:
                    continue  # multiword spans only exist via the trie
                cache_key = (start, tuple(words_lower[start:end]))
                cached = lexical_cache.get(cache_key)
                if cached is None:
                    cache_misses += 1
                    items = lexical_span_items(
                        self.lexicon, tokens, start, end, entries=entries,
                    )
                    triples = normalize_batch([item.sem for item in items])
                    cached = tuple(
                        (item.category, item.sem, triple)
                        for item, triple in zip(items, triples)
                    )
                    lexical_cache[cache_key] = cached
                else:
                    cache_hits += 1
                if not cached:
                    continue
                for position in range(start, end):
                    covered[position] = True
                cell = cells.get((start, end))
                if cell is None:
                    cell = cells[(start, end)] = _Cell()
                for category, sem, ntriple in cached:
                    cell.insert(PackedItem(category=category, sem=sem,
                                           ntriple=ntriple))
        PROFILE.lexical_cache_hits += cache_hits
        PROFILE.lexical_cache_misses += cache_misses
        return [
            tokens[position].text
            for position in range(length)
            if not covered[position]
        ]

    # -- combination -----------------------------------------------------------
    def _combine_spans(self, tokens: list[Token], cells) -> int:
        """Agenda-driven combination (see module docstring).

        Invariants the byte parity rests on:

        * the agenda holds *target* spans keyed ``(width, start, end)``;
          heap order is therefore width ascending then start ascending —
          exactly the reference sweep order;
        * a target is scheduled the moment its *second* contributing
          sub-cell becomes non-empty (adjacency lists ``left_ends`` /
          ``right_starts`` make that O(adjacent cells)), and the
          ``scheduled`` set guarantees at most one pop per span;
        * every schedule event originates from a cell strictly narrower
          than the target, so by the time the first width-w target pops,
          every width-w target that will ever exist is already queued —
          within a width class the heap yields starts in ascending order,
          and equal-width cells can never feed each other;
        * each pop charges the ``PruneBudget`` exactly once and its drops
          are final: nothing ever revisits a popped cell.
        """
        length = len(tokens)
        if length < 2:
            return 0
        budget = self.budget.max_cell_items
        span_memo = (
            _span_generation(self.lexicon.fingerprint(), budget)
            if self.reuse_spans else None
        )
        token_keys = ([(token.text, token.kind) for token in tokens]
                      if span_memo is not None else None)

        left_ends: list[list[int]] = [[] for _ in range(length + 1)]
        right_starts: list[list[int]] = [[] for _ in range(length + 1)]
        heap: list[tuple[int, int, int]] = []
        scheduled: set[tuple[int, int]] = set()
        scheduled_add = scheduled.add

        def note_nonempty(i: int, j: int) -> None:
            # Cell (i, j) just became non-empty: schedule every span a
            # pairing with an adjacent non-empty cell could produce into.
            for k in left_ends[j]:
                target = (i, k)
                if target not in scheduled:
                    scheduled_add(target)
                    heappush(heap, (k - i, i, k))
            for h in right_starts[i]:
                target = (h, j)
                if target not in scheduled:
                    scheduled_add(target)
                    heappush(heap, (j - h, h, j))
            left_ends[i].append(j)
            right_starts[j].append(i)

        # Seed adjacency from the lexical layer; _fill_lexical inserts in
        # sweep order (width ascending, start ascending), so plain dict
        # order is already sorted.
        for span in list(cells):
            note_nonempty(*span)

        dropped_total = 0
        pops = 0
        seeded = 0
        visited = 0
        memo_hits = 0
        memo_misses = 0
        items_reused = 0
        while heap:
            _width, start, end = heappop(heap)
            pops += 1
            span_key = None
            if span_memo is not None:
                span_key = (start, tuple(token_keys[start:end]))
                hit = span_memo.get(span_key)
                if hit is not None:
                    memo_hits += 1
                    stored_cell, cell_dropped = hit
                    dropped_total += cell_dropped
                    if stored_cell is not None:
                        seeded += 1
                        items_reused += len(stored_cell.items)
                        # Adopt the finished cell wholesale — object,
                        # items, indexes.  If a lexical cell already sits
                        # at this span, the stored cell is a superset
                        # built from the *same* shared lexical objects,
                        # so replacement is value- and
                        # provenance-identical.
                        was_empty = (start, end) not in cells
                        cells[(start, end)] = stored_cell
                        if was_empty:
                            note_nonempty(start, end)
                    continue
                memo_misses += 1
            visited += 1
            # Valid split points: mids where both (start, mid) and
            # (mid, end) are non-empty.  left_ends[start] holds exactly
            # the non-empty spans starting at start.
            mids = [mid for mid in left_ends[start]
                    if mid < end and (mid, end) in cells]
            candidates = None
            if mids:
                mids.sort()
                candidates = self._candidates(mids, start, end, cells)
            if not candidates:
                if span_memo is not None:
                    span_memo[span_key] = _EMPTY_SPAN
                continue
            # Reference insertion order.  The ``(mid, l_idx, r_idx, rule)``
            # prefix is unique per candidate, so plain tuple order never
            # reaches the (unorderable) items.
            candidates.sort()
            cell = cells.get((start, end))
            was_empty = cell is None
            if was_empty:
                cell = cells[(start, end)] = _Cell()
            cell_dropped = self._insert_candidates(cell, candidates, budget)
            dropped_total += cell_dropped
            if span_memo is not None:
                # The popped cell is final: store the object itself.
                span_memo[span_key] = (cell if cell.items else None,
                                       cell_dropped)
            if was_empty and cell.items:
                note_nonempty(start, end)
        PROFILE.agenda_pops += pops
        PROFILE.agenda_scheduled += len(scheduled)
        PROFILE.cells_visited += visited
        PROFILE.cells_seeded += seeded
        PROFILE.span_memo_hits += memo_hits
        PROFILE.span_memo_misses += memo_misses
        PROFILE.items_reused += items_reused
        PROFILE.budget_drops += dropped_total
        return dropped_total

    @staticmethod
    def _candidates(mids: list[int], start: int, end: int, cells) -> list:
        """Every rule-compatible (left item, right item) pairing over the
        given split points, tagged with its reference-order position
        ``(mid, l_idx, r_idx, rule)``."""
        candidates = []
        append = candidates.append
        for mid in mids:
            left = cells[(start, mid)]
            right = cells[(mid, end)]
            empty: list = []
            for l_idx, litem, arg_cid in left.fwd:
                for r_idx, ritem in right.by_cat.get(arg_cid, empty):
                    append((mid, l_idx, r_idx, RULE_FORWARD_APPLICATION,
                            litem, ritem))
                for r_idx, ritem in right.fwd_by_result.get(arg_cid, empty):
                    append((mid, l_idx, r_idx, RULE_FORWARD_COMPOSITION,
                            litem, ritem))
            for r_idx, ritem, arg_cid in right.bwd:
                for l_idx, litem in left.by_cat.get(arg_cid, empty):
                    append((mid, l_idx, r_idx, RULE_BACKWARD_APPLICATION,
                            litem, ritem))
                for l_idx, litem in left.bwd_by_result.get(arg_cid, empty):
                    append((mid, l_idx, r_idx, RULE_BACKWARD_COMPOSITION,
                            litem, ritem))
            if left.conj:
                for l_idx, litem in left.conj:
                    for r_idx, ritem in right.non_func:
                        append((mid, l_idx, r_idx, RULE_COORDINATION,
                                litem, ritem))
        return candidates

    def _insert_candidates(self, cell: _Cell, candidates, budget: int) -> int:
        dropped = 0
        by_key_get = cell.by_key.get
        items = cell.items
        memo = _PRODUCTION_MEMO
        memo_get = memo.get
        apply_get = _SID_APPLY_MEMO.get
        memo_hits = 0
        memo_misses = 0
        deferred = 0
        for _mid, _l_idx, _r_idx, rule, litem, ritem in candidates:
            # Learn the candidate's (category, catid, sid, grounded)
            # outcome rows over interned ids only; a hit means no β-engine
            # run.  Application rows are the function's result category
            # plus sid_apply's memoized sid; groundedness is left for the
            # item to compute if anything ever asks.
            if rule in _APPLICATION_RULES:
                fn, arg = ((litem, ritem) if rule == RULE_FORWARD_APPLICATION
                           else (ritem, litem))
                sid = apply_get((fn.sid, arg.sid))
                if sid is None:
                    memo_misses += 1
                    sid = sid_apply(fn.sid, arg.sid)
                else:
                    memo_hits += 1
                category = fn.category.result
                outcomes = ((category, category_id(category), sid, None),)
            else:
                pkey = (rule, litem.catid, litem.sid, ritem.catid, ritem.sid)
                outcomes = memo_get(pkey)
                if outcomes is None:
                    memo_misses += 1
                    outcomes = memo[pkey] = _structural_outcomes(
                        rule, litem, ritem)
                else:
                    memo_hits += 1
            # No term is built here at all: insertion stores a deferred
            # item carrying its founding candidate, and the term
            # materializes only if enumeration ever demands it.  Outcome
            # positions align with ``_produce``'s production list.
            for position, outcome in enumerate(outcomes):
                existing = by_key_get((outcome[1], outcome[2]))
                if existing is not None:
                    # Packing: a new derivation of a known reading.
                    existing.derivations += 1
                    continue
                if len(items) >= budget:
                    dropped += 1
                    continue
                cell.insert(PackedItem.deferred(
                    outcome[0], outcome[1], outcome[2], outcome[3],
                    rule, litem, ritem, position))
                deferred += 1
        PROFILE.production_memo_hits += memo_hits
        PROFILE.production_memo_misses += memo_misses
        PROFILE.deferred_items += deferred
        return dropped


def _structural_outcomes(rule: int, litem: PackedItem,
                         ritem: PackedItem) -> tuple[tuple, ...]:
    """The ``(category, catid, sid, grounded)`` outcome rows for one
    composition or coordination candidate, computed entirely over
    interned structure ids.

    Mirrors :func:`_produce` production-for-production — same categories,
    and sids/groundedness identical to the triples ``_produce`` would
    build (``sid_apply`` is ``apply_triple``'s structural shadow).  The
    corpus-wide parity gate locks that equivalence."""
    lcat, rcat = litem.category, ritem.category
    # Composition and coordination results are lambdas: never grounded.
    ckey = (rule, litem.catid, ritem.catid)
    composed = _COMPOSED_CATEGORY.get(ckey)
    if composed is None:
        if rule == RULE_FORWARD_COMPOSITION:
            category = forward(lcat.result, rcat.arg)
        elif rule == RULE_BACKWARD_COMPOSITION:
            category = backward(rcat.result, lcat.arg)
        else:
            category = backward(rcat, rcat)
        composed = _COMPOSED_CATEGORY[ckey] = (category, category_id(category))
    if rule == RULE_FORWARD_COMPOSITION:
        inner = sid_apply(ritem.sid, _VAR_Z_SID)
        return (composed + (
            sid_of_key(("l", "z", sid_apply(litem.sid, inner))), False),)
    if rule == RULE_BACKWARD_COMPOSITION:
        inner = sid_apply(litem.sid, _VAR_Z_SID)
        return (composed + (
            sid_of_key(("l", "z", sid_apply(ritem.sid, inner))), False),)
    lsem = litem.sem
    if lsem is None:
        lsem = litem.triple()[0]
    conj_pred = "Or" if type(lsem) is Const and lsem.value == "or" else "And"
    grouped = sid_of_key(
        ("l", "a", sid_of_key(("@", conj_pred, (_VAR_A_SID, ritem.sid))))
    )
    if rcat != NP:
        return (composed + (grouped, False),)
    distributed = sid_of_key(("l", "a", sid_of_key(("l", "p", sid_of_key(
        ("@", conj_pred,
         (sid_of_key(("a", _VAR_P_SID, _VAR_A_SID)),
          sid_of_key(("a", _VAR_P_SID, ritem.sid)))),
    )))))
    return (composed + (grouped, False),
            _DISTRIBUTED_ROW + (distributed, False))


_APPLICATION_RULES = (RULE_FORWARD_APPLICATION, RULE_BACKWARD_APPLICATION)
_VAR_Z_SID = neutral("z")[1]
_VAR_A_SID = neutral("a")[1]
_VAR_P_SID = neutral("p")[1]


def _produce(rule: int, litem: PackedItem,
             ritem: PackedItem) -> tuple[tuple[Category, Triple], ...]:
    """The produced (category, triple) pairs for one candidate.

    The category indexes guarantee the rule's precondition holds, so
    production is unconditional; results are built directly in normalized
    triple form, mirroring :mod:`repro.ccg.combinators` rule-for-rule.

    Children may themselves be deferred — :meth:`PackedItem.triple` forces
    them first, so a forced root materializes exactly its backpointer cone
    and nothing else."""
    lcat, rcat = litem.category, ritem.category
    ltriple = litem.ntriple or litem.triple()
    rtriple = ritem.ntriple or ritem.triple()
    if rule == RULE_FORWARD_APPLICATION:
        return ((lcat.result, apply_triple(ltriple, rtriple)),)
    if rule == RULE_BACKWARD_APPLICATION:
        return ((rcat.result, apply_triple(rtriple, ltriple)),)
    if rule == RULE_FORWARD_COMPOSITION:
        # λz. l (r z)
        inner = apply_triple(rtriple, neutral("z"))
        return ((forward(lcat.result, rcat.arg),
                 lam_wrap("z", apply_triple(ltriple, inner))),)
    if rule == RULE_BACKWARD_COMPOSITION:
        # λz. r (l z)
        inner = apply_triple(ltriple, neutral("z"))
        return ((backward(rcat.result, lcat.arg),
                 lam_wrap("z", apply_triple(rtriple, inner))),)
    # Coordination (grouped, then — for NP conjuncts — distributed),
    # mirroring repro.ccg.combinators.coordination term-for-term.
    lsem = litem.sem
    conj_pred = "Or" if type(lsem) is Const and lsem.value == "or" else "And"
    var_a = neutral("a")
    grouped = lam_wrap(
        "a",
        make_call_triple(conj_pred, (var_a, rtriple), None, frozenset()),
    )
    productions = [(backward(rcat, rcat), grouped)]
    if rcat == NP:
        var_p = neutral("p")
        distributed = lam_wrap(
            "a",
            lam_wrap(
                "p",
                make_call_triple(
                    conj_pred,
                    (apply_triple(var_p, var_a), apply_triple(var_p, rtriple)),
                    None,
                    frozenset({"distributed"}),
                ),
            ),
        )
        productions.append((_DISTRIBUTED_CATEGORY, distributed))
    return tuple(productions)


_DISTRIBUTED_CATEGORY = backward(forward(S, backward(S, NP)), NP)
_DISTRIBUTED_ROW = (_DISTRIBUTED_CATEGORY, category_id(_DISTRIBUTED_CATEGORY))

# Deferred items force their terms through this backend's production
# function (forest.py cannot import it without a cycle).
register_producer(_produce)
