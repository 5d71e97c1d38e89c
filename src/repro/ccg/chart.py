"""CKY chart parsing over CCG categories with lambda semantics.

This is the **reference parser**: the plain CKY recognizer the pipeline's
``indexed`` parser is measured against (see :mod:`repro.parsing.indexed`
for the optimized, category-indexed implementation).  It folds the pure
combinator rules of :mod:`repro.ccg.combinators` over the full cell×cell
cross product — simple, obviously correct, and deliberately left
unoptimized so parity bugs in the faster parser have a fixed point to diff
against.

A sentence's parse yields every grounded logical form derivable over the
full span with root category S, or NP for the header-field fragments RFCs
are full of.  Zero results mean the sentence failed to parse (§4.1 "zero
logical forms"); more than one means ambiguity to winnow (§4.2).

Cells are bounded by ``max_cell_items``.  Items rejected by the bound are
*counted* on :attr:`ParseResult.dropped_items` (and surfaced as the
``pruned`` flag) rather than silently vanishing — winnow provenance must
know when the LF set it saw was truncated.

Two pieces here are shared plumbing rather than reference-only code:
:func:`lexical_span_items` (multiword lexical matching over the token
stream) and :func:`strip_terminal_punct` are consumed verbatim by the
indexed backend, so both backends see exactly the same lexical layer —
any output divergence is therefore attributable to combination order,
which is what the parity gate isolates.  The reference combination loop
itself stays deliberately dumb: the agenda-driven exploration, span
memoization, and deferred term construction all live in
:mod:`repro.parsing.indexed` (DESIGN.md §10) and are measured *against*
this module's fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..nlp.tagger import TAG_VERB, tag_word
from ..nlp.tokenizer import (
    KIND_NOUN_PHRASE,
    KIND_NUMBER,
    KIND_PUNCT,
    KIND_STATEVAR,
    Token,
    normalize_term,
)
from .categories import NP, S, Category, backward, forward
from .combinators import all_productions
from .lexicon import Lexicon
from .semantics import (
    App,
    Call,
    Const,
    Lam,
    Sem,
    Var,
    is_grounded,
    reduce_term,
    signature,
    stamp,
)

MAX_CELL_ITEMS = 2000


@dataclass(frozen=True)
class Item:
    """One chart item: a category and its (unreduced) semantics."""

    category: Category
    sem: Sem


@dataclass
class ParseResult:
    """The outcome of parsing one sentence."""

    logical_forms: list[Sem]
    unknown_words: list[str] = field(default_factory=list)
    token_count: int = 0
    cells_filled: int = 0
    #: Items the per-cell budget rejected (0 = the chart was complete).
    dropped_items: int = 0
    #: The parser backend that produced this result ("" for ad-hoc parsers).
    backend: str = ""

    @property
    def count(self) -> int:
        return len(self.logical_forms)

    @property
    def pruned(self) -> bool:
        """True when the cell budget truncated the chart: the LF set (and
        everything winnowed from it) may be incomplete."""
        return self.dropped_items > 0


def default_items(token: Token, index: int, has_entries: bool) -> list[Item]:
    """Kind-based entries: chunked NPs, numbers, state variables.

    Words with no lexicon entry that tag as verbs get generic action
    readings (transitive and passive/intransitive) — CCG's unknown-word
    fallback.  The @Action type check later kills these readings
    wherever a better-typed alternative exists; sentences that only
    parse through them are descriptive prose headed for the
    non-actionable bin.
    """
    if token.kind in (KIND_NOUN_PHRASE, KIND_STATEVAR):
        return [Item(NP, Const(normalize_term(token.text), span=(index, index + 1)))]
    if token.kind == KIND_NUMBER:
        return [Item(NP, Const(token.text, span=(index, index + 1)))]
    if not has_entries and token.kind == "word" and tag_word(token.text) == TAG_VERB:
        action = Const(normalize_term(token.text), span=(index, index + 1))
        subject = Var("y")
        obj = Var("x")
        lower = token.lower
        items = [
            # Passive/intransitive: "the datagram is discarded".
            Item(
                backward(S, NP),
                Lam("y", Call("Action", (action, subject), trigger=index)),
            ),
            # Transitive: "the gateway notifies the host".
            Item(
                forward(backward(S, NP), NP),
                Lam(
                    "x",
                    Lam("y", Call("Action", (action, subject, obj), trigger=index)),
                ),
            ),
            # Imperative/infinitive: "To avoid the infinite regress ...".
            Item(
                forward(S, NP),
                Lam("x", Call("Action", (action, obj), trigger=index)),
            ),
        ]
        if lower.endswith("ed"):
            # Reduced relative / prenominal participle: "the received
            # data", "the network specified in ...".
            items.append(Item(backward(NP, NP), Lam("y", Var("y"))))
            items.append(Item(forward(NP, NP), Lam("x", Var("x"))))
        if lower.endswith("ing"):
            # Prenominal gerund ("the replying IP module") and
            # postnominal participle with object ("an integer
            # identifying the stratum level").
            items.append(Item(forward(NP, NP), Lam("x", Var("x"))))
            items.append(
                Item(
                    forward(backward(NP, NP), NP),
                    Lam("x", Lam("y", Var("y"))),
                )
            )
        return items
    return []


def lexical_span_items(
    lexicon: Lexicon, tokens: list[Token], start: int, end: int,
    entries=None,
) -> list[Item]:
    """Every lexical item covering ``tokens[start:end]``, in insertion order.

    Shared by both parser backends so their cells agree item-for-item:
    lexicon entries first (stamped with provenance), then the kind-based
    defaults for single tokens, then forward type-raised copies of every
    lexical NP (T>), which enable object-relative clauses ("that it
    discards") through composition with a transitive verb.

    ``entries`` short-circuits the lexicon lookup when the caller already
    fetched the span's entries (the indexed backend's trie walk does).
    """
    if entries is None:
        words = [token.text for token in tokens[start:end]]
        entries = lexicon.lookup(words)
    items = [
        Item(entry.category, stamp(entry.sem, start))
        for entry in entries
    ]
    if end - start == 1:
        items.extend(default_items(tokens[start], start, bool(items)))
    for item in list(items):
        if item.category == NP:
            raised = forward(S, backward(S, NP))
            items.append(Item(raised, Lam("p", App(Var("p"), item.sem))))
    return items


def strip_terminal_punct(tokens: list[Token]) -> list[Token]:
    """Drop sentence-final punctuation before parsing (both backends)."""
    return [token for token in tokens if not _is_terminal_punct(token)]


class CCGChartParser:
    """A CKY parser over a :class:`~repro.ccg.lexicon.Lexicon`.

    This is the ``reference`` parser, the parity oracle of
    :class:`~repro.parsing.indexed.IndexedChartParser`.
    """

    #: Backend identity, part of every parse-cache key built over this
    #: parser (see ``ParseStage.fingerprint``).
    name = "reference"

    def __init__(self, lexicon: Lexicon, max_cell_items: int = MAX_CELL_ITEMS) -> None:
        self.lexicon = lexicon
        self.max_cell_items = max_cell_items

    # -- public API ---------------------------------------------------------
    def parse(self, tokens: list[Token]) -> ParseResult:
        tokens = strip_terminal_punct(tokens)
        if not tokens:
            return ParseResult(logical_forms=[], backend=self.name)
        chart, unknown, dropped = self._build_chart(tokens)
        length = len(tokens)
        forms: list[Sem] = []
        seen: set[str] = set()
        for item in chart.get((0, length), []):
            if item.category not in (S, NP):
                continue
            if not is_grounded(item.sem):
                continue
            key = signature(item.sem)
            if key not in seen:
                seen.add(key)
                forms.append(item.sem)
        return ParseResult(
            logical_forms=forms,
            unknown_words=unknown,
            token_count=length,
            cells_filled=len(chart),
            dropped_items=dropped,
            backend=self.name,
        )

    # -- chart construction ---------------------------------------------------
    def _build_chart(
        self, tokens: list[Token]
    ) -> tuple[dict[tuple[int, int], list[Item]], list[str], int]:
        length = len(tokens)
        chart: dict[tuple[int, int], list[Item]] = {}
        covered = [False] * length
        # Lexical spans (multiword phrases first-class).  The lexicon's
        # first-word/phrase-length index prunes multiword probes: a span
        # is only looked up when some entry starting with its first word
        # has exactly that length (single tokens always probe — the
        # kind-based default items exist regardless of the lexicon).
        lengths_by_start = [
            self.lexicon.phrase_lengths(token.lower) for token in tokens
        ]
        for span_len in range(1, min(self.lexicon.max_phrase_words, length) + 1):
            for start in range(0, length - span_len + 1):
                if span_len > 1 and span_len not in lengths_by_start[start]:
                    continue
                end = start + span_len
                items = lexical_span_items(self.lexicon, tokens, start, end)
                if items:
                    for position in range(start, end):
                        covered[position] = True
                    chart.setdefault((start, end), []).extend(items)
        unknown = [
            tokens[position].text
            for position in range(length)
            if not covered[position]
        ]
        # CKY combination.
        dropped = 0
        for span_len in range(2, length + 1):
            for start in range(0, length - span_len + 1):
                end = start + span_len
                cell = chart.setdefault((start, end), [])
                existing = {
                    (str(item.category), signature(item.sem)) for item in cell
                }
                for mid in range(start + 1, end):
                    for left in chart.get((start, mid), []):
                        for right in chart.get((mid, end), []):
                            for category, sem in all_productions(
                                left.category, left.sem,
                                right.category, right.sem,
                            ):
                                # Normalize eagerly so semantically identical
                                # derivations (CCG's spurious ambiguity)
                                # collapse instead of saturating the cell.
                                reduced = Item(category, reduce_term(sem))
                                key = (str(reduced.category), signature(reduced.sem))
                                if key in existing:
                                    continue
                                if len(cell) >= self.max_cell_items:
                                    dropped += 1
                                    continue
                                existing.add(key)
                                cell.append(reduced)
        return chart, unknown, dropped


def _is_terminal_punct(token: Token) -> bool:
    return token.kind == KIND_PUNCT and token.text in ".!?:"
