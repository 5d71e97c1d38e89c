"""The five winnowing checks of §4.2, memoized over interned structure.

Each check filters a sentence's logical-form set:

* **Type** — predicate argument types (allowlist; e.g. @Action's first
  argument must be a function name, @Is cannot assign to a constant).
* **Argument ordering** — order-sensitive predicates must take their
  arguments in source order (@If's condition must be the clause adjacent to
  the "if" token; @Is's target precedes its value).
* **Predicate ordering** — blocklisted nestings are removed (@Is may not
  appear beneath @Of: the "(A of B) is C" vs "A of (B is C)" case).
* **Distributivity** — when both the grouped "(A and B) is C" and the
  distributed "(A is C) and (B is C)" survive, keep the grouped form.
* **Associativity** — logical forms equal up to associative regrouping
  (Figure 3) collapse to one, by canonical-form membership.

Memoization discipline — what may key on what:

* **Sid-pure checks** (Type, Predicate Ordering, Associativity) depend
  only on provenance-free structure, so their per-node results live in
  process-global tables keyed on the interned sids from
  :mod:`repro.parsing.values`, shared across every parse that produces the
  same shape.  Each table is addressed by the owning check's content
  *fingerprint* (rule set + constant classes / blocklist), so two
  differently-configured checks never alias, and an edited configuration
  self-invalidates by landing in a fresh table.
* **Provenance-dependent checks** (Argument Ordering reads Const spans and
  Call triggers; Distributivity reads Call flags — none of which are part
  of a sid) must NOT key on sids.  Their per-form results cache on the
  node objects themselves (``__dict__``, the ``_norm`` idiom), exact by
  object identity.

To add a memo-safe check: pure functions of structure may use
``sid_for_term`` + a ``_memo_table(fingerprint)`` table; anything reading
``span``/``trigger``/``flags`` caches on the node or not at all.  Custom
:class:`~repro.lf.predicates.TypeRule` sets must give behaviorally
distinct rules distinct names — rule closures cannot be content-hashed,
so the fingerprint identifies them by ``(name, predicate)``.

``reset_winnow_state()`` drops every global table (cold-benchmark
bracketing, mirroring ``reset_parser_state``); per-node caches die with
their nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha1

from ..ccg.semantics import Call, Sem, calls_of, span_of
from ..lf.graph import (
    _CANON_SID,
    canon_of_sid,
    reset_canonical_memos,
    sid_for_term,
)
from ..lf.predicates import (
    LEFT_TO_RIGHT_PREDICATES,
    TRIGGER_ADJACENT_PREDICATES,
    ConstantClasses,
    TypeRule,
    default_type_rules,
    rules_by_predicate,
)
from ..parsing.values import _KEY_OF
from .profile import PROFILE

#: check fingerprint → its process-global sid-keyed memo table.  Tables are
#: cleared in place by :func:`reset_winnow_state` so checks holding a
#: reference keep it across resets.
_CHECK_MEMOS: dict[str, dict[int, bool]] = {}


def _memo_table(fingerprint: str) -> dict[int, bool]:
    table = _CHECK_MEMOS.get(fingerprint)
    if table is None:
        table = _CHECK_MEMOS[fingerprint] = {}
    return table


def reset_winnow_state() -> None:
    """Drop every process-global winnow memo (honest cold benchmarks).

    Clears the per-check sid tables and the canonicalization memos; the
    intern tables themselves survive (sids stay valid), mirroring
    :func:`repro.parsing.values.reset_derived_memos`.
    """
    for table in _CHECK_MEMOS.values():
        table.clear()
    reset_canonical_memos()


def _calls(term: Sem) -> tuple[Call, ...]:
    """Profiled access to the per-node cached call list."""
    if "_calls" in term.__dict__:
        PROFILE.calls_cache_hits += 1
    else:
        PROFILE.calls_cache_misses += 1
    return calls_of(term)


def _span(term: Sem):
    """Profiled access to the per-node cached span."""
    if "_span" in term.__dict__:
        PROFILE.span_cache_hits += 1
    else:
        PROFILE.span_cache_misses += 1
    return span_of(term)


class Check:
    """Base winnowing check: filters a list of LFs."""

    name = "check"

    def filter(self, forms: list[Sem]) -> list[Sem]:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Content identity for memo tables and winnow-cache keys.

        Configuration-free checks are identified by their class; checks
        with tunable rules override this with a content digest.
        """
        return type(self).__name__


class TypeCheck(Check):
    """Remove LFs with ill-typed predicate arguments."""

    name = "Type"

    def __init__(self, rules: list[TypeRule] | None = None,
                 classes: ConstantClasses | None = None) -> None:
        self.rules = rules if rules is not None else default_type_rules()
        self.classes = classes or ConstantClasses()
        self._by_predicate = rules_by_predicate(self.rules)
        self._memo: dict[int, bool] | None = None
        self._fp: str | None = None
        self._fp_generation = -1

    def fingerprint(self) -> str:
        self._refresh()
        return self._fp

    def _refresh(self) -> dict[int, bool]:
        """The memo table for the *current* configuration.

        ``ConstantClasses`` is mutable (``register``); its generation
        counter rides in the fingerprint, so registering a class moves
        this check to a fresh table instead of serving stale verdicts.
        """
        generation = self.classes.generation
        if self._memo is None or self._fp_generation != generation:
            payload = repr((
                "Type",
                tuple((rule.name, rule.predicate) for rule in self.rules),
                self.classes.fingerprint(),
            ))
            self._fp = sha1(payload.encode("utf-8")).hexdigest()
            self._fp_generation = generation
            self._memo = _memo_table(self._fp)
        return self._memo

    def well_typed(self, form: Sem) -> bool:
        memo = self._refresh()
        sid = sid_for_term(form)[0]
        if type(form) is not Call:
            return True  # a bare constant has no calls to violate
        return self._typed_sid(form, sid, memo)

    def _typed_sid(self, node: Call, sid: int, memo: dict[int, bool]) -> bool:
        hit = memo.get(sid)
        if hit is not None:
            PROFILE.type_memo_hits += 1
            return hit
        PROFILE.type_memo_misses += 1
        result = True
        rules = self._by_predicate.get(node.pred)
        if rules:
            for rule in rules:
                if not rule.check(node, self.classes):
                    result = False
                    break
        if result:
            # The sid's intern key decomposes in lockstep with the node's
            # argument tuple, handing every child its sid for free.
            arg_sids = _KEY_OF[sid][2]
            for arg, arg_sid in zip(node.args, arg_sids):
                if type(arg) is Call and not self._typed_sid(arg, arg_sid,
                                                            memo):
                    result = False
                    break
        memo[sid] = result
        return result

    def filter(self, forms: list[Sem]) -> list[Sem]:
        return [form for form in forms if self.well_typed(form)]


class ArgumentOrderingCheck(Check):
    """Remove LFs whose order-sensitive arguments violate source order.

    For trigger-adjacent predicates (@If, @AdvBefore, @Goal) the first
    argument must be the clause that immediately follows the trigger word.
    For left-to-right predicates (@Is, @Reach) the target's source span must
    begin before the value's.

    Spans and triggers are provenance — not part of a sid — so the verdict
    caches on the form object itself, never in a sid table.
    """

    name = "Argument Ordering"

    def ordered(self, form: Sem) -> bool:
        d = form.__dict__
        hit = d.get("_arg_ordered")
        if hit is not None:
            PROFILE.form_cache_hits += 1
            return hit
        PROFILE.form_cache_misses += 1
        result = True
        for call in _calls(form):
            if call.pred in TRIGGER_ADJACENT_PREDICATES:
                if not self._trigger_adjacent(call):
                    result = False
                    break
            if call.pred in LEFT_TO_RIGHT_PREDICATES:
                if not self._left_to_right(call):
                    result = False
                    break
        d["_arg_ordered"] = result
        return result

    @staticmethod
    def _trigger_adjacent(call: Call) -> bool:
        """The first argument owns the tokens right of the trigger word.

        For "If A, B" (trigger sentence-initial) the condition A must start
        after the trigger and the consequent B must follow A.  For "B if A"
        (trailing trigger) A still follows the trigger while B sits wholly
        before it.  A violating LF has B's material between the trigger and
        A — the swapped-argument over-generation.
        """
        if call.trigger is None or len(call.args) < 2:
            return True
        first_span = _span(call.args[0])
        second_span = _span(call.args[1])
        if first_span is None or second_span is None:
            return True
        if first_span[0] <= call.trigger:
            return False  # the trigger's clause must follow the trigger
        return second_span[1] <= call.trigger or second_span[0] >= first_span[0]

    @staticmethod
    def _left_to_right(call: Call) -> bool:
        if len(call.args) < 2:
            return True
        left_span = _span(call.args[0])
        right_span = _span(call.args[1])
        if left_span is None or right_span is None:
            return True
        return left_span[0] < right_span[0]

    def filter(self, forms: list[Sem]) -> list[Sem]:
        return [form for form in forms if self.ordered(form)]


@dataclass(frozen=True)
class NestingRule:
    """``inner`` may not appear as a direct argument of ``outer``.

    ``position`` restricts the rule to one argument slot (None = any slot).
    ``transitive`` widens it to "anywhere beneath ``outer``".
    """

    outer: str
    inner: str
    position: int | None = None
    transitive: bool = False


# The blocklist: structural nestings RFC prose never means.
DEFAULT_ORDERING_BLOCKLIST: tuple[NestingRule, ...] = (
    # "(A of B) is C" is the only reading of "A of B is C" (§4.1).
    NestingRule("Of", "Is", transitive=True),
    # The checksum-range anchor scopes over the whole @Of chain (sentence H).
    NestingRule("Of", "StartsWith"),
    # ... and an assignment never nests inside the range expression.
    NestingRule("StartsWith", "Is", transitive=True),
    # A conditional cannot live inside a field path.
    NestingRule("Of", "If", transitive=True),
    # "A and B of C": of-attachment binds low ("A and (B of C)").
    NestingRule("Of", "And", position=0),
    # "A of B in C" / "A in B of C": prepositional attachment binds low.
    NestingRule("In", "Of", position=0),
    NestingRule("Of", "In", position=0),
    # "A and B from C": the source modifier scopes over the conjunction.
    NestingRule("And", "From"),
    # Advice attaches to its nearest clause, not over a whole conditional.
    NestingRule("AdvBefore", "If", position=1),
)


class PredicateOrderingCheck(Check):
    """Remove LFs containing blocklisted predicate nestings.

    Nesting is pure structure, and :class:`NestingRule` is frozen content,
    so verdicts memoize per node in a sid table addressed by the
    blocklist's digest.
    """

    name = "Predicate Ordering"

    def __init__(self, blocklist: tuple[NestingRule, ...] = DEFAULT_ORDERING_BLOCKLIST):
        self.blocklist = blocklist
        payload = repr(("Nesting",) + tuple(
            (rule.outer, rule.inner, rule.position, rule.transitive)
            for rule in blocklist
        ))
        self._fp = sha1(payload.encode("utf-8")).hexdigest()
        self._memo = _memo_table(self._fp)

    def fingerprint(self) -> str:
        return self._fp

    def ordered(self, form: Sem) -> bool:
        sid = sid_for_term(form)[0]
        if type(form) is not Call:
            return True
        return self._ordered_sid(form, sid)

    def _ordered_sid(self, node: Call, sid: int) -> bool:
        memo = self._memo
        hit = memo.get(sid)
        if hit is not None:
            PROFILE.nesting_memo_hits += 1
            return hit
        PROFILE.nesting_memo_misses += 1
        result = not self._violates(node)
        if result:
            arg_sids = _KEY_OF[sid][2]
            for arg, arg_sid in zip(node.args, arg_sids):
                if type(arg) is Call and not self._ordered_sid(arg, arg_sid):
                    result = False
                    break
        memo[sid] = result
        return result

    def _violates(self, call: Call) -> bool:
        for rule in self.blocklist:
            if call.pred != rule.outer:
                continue
            for position, arg in enumerate(call.args):
                if rule.position is not None and position != rule.position:
                    continue
                if rule.transitive:
                    if any(sub.pred == rule.inner for sub in _calls(arg)):
                        return True
                elif isinstance(arg, Call) and arg.pred == rule.inner:
                    return True
        return False

    def filter(self, forms: list[Sem]) -> list[Sem]:
        return [form for form in forms if self.ordered(form)]


class DistributivityCheck(Check):
    """Prefer the non-distributed coordination reading.

    The chart flags LFs built from the distributed coordination rule; when
    any unflagged LF survives, all flagged ones are dropped (§4.2: "sage
    always selects the non-distributive logical form version").  Flags are
    provenance, so the verdict caches on the node, never on a sid.
    """

    name = "Distributivity"

    @staticmethod
    def _is_distributed(form: Sem) -> bool:
        d = form.__dict__
        hit = d.get("_distributed")
        if hit is not None:
            PROFILE.form_cache_hits += 1
            return hit
        PROFILE.form_cache_misses += 1
        hit = d["_distributed"] = any(
            "distributed" in call.flags for call in _calls(form)
        )
        return hit

    def filter(self, forms: list[Sem]) -> list[Sem]:
        non_distributed = [form for form in forms if not self._is_distributed(form)]
        return non_distributed if non_distributed else forms


class AssociativityCheck(Check):
    """Collapse LFs that differ only by associative regrouping.

    Equivalence-class membership is one canonical sid per form
    (:func:`repro.lf.graph.canon_of_sid` — exact for these rooted trees),
    so the filter is a set probe per form instead of the O(n²) VF2 runs it
    replaced.  The test suite replays the bucket-then-VF2 filter as an
    oracle and checks it keeps the same forms in the same order.
    """

    name = "Associativity"

    def filter(self, forms: list[Sem]) -> list[Sem]:
        if len(forms) <= 1:
            return list(forms)
        kept: list[Sem] = []
        seen: set = set()
        for form in forms:
            key = self._class_key(form)
            if key in seen:
                continue
            seen.add(key)
            kept.append(form)
        return kept

    @staticmethod
    def _class_key(form: Sem):
        sid = sid_for_term(form)[0]
        hit = _CANON_SID.get(sid)
        if hit is not None:
            PROFILE.canon_memo_hits += 1
            return hit
        PROFILE.canon_memo_misses += 1
        return canon_of_sid(sid)


@dataclass
class CheckSuite:
    """The ordered battery of §4.2 checks (Figure 5's x-axis)."""

    type_check: TypeCheck
    argument_ordering: ArgumentOrderingCheck
    predicate_ordering: PredicateOrderingCheck
    distributivity: DistributivityCheck
    associativity: AssociativityCheck
    #: (classes generation, digest) of the last :meth:`fingerprint`.
    _fp: tuple[int, str] = field(default=(-1, ""), init=False, repr=False,
                                 compare=False)

    @classmethod
    def default(cls) -> "CheckSuite":
        return cls(
            type_check=TypeCheck(),
            argument_ordering=ArgumentOrderingCheck(),
            predicate_ordering=PredicateOrderingCheck(),
            distributivity=DistributivityCheck(),
            associativity=AssociativityCheck(),
        )

    def in_order(self) -> list[Check]:
        return [
            self.type_check,
            self.argument_ordering,
            self.predicate_ordering,
            self.distributivity,
            self.associativity,
        ]

    def fingerprint(self) -> str:
        """Content digest over every check's configuration, in order.

        Keys the :class:`~repro.core.stages.WinnowStage` result cache:
        editing any check's rules moves every sentence to a fresh slot.
        Only ``type_check.classes`` changes after construction, so the
        digest is recomputed only when its generation moves (the
        registry's run keys read it on every request).
        """
        generation = self.type_check.classes.generation
        if self._fp[0] != generation:
            payload = "|".join(check.fingerprint()
                               for check in self.in_order())
            self._fp = (generation,
                        sha1(payload.encode("utf-8")).hexdigest())
        return self._fp[1]
