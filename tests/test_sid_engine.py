"""Property tests for the sid-level β-engine and the composed-category memo.

The engine (``sid_apply``/``_sid_subst`` in ``repro.parsing.values``)
descends only into subterms where the substituted parameter is free.  It
is checked here against a naive full-walk reference kept in this module,
and against the term-level ``apply_triple`` it shadows.

Generated terms stay inside a terminating fragment: function bodies are
β-normal (an application's head is a variable or a neutral application),
and arguments contain no application at all, so substituting one into a
head creates a redex whose reduction cannot create another.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccg.categories import (
    CONJ,
    NP,
    PP,
    S,
    backward,
    category_id,
    forward,
)
from repro.ccg.combinators import (
    RULE_BACKWARD_COMPOSITION,
    RULE_COORDINATION,
    RULE_FORWARD_COMPOSITION,
)
from repro.ccg.semantics import App, Call, Const, Lam, Var
from repro.parsing import indexed, values
from repro.parsing.forest import PackedItem
from repro.parsing.values import (
    apply_triple,
    normalize,
    reset_derived_memos,
    sid_apply,
    sid_grounded,
    sid_of_key,
)

#: Few binder names, so shadowing and capture paths come up often.
NAMES = ("x", "y", "z")
PREDS = ("P", "Q")
CONSTS = ("c", "d")


# -- the naive reference -------------------------------------------------------

def naive_subst(sid, param, arg):
    """``sid[param := arg]``, walking every subterm (no skip, no memo)."""
    key = values._KEY_OF[sid]
    tag = key[0]
    if tag == "v":
        return arg if key[1] == param else sid
    if tag == "c":
        return sid
    if tag == "@":
        new_args = tuple(naive_subst(a, param, arg) for a in key[2])
        return sid if new_args == key[2] else sid_of_key(("@", key[1], new_args))
    if tag == "l":
        if key[1] == param:
            return sid
        body = naive_subst(key[2], param, arg)
        return sid if body == key[2] else sid_of_key(("l", key[1], body))
    fn = naive_subst(key[1], param, arg)
    operand = naive_subst(key[2], param, arg)
    if (fn, operand) == (key[1], key[2]):
        return sid
    return naive_apply(fn, operand)


def naive_apply(fn, arg):
    key = values._KEY_OF[fn]
    if key[0] == "l":
        return naive_subst(key[2], key[1], arg)
    return sid_of_key(("a", fn, arg))


def naive_free_vars(sid):
    key = values._KEY_OF[sid]
    tag = key[0]
    if tag == "v":
        return {key[1]}
    if tag == "c":
        return set()
    if tag == "@":
        return set().union(*(naive_free_vars(a) for a in key[2]))
    if tag == "l":
        return naive_free_vars(key[2]) - {key[1]}
    return naive_free_vars(key[1]) | naive_free_vars(key[2])


# -- generators ----------------------------------------------------------------

@st.composite
def arguments(draw, scope, depth=3):
    """Application-free terms over the variables in ``scope``."""
    kinds = ["const"] + (["var"] if scope else [])
    if depth > 0:
        kinds += ["call", "lam"]
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return Const(draw(st.sampled_from(CONSTS)))
    if kind == "var":
        return Var(draw(st.sampled_from(sorted(scope))))
    if kind == "call":
        count = draw(st.integers(1, 3))
        return Call(draw(st.sampled_from(PREDS)), tuple(
            draw(arguments(scope, depth - 1)) for _ in range(count)))
    name = draw(st.sampled_from(NAMES))
    return Lam(name, draw(arguments(scope | {name}, depth - 1)))


@st.composite
def bodies(draw, scope, depth=4):
    """β-normal terms whose applications have a variable or a neutral
    application at the head."""
    kinds = ["const"] + (["var"] if scope else [])
    if depth > 0:
        kinds += ["call", "lam"] + (["app"] if scope else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return Const(draw(st.sampled_from(CONSTS)))
    if kind == "var":
        return Var(draw(st.sampled_from(sorted(scope))))
    if kind == "call":
        count = draw(st.integers(1, 3))
        return Call(draw(st.sampled_from(PREDS)), tuple(
            draw(bodies(scope, depth - 1)) for _ in range(count)))
    if kind == "lam":
        name = draw(st.sampled_from(NAMES))
        return Lam(name, draw(bodies(scope | {name}, depth - 1)))
    head = Var(draw(st.sampled_from(sorted(scope))))
    if depth > 1 and draw(st.booleans()):
        head = App(head, draw(bodies(scope, depth - 2)))
    return App(head, draw(bodies(scope, depth - 1)))


@st.composite
def applications(draw, free=frozenset(NAMES)):
    """``(λparam. body, arg)`` with the given free variables available."""
    param = draw(st.sampled_from(NAMES))
    body = draw(bodies(set(free) | {param}))
    return Lam(param, body), draw(arguments(set(free)))


# -- properties ----------------------------------------------------------------

class TestSidEngine:
    @given(applications())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_full_walk(self, case):
        reset_derived_memos()
        fn, arg = case
        fn_sid = normalize(fn, {})[1]
        arg_sid = normalize(arg, {})[1]
        expected = naive_apply(fn_sid, arg_sid)
        assert sid_apply(fn_sid, arg_sid) == expected
        param, body_sid = fn.param, values._KEY_OF[fn_sid][2]
        if param in naive_free_vars(body_sid):
            assert values._sid_subst(body_sid, param, arg_sid) == expected

    @given(applications(free=frozenset()))
    @settings(max_examples=300, deadline=None)
    def test_matches_apply_triple_on_closed_terms(self, case):
        reset_derived_memos()
        fn, arg = (normalize(term, {}) for term in case)
        result = apply_triple(fn, arg)
        assert sid_apply(fn[1], arg[1]) == result[1]
        assert sid_grounded(result[1]) == result[2]

    @given(applications())
    @settings(max_examples=300, deadline=None)
    def test_closed_subterms_get_no_memo_entry(self, case):
        reset_derived_memos()
        fn, arg = (normalize(term, {})[1] for term in case)
        _tag, param, body = values._KEY_OF[fn]
        memo = {}
        if param in naive_free_vars(body):
            values._sid_subst(body, param, arg, memo)
        for entry in memo:
            assert param in naive_free_vars(entry)
            assert values._KEY_OF[entry][0] != "v"

    @given(bodies(set(NAMES)))
    @settings(max_examples=200, deadline=None)
    def test_grounded_and_free_vars_match_the_triple(self, term):
        reset_derived_memos()
        sem, sid, grounded = normalize(term, {})
        assert sid_grounded(sid) == grounded
        assert values._sid_facts(sid)[0] == naive_free_vars(sid)

    def test_shared_subterms_substitute_once(self):
        # t0 = p, t_i = And(t_(i-1), t_(i-1)): 41 distinct subterms but
        # 2^40 paths from the root, so a walk that does not memoize its
        # shared subterms would never finish.
        reset_derived_memos()
        param, const = sid_of_key(("v", "p")), sid_of_key(("c", "c"))
        body, expected = param, const
        for _ in range(40):
            body = sid_of_key(("@", "And", (body, body)))
            expected = sid_of_key(("@", "And", (expected, expected)))
        assert sid_apply(sid_of_key(("l", "p", body)), const) == expected

    def test_head_redex_reduces(self):
        # (λx. x c) (λy. P(y)) → P(c): the substituted lambda lands in
        # head position and the exposed redex is reduced.
        fn = normalize(Lam("x", App(Var("x"), Const("c"))), {})
        arg = normalize(Lam("y", Call("P", (Var("y"),))), {})
        expected = normalize(Call("P", (Const("c"),)), {})[1]
        assert sid_apply(fn[1], arg[1]) == expected == apply_triple(fn, arg)[1]

    def test_shadowed_binder_is_left_alone(self):
        # (λx. λx. x) d → λx. x: the inner binder shadows the parameter.
        fn = normalize(Lam("x", Lam("x", Var("x"))), {})
        arg = normalize(Const("d"), {})
        assert sid_apply(fn[1], arg[1]) == values._KEY_OF[fn[1]][2]


# -- the composed-category memo --------------------------------------------------

def _item(category, sem):
    return PackedItem(category=category, sem=sem, ntriple=normalize(sem, {}))


UNARY = Lam("v", Call("P", (Var("v"),)))

#: rule → (left item, right item, categories the rows must carry).
COMPOSED_SHAPES = {
    "forward composition": (
        RULE_FORWARD_COMPOSITION,
        _item(forward(S, NP), UNARY),
        _item(forward(NP, PP), UNARY),
        [forward(S, PP)],
    ),
    "backward composition": (
        RULE_BACKWARD_COMPOSITION,
        _item(backward(NP, PP), UNARY),
        _item(backward(S, NP), UNARY),
        [backward(S, PP)],
    ),
    "coordination": (
        RULE_COORDINATION,
        _item(CONJ, Const("and")),
        _item(S, Call("Q", (Const("c"),))),
        [backward(S, S)],
    ),
    "coordination of noun phrases": (
        RULE_COORDINATION,
        _item(CONJ, Const("or")),
        _item(NP, Const("d")),
        [backward(NP, NP), backward(forward(S, backward(S, NP)), NP)],
    ),
}


@pytest.mark.parametrize("shape", sorted(COMPOSED_SHAPES))
def test_composed_category_memo(shape):
    rule, litem, ritem, expected = COMPOSED_SHAPES[shape]
    indexed._COMPOSED_CATEGORY.clear()
    cold = indexed._structural_outcomes(rule, litem, ritem)
    warm = indexed._structural_outcomes(rule, litem, ritem)
    assert warm == cold
    assert [(row[0], row[1]) for row in cold] == [
        (category, category_id(category)) for category in expected]
    # The memo answers the repeat with the same category object.
    assert all(a[0] is b[0] for a, b in zip(cold, warm))
    # Rows agree with the term-level production, category and structure.
    produced = indexed._produce(rule, litem, ritem)
    assert [(row[0], row[2], row[3]) for row in cold] == [
        (category, triple[1], triple[2]) for category, triple in produced]
