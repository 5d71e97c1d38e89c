"""A fused, memoizing normalizer for the chart's lambda semantics.

The reference chart normalizes every produced item with
:func:`repro.ccg.semantics.reduce_term` — repeated single-step beta
reduction, each step a full traversal — and then runs a second full
traversal for the dedup :func:`~repro.ccg.semantics.signature`.  On the
cold-parse path that multi-pass work dominates.

Here normalization, structural identity, and groundedness are computed in
**one pass**.  Everything flows as triples ``(sem, sid, grounded)``:

* ``sem`` — the β-normal term (ordinary :class:`~repro.ccg.semantics.Sem`
  nodes, provenance intact);
* ``sid`` — a hash-consed intern id: two terms get the same ``sid`` iff
  they have the same provenance-free structure, i.e. exactly the
  equivalence :func:`~repro.ccg.semantics.signature` induces, but a dict
  probe on small tuples instead of string assembly;
* ``grounded`` — :func:`~repro.ccg.semantics.is_grounded`, composed
  bottom-up.

:func:`normalize` evaluates a term under an environment of triples.
Because every term entering the system is already β-normal (lexical
semantics are hand-written normal forms; produced items are stored
normalized), redexes only appear when application substitutes a lambda
into function position — so the walk touches the substitution spine and
shortcuts everything else:

* subtrees with no free variable bound by the environment are returned
  as-is, with their triple cached *on the node* (``_norm`` in the
  instance dict), so repeated applications of the same function re-walk
  only what actually changes;
* free-variable sets are likewise cached per node (``_fv``);
* leaf sids cache on the ``Const``/``Var`` instances.

The intern table is process-global and content-addressed: equal keys map
to equal ids across sentences and parses, which makes sids comparable
everywhere and lets the formulaic structure of RFC prose intern once.  It
grows with the number of distinct logical-form shapes ever parsed — the
same growth discipline as the registry's parse cache.

Provenance survives untouched: ``Const`` spans ride along by object
identity and ``Call`` trigger/flags are copied field-for-field, so the
winnow checks see the same spans and triggers the reference backend
produces.  Binder names are kept verbatim (chart semantics are closed
terms, so reification under a binder never captures anything); β-normal
forms are unique up to those names (Church–Rosser), which is why this
normalizer and ``reduce_term`` agree structure-for-structure on every
grounded logical form — the property the backend-parity suite locks
corpus-wide.
"""

from __future__ import annotations

import itertools

from ..ccg.semantics import App, Call, Const, Lam, Sem, Var
from .profile import PROFILE

__all__ = ["normalize", "normalize_batch", "apply_triple", "Triple",
           "sid_of_key", "sid_apply", "sid_grounded", "neutral", "lam_wrap",
           "make_call_triple"]

#: (sem, sid, grounded)
Triple = tuple[Sem, int, bool]

# Frozen-dataclass construction goes through object.__setattr__ per field;
# on a path that builds hundreds of thousands of nodes per corpus that is
# pure overhead.  These constructors write the instance dict directly —
# field layout, equality, and hashing are unchanged.
_new = object.__new__


def _mk_call(pred, args, trigger, flags) -> Call:
    node = _new(Call)
    d = node.__dict__
    d["pred"] = pred
    d["args"] = args
    d["trigger"] = trigger
    d["flags"] = flags
    return node


def _mk_app(fn, arg) -> App:
    node = _new(App)
    d = node.__dict__
    d["fn"] = fn
    d["arg"] = arg
    return node


def _mk_lam(param, body) -> Lam:
    node = _new(Lam)
    d = node.__dict__
    d["param"] = param
    d["body"] = body
    return node


# -- hash consing --------------------------------------------------------------
#
# Id assignment is an atomic ``setdefault`` drawing from a counter, so
# racing threads can never hand one id to two different structures (at
# worst a counter value is burned and ids have gaps).

_INTERN: dict[tuple, int] = {}
_NEXT_SID = itertools.count()

#: sid → its structural key — the inverse of :data:`_INTERN`, maintained at
#: every intern site.  This is what lets the sid-level β-engine below walk
#: and rewrite structures without ever materializing term objects.
_KEY_OF: dict[int, tuple] = {}


def sid_of_key(key: tuple) -> int:
    """The intern id for a structural key (see module docstring)."""
    sid = _INTERN.get(key)
    if sid is None:
        sid = _INTERN.setdefault(key, next(_NEXT_SID))
        _KEY_OF.setdefault(sid, key)
    return sid


def _leaf_sid(leaf, tag: str, payload: str) -> int:
    d = leaf.__dict__
    sid = d.get("_sid")
    if sid is None:
        sid = d["_sid"] = sid_of_key((tag, payload))
    return sid


#: Shared neutral-variable triples for the binder names the rules use.
_NEUTRALS: dict[str, Triple] = {}


def neutral(name: str) -> Triple:
    """The neutral-variable triple for ``name`` (shared instance)."""
    triple = _NEUTRALS.get(name)
    if triple is None:
        var = Var(name)
        triple = _NEUTRALS[name] = (var, _leaf_sid(var, "v", name), False)
    return triple


# -- free variables ------------------------------------------------------------

def _free_vars(term: Sem) -> frozenset[str]:
    """Free-variable set, cached on the node (terms are immutable)."""
    d = term.__dict__
    fv = d.get("_fv")
    if fv is not None:
        return fv
    kind = type(term)
    if kind is Var:
        fv = frozenset((term.name,))
    elif kind is Const:
        fv = frozenset()
    elif kind is Lam:
        fv = _free_vars(term.body) - {term.param}
    elif kind is App:
        fv = _free_vars(term.fn) | _free_vars(term.arg)
    elif kind is Call:
        fv = frozenset()
        for arg in term.args:
            fv = fv | _free_vars(arg)
    else:
        raise TypeError(f"no free variables for {term!r}")
    d["_fv"] = fv
    return fv


# -- the normalizer ------------------------------------------------------------

def normalize(term: Sem, env: dict[str, Triple]) -> Triple:
    """Normalize ``term`` under ``env`` into a ``(sem, sid, grounded)``
    triple (see module docstring for the shortcut discipline)."""
    kind = type(term)
    if kind is Var:
        hit = env.get(term.name)
        if hit is not None:
            return hit
        return term, _leaf_sid(term, "v", term.name), False
    if kind is Const:
        return term, _leaf_sid(term, "c", term.value), True
    d = term.__dict__
    if env:
        fv = d.get("_fv")
        if fv is None:
            fv = _free_vars(term)
        for name in env:
            if name in fv:
                break
        else:
            env = _EMPTY_ENV  # nothing to substitute: closed w.r.t. env
    if not env:
        cached = d.get("_norm")
        if cached is not None:
            return cached
    if kind is Call:
        sems = []
        sids = []
        grounded = True
        changed = False
        for arg in term.args:
            sub = type(arg)
            if sub is Const:
                sems.append(arg)
                arg_dict = arg.__dict__
                sid = arg_dict.get("_sid")
                if sid is None:
                    sid = arg_dict["_sid"] = sid_of_key(("c", arg.value))
                sids.append(sid)
            elif sub is Var:
                hit = env.get(arg.name)
                if hit is None:
                    sems.append(arg)
                    arg_dict = arg.__dict__
                    sid = arg_dict.get("_sid")
                    if sid is None:
                        sid = arg_dict["_sid"] = sid_of_key(("v", arg.name))
                    sids.append(sid)
                    grounded = False
                else:
                    sems.append(hit[0])
                    sids.append(hit[1])
                    grounded = grounded and hit[2]
                    changed = True
            else:
                arg_sem, arg_sid, arg_grounded = normalize(arg, env)
                sems.append(arg_sem)
                sids.append(arg_sid)
                grounded = grounded and arg_grounded
                changed = changed or arg_sem is not arg
        sem = (
            term if not changed
            else _mk_call(term.pred, tuple(sems), term.trigger, term.flags)
        )
        key = ("@", term.pred, tuple(sids))
        sid = _INTERN.get(key)
        if sid is None:
            sid = _INTERN.setdefault(key, next(_NEXT_SID))
            _KEY_OF.setdefault(sid, key)
        triple = (sem, sid, grounded)
        if grounded:
            # A grounded result is closed and self-normal: stamp it so any
            # later normalize() of this node — as an operand, under any
            # environment — is two dict probes, never a re-walk.
            sem_dict = sem.__dict__
            sem_dict["_fv"] = _EMPTY_FV
            sem_dict["_norm"] = triple
            return triple
    elif kind is Lam:
        param = term.param
        if env:
            inner = dict(env)
            inner[param] = neutral(param)
        else:
            # Closed lambda: the one-binding environment is a pure
            # function of the parameter name — share it (environments
            # are never mutated once passed down).
            inner = _PARAM_ENVS.get(param)
            if inner is None:
                inner = _PARAM_ENVS[param] = {param: neutral(param)}
        body_sem, body_sid, _ = normalize(term.body, inner)
        sem = term if body_sem is term.body else _mk_lam(param, body_sem)
        triple = (sem, sid_of_key(("l", param, body_sid)), False)
    elif kind is App:
        fn_t = term.fn
        if type(fn_t) is Lam:
            # Syntactic redex: substitute straight into the body.
            arg_triple = normalize(term.arg, env)
            if env:
                inner = dict(env)
                inner[fn_t.param] = arg_triple
            else:
                inner = {fn_t.param: arg_triple}
            return normalize(fn_t.body, inner)
        sub = type(fn_t)
        if sub is Var:
            hit = env.get(fn_t.name)
            fn = hit if hit is not None else (
                fn_t, _leaf_sid(fn_t, "v", fn_t.name), False)
        else:
            fn = normalize(fn_t, env)
        arg_t = term.arg
        sub = type(arg_t)
        if sub is Var:
            hit = env.get(arg_t.name)
            arg = hit if hit is not None else (
                arg_t, _leaf_sid(arg_t, "v", arg_t.name), False)
        elif sub is Const:
            arg = (arg_t, _leaf_sid(arg_t, "c", arg_t.value), True)
        else:
            arg = normalize(arg_t, env)
        triple = apply_triple(fn, arg)
        if not env:
            d["_norm"] = triple
        return triple
    else:
        raise TypeError(f"cannot normalize {term!r}")
    if not env:
        d["_norm"] = triple
    return triple


_EMPTY_ENV: dict[str, Triple] = {}
_EMPTY_FV: frozenset[str] = frozenset()

#: param name → the shared ``{param: neutral(param)}`` environment used to
#: descend under a closed lambda (read-only by construction).
_PARAM_ENVS: dict[str, dict[str, Triple]] = {}


def normalize_batch(terms: list[Sem]) -> list[Triple]:
    """Normalize many closed terms in one topological pass.

    The per-term recursive :func:`normalize` re-enters every node of every
    derivation; when a batch of terms shares subderivations (one chart
    cell's items, one forest's root readings), that sharing is invisible
    to the recursion until the per-node ``_norm`` stamps start answering.
    This driver makes the sharing explicit: an iterative post-order walk
    over the *union* DAG of the batch stamps each distinct subterm exactly
    once, children before parents, so every parent normalization is a
    shallow combine over already-stamped children — no Python recursion
    down spines the batch has already visited.

    ``Lam`` nodes (and the syntactic-redex applications that substitute
    into them) are delegated whole to :func:`normalize`: their bodies
    normalize under a binder environment, which is exactly the recursion
    the stamps cannot replace.  Lambda nesting in chart semantics is
    shallow, so the delegated recursion is bounded by binder depth, not
    derivation size.

    Returns the ``(sem, sid, grounded)`` triple per input term, in input
    order — each identical to what ``normalize(term, {})`` returns.
    """
    stack = [(term, False) for term in reversed(terms)]
    push = stack.append
    while stack:
        term, ready = stack.pop()
        kind = type(term)
        if kind is Const or kind is Var:
            continue  # leaf sids are computed (and cached) inline
        if ready:
            normalize(term, _EMPTY_ENV)  # children stamped: shallow combine
            continue
        d = term.__dict__
        if d.get("_norm") is not None:
            continue
        if kind is Lam or (kind is App and type(term.fn) is Lam):
            normalize(term, _EMPTY_ENV)  # binder/redex: delegate whole
            continue
        push((term, True))
        if kind is Call:
            for arg in term.args:
                push((arg, False))
        elif kind is App:
            push((term.fn, False))
            push((term.arg, False))
        else:
            raise TypeError(f"cannot normalize {term!r}")
    return [normalize(term, _EMPTY_ENV) for term in terms]


def lam_wrap(param: str, body: Triple) -> Triple:
    """Wrap a normalized body triple in a lambda binder (rule templates)."""
    return (
        _mk_lam(param, body[0]),
        sid_of_key(("l", param, body[1])),
        False,
    )


def make_call_triple(pred: str, args: tuple[Triple, ...], trigger,
                     flags: frozenset) -> Triple:
    """Build a predicate-application triple from normalized argument
    triples (rule templates; provenance fields pass straight through)."""
    grounded = True
    for arg in args:
        grounded = grounded and arg[2]
    sem = _mk_call(pred, tuple(arg[0] for arg in args), trigger, flags)
    triple = (sem, sid_of_key(("@", pred, tuple(arg[1] for arg in args))),
              grounded)
    if grounded:
        sem_dict = sem.__dict__
        sem_dict["_fv"] = _EMPTY_FV
        sem_dict["_norm"] = triple
    return triple


#: (id(fn_sem), id(arg_sem)) → (fn_sem, arg_sem, result triple).  The
#: result of applying one normal form to another is a pure function of the
#: two term *objects* (provenance included), so identity-keyed memoization
#: is exact; the stored references pin the keyed objects.  Hits come from
#: the lexical span cache sharing stamped semantics across sentences —
#: formulaic RFC prose re-applies the same function to the same argument
#: constantly.  Because the pins keep term objects alive, the lexical
#: cache calls :func:`reset_apply_memo` whenever it evicts a lexicon
#: generation: entries rooted in evicted sems could never hit again
#: (fresh generations allocate fresh objects), so dropping the whole memo
#: keeps memory bounded at the cost of re-deriving the live generation's
#: applications once.
_APPLY_MEMO: dict[tuple[int, int], tuple] = {}


def reset_apply_memo() -> None:
    """Drop every memoized application (see :data:`_APPLY_MEMO`)."""
    _APPLY_MEMO.clear()


def reset_derived_memos() -> None:
    """Drop every derived memo while keeping the intern tables.

    Clears the term- and sid-level application memos and the per-sid
    facts table — everything recomputable from the interned
    structures.  The intern tables themselves (:data:`_INTERN` /
    :data:`_KEY_OF`) stay:
    sids are process-global identities that live :class:`PackedItem`\\ s
    may still hold, and re-interning is O(structure) noise next to the
    memoized work.  Used by cold-start benchmark bracketing.
    """
    _APPLY_MEMO.clear()
    _SID_APPLY_MEMO.clear()
    _SID_FACTS.clear()


def apply_triple(fn: Triple, arg: Triple) -> Triple:
    """Apply one normalized triple to another.

    A lambda callee substitutes the argument into its (already normal)
    body — free variables of that body other than the parameter are
    neutral, so a single-binding environment is complete.  Anything else
    forms a neutral application.
    """
    fn_sem = fn[0]
    if type(fn_sem) is Lam:
        arg_sem = arg[0]
        key = (id(fn_sem), id(arg_sem))
        hit = _APPLY_MEMO.get(key)
        if hit is not None:
            PROFILE.apply_memo_hits += 1
            return hit[2]
        PROFILE.apply_memo_misses += 1
        triple = normalize(fn_sem.body, {fn_sem.param: arg})
        _APPLY_MEMO[key] = (fn_sem, arg_sem, triple)
        return triple
    arg_sem = arg[0]
    return (
        _mk_app(fn_sem, arg_sem),
        sid_of_key(("a", fn[1], arg[1])),
        False,
    )


# -- the sid-level β-engine ----------------------------------------------------
#
# Every sid names a β-normal structure (the intern keys only ever come out
# of the normalizer), so β-reduction can run *entirely over integers*:
# hereditary substitution on the interned keys, never touching a term
# object.  This is what lets the chart's production memo learn the
# (sid, grounded) outcome of a combination without building its semantics
# — term construction is deferred to items that actually enter a cell,
# while the packed/pruned majority (CCG's spurious ambiguity) costs dict
# probes over ints.  The mirrors are exact: ``sid_apply`` reproduces
# ``apply_triple``'s sid, including the capture discipline of
# :func:`normalize` (closed chart terms, binder names verbatim), which the
# backend-parity suite locks corpus-wide.

#: (fn sid, arg sid) → result sid.  Pure and process-global; unlike
#: :data:`_APPLY_MEMO` the keys are ints, so one entry serves every
#: provenance variant of the same structural application.
_SID_APPLY_MEMO: dict[tuple[int, int], int] = {}

#: sid → (free-variable names, grounded) of the structure it names.  One
#: table serves both the substitution engine's closed-subterm shortcut and
#: :func:`sid_grounded`.  Free-variable sets are shared objects wherever
#: possible (the empty set, a child's set when the union adds nothing).
_SID_FACTS: dict[int, tuple[frozenset[str], bool]] = {}


def _sid_facts(sid: int) -> tuple[frozenset[str], bool]:
    """The :data:`_SID_FACTS` row of ``sid``, computed bottom-up on first
    demand (mirrors :func:`_free_vars` and the triple flag
    :func:`normalize` computes: Consts are grounded, predicate
    applications inherit from their arguments, everything else is not)."""
    facts = _SID_FACTS.get(sid)
    if facts is not None:
        return facts
    key = _KEY_OF[sid]
    tag = key[0]
    if tag == "c":
        facts = (_EMPTY_FV, True)
    elif tag == "v":
        facts = (frozenset((key[1],)), False)
    elif tag == "l":
        fv = _sid_facts(key[2])[0]
        if key[1] in fv:
            fv = fv - {key[1]}
        facts = (fv, False)
    else:  # "@" over its arguments, "a" over its head and argument
        fv = _EMPTY_FV
        grounded = tag == "@"
        for child in (key[2] if grounded else key[1:]):
            child_fv, child_grounded = _sid_facts(child)
            if not child_fv <= fv:
                fv = child_fv if not fv else fv | child_fv
            grounded = grounded and child_grounded
        facts = (fv, grounded)
    _SID_FACTS[sid] = facts
    return facts


def sid_apply(fn_sid: int, arg_sid: int) -> int:
    """The sid of applying one normal structure to another (mirrors
    :func:`apply_triple` sid-for-sid)."""
    key = (fn_sid, arg_sid)
    hit = _SID_APPLY_MEMO.get(key)
    if hit is not None:
        return hit
    fkey = _KEY_OF[fn_sid]
    if fkey[0] == "l":
        body = fkey[2]
        facts = _SID_FACTS.get(body) or _sid_facts(body)
        result = (_sid_subst(body, fkey[1], arg_sid)
                  if fkey[1] in facts[0] else body)
    else:
        result = sid_of_key(("a", fn_sid, arg_sid))
    _SID_APPLY_MEMO[key] = result
    return result


def _sid_subst(body_sid: int, param: str, arg_sid: int,
               memo: dict[int, int] | None = None) -> int:
    """Hereditary substitution ``body[param := arg]`` over sids, for a
    body in which ``param`` is free.

    Normal in, normal out: substituting into a neutral application can
    expose a redex at its head, which re-enters :func:`sid_apply`.  The
    walk descends only into subterms where ``param`` is free (a shadowing
    binder removes it from its lambda's set, which stops the descent);
    every other subterm keeps its sid.  Otherwise the walk is as
    capture-naive as :func:`normalize` itself — the two must agree
    structure-for-structure, not be independently "correct".

    ``memo`` (body sid → result) lives for one call, where ``param`` and
    ``arg`` are fixed: a subterm shared within the body is rewritten once
    (a memo-less walk of a depth-k DAG makes 2^k visits), and nothing is
    retained after it; an exposed redex's :func:`sid_apply` opens its own."""
    if memo is None:
        memo = {}
    key = _KEY_OF[body_sid]
    tag = key[0]
    if tag == "v":
        return arg_sid  # the free variable is ``param`` itself
    hit = memo.get(body_sid)
    if hit is not None:
        return hit
    facts_get = _SID_FACTS.get
    if tag == "@":
        new_args = []
        for a in key[2]:
            facts = facts_get(a) or _sid_facts(a)
            new_args.append(_sid_subst(a, param, arg_sid, memo)
                            if param in facts[0] else a)
        new_args = tuple(new_args)
        result = (body_sid if new_args == key[2]
                  else sid_of_key(("@", key[1], new_args)))
    elif tag == "l":
        new_body = _sid_subst(key[2], param, arg_sid, memo)
        result = (body_sid if new_body == key[2]
                  else sid_of_key(("l", key[1], new_body)))
    else:  # "a": neutral application; its head is never a lambda
        fn, arg = key[1], key[2]
        facts = facts_get(fn) or _sid_facts(fn)
        new_fn = (_sid_subst(fn, param, arg_sid, memo) if param in facts[0]
                  else fn)
        facts = facts_get(arg) or _sid_facts(arg)
        new_arg = (_sid_subst(arg, param, arg_sid, memo) if param in facts[0]
                   else arg)
        if new_fn != fn:
            result = sid_apply(new_fn, new_arg)
        elif new_arg != arg:
            result = sid_of_key(("a", fn, new_arg))
        else:
            result = body_sid
    memo[body_sid] = result
    return result


def sid_grounded(sid: int) -> bool:
    """Groundedness of the structure ``sid`` names (see
    :func:`_sid_facts`)."""
    facts = _SID_FACTS.get(sid) or _sid_facts(sid)
    return facts[1]
