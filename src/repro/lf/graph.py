"""Logical forms as graphs: canonicalization up to associative regrouping.

§4.2 Associativity: "If predicates are associative, their logical form trees
(Figure 3) will be isomorphic.  sage detects associativity using a standard
graph isomorphism algorithm."  We flatten chains of associative predicates
(@Of, @And, @Or) into n-ary nodes and compare the results up to permutation
of commutative arguments.

Grounded logical forms (Call/Const trees, the only kind the winnow stage
ever sees) canonicalize in one pass over their interned structural ids
(:mod:`repro.parsing.values`): flatten associative chains and sort
commutative argument lists at the sid level, interning the canonical shape
as a sid of its own.  Two forms are isomorphic **iff** their canonical sids
are equal — for rooted trees, hereditary canonical labeling is exact, no
hashing heuristics — and the memoized tables make repeat forms (formulaic
RFC prose) a dict probe.  The VF2 matcher this replaced lives on in the
test suite (``tests/vf2_oracle.py``) as the oracle the canonical form is
checked against.

The string :func:`canonical_signature` (regrouping-invariant render)
renders from the canonical sid through a memo table.
"""

from __future__ import annotations

from ..ccg.semantics import Call, Sem
from ..parsing.values import _KEY_OF, normalize, sid_of_key
from .predicates import ASSOCIATIVE_PREDICATES

# Associative AND commutative: argument order is semantically irrelevant.
COMMUTATIVE_PREDICATES = {"And", "Or"}


def flatten_associative(term: Sem) -> Sem:
    """Collapse nested chains of associative predicates into n-ary calls.

    ``@Of(@Of(a,b),c)`` and ``@Of(a,@Of(b,c))`` both become ``@Of(a,b,c)``,
    making the two Figure 3 readings identical.
    """
    if not isinstance(term, Call):
        return term
    flattened_args = [flatten_associative(arg) for arg in term.args]
    if term.pred in ASSOCIATIVE_PREDICATES:
        merged: list[Sem] = []
        for arg in flattened_args:
            if isinstance(arg, Call) and arg.pred == term.pred:
                merged.extend(arg.args)
            else:
                merged.append(arg)
        flattened_args = merged
    return Call(
        term.pred, tuple(flattened_args), trigger=term.trigger, flags=term.flags
    )


# -- the canonical form over interned sids -------------------------------------
#
# Every grounded LF carries (or cheaply acquires) an interned structural id
# from the parser's hash-consing tables; its key decomposes the whole tree
# as nested ("@", pred, arg-sids) / ("c", value) tuples.  Canonicalization
# rewrites that key bottom-up — flatten same-predicate associative chains,
# sort commutative argument lists — and interns the result, so equality up
# to regrouping becomes integer equality.  Both tables are process-global
# and content-addressed like the intern tables they shadow; they grow with
# the number of distinct LF shapes ever canonicalized and are dropped by
# :func:`reset_canonical_memos` for honest cold benchmarks.

#: sid → canonical sid (the exact regrouping-equivalence class id).
_CANON_SID: dict[int, int] = {}

#: canonical sid → its rendered signature string.
_CANON_STR: dict[int, str] = {}


def sid_for_term(term: Sem) -> tuple[int, bool]:
    """The interned ``(sid, grounded)`` of ``term``, normalizing on demand.

    Parser-produced forms carry their triple already (``_norm`` stamped by
    the fused normalizer); disk-decoded or hand-built forms pay one
    normalize walk, cached on the node for every later probe.
    """
    cached = term.__dict__.get("_norm")
    if cached is None:
        cached = normalize(term, {})
    return cached[1], cached[2]


def _canon_str(canon_sid: int) -> str:
    """Render a canonical sid as the legacy signature string (memoized)."""
    hit = _CANON_STR.get(canon_sid)
    if hit is not None:
        return hit
    key = _KEY_OF[canon_sid]
    if key[0] == "c":
        rendered = f"'{key[1]}'"
    else:  # "@": grounded forms hold only calls and constants
        rendered = f"@{key[1]}({','.join(_canon_str(a) for a in key[2])})"
    _CANON_STR[canon_sid] = rendered
    return rendered


def canon_of_sid(sid: int) -> int:
    """The canonical sid for ``sid`` (grounded structures only)."""
    hit = _CANON_SID.get(sid)
    if hit is not None:
        return hit
    key = _KEY_OF[sid]
    if key[0] != "@":
        result = sid  # constants are their own canonical form
    else:
        pred = key[1]
        canon_args = [canon_of_sid(arg) for arg in key[2]]
        if pred in ASSOCIATIVE_PREDICATES:
            flat: list[int] = []
            for arg in canon_args:
                arg_key = _KEY_OF[arg]
                if arg_key[0] == "@" and arg_key[1] == pred:
                    flat.extend(arg_key[2])
                else:
                    flat.append(arg)
            canon_args = flat
        if pred in COMMUTATIVE_PREDICATES:
            # Sort by rendered string — the legacy commutative order — with
            # the sid as tiebreak so equal renders of distinct structures
            # still canonicalize permutation-invariantly.
            canon_args = sorted(canon_args, key=lambda a: (_canon_str(a), a))
        result = sid_of_key(("@", pred, tuple(canon_args)))
    _CANON_SID[sid] = result
    return result


def reset_canonical_memos() -> None:
    """Drop the canonicalization memo tables (cold-benchmark bracketing).

    The underlying intern tables survive, mirroring
    :func:`repro.parsing.values.reset_derived_memos`.
    """
    _CANON_SID.clear()
    _CANON_STR.clear()


def canonical_signature(term: Sem) -> str:
    """A string invariant under associative regrouping (exact for trees).

    Associative predicates' argument lists are flattened and commutative
    predicates' arguments sorted by their own canonical signatures, so any
    regrouping/reordering of an @And/@Of chain produces the same string.
    Rendered from the memoized canonical sid, so ``term`` must be grounded,
    as every form the parsers return is.
    """
    return _canon_str(canon_of_sid(sid_for_term(term)[0]))
