"""The VF2 associativity oracle the canonical form is checked against.

Before the canonical-sid form, the associativity check converted each
logical form into a labeled networkx DiGraph and ran the VF2 matcher
pairwise.  That path lives here, in the test suite only: ``src/`` never
imports networkx, and the tests that import this module compare the fast
path against it on every run.
"""

import networkx as nx

from repro.ccg.semantics import Call, Const, Sem
from repro.lf.graph import (
    COMMUTATIVE_PREDICATES,
    canonical_signature,
    flatten_associative,
)


def to_graph(term: Sem) -> nx.DiGraph:
    """Convert a logical form into a labeled DiGraph (Figure 3's trees).

    Internal nodes are predicates, leaves are constants; edges carry the
    argument position (dropped for commutative predicates, where order
    does not matter).
    """
    graph = nx.DiGraph()
    counter = [0]

    def add(node: Sem) -> int:
        node_id = counter[0]
        counter[0] += 1
        if isinstance(node, Call):
            graph.add_node(node_id, label=f"@{node.pred}")
            ordered = node.pred not in COMMUTATIVE_PREDICATES
            for position, arg in enumerate(node.args):
                child = add(arg)
                graph.add_edge(node_id, child,
                               position=position if ordered else -1)
        elif isinstance(node, Const):
            graph.add_node(node_id, label=node.value)
        else:
            graph.add_node(node_id, label=str(node))
        return node_id

    add(term)
    return graph


def isomorphic(a: Sem, b: Sem) -> bool:
    """True when two LFs are equal up to associative regrouping.

    Flattens associative chains, then runs VF2 isomorphism over the labeled
    graphs (matching both node labels and argument positions).
    """
    return nx.is_isomorphic(
        to_graph(flatten_associative(a)),
        to_graph(flatten_associative(b)),
        node_match=lambda n1, n2: n1["label"] == n2["label"],
        edge_match=lambda e1, e2: e1["position"] == e2["position"],
    )


def filter_vf2(forms: list[Sem]) -> list[Sem]:
    """The pre-canonical associativity filter: forms bucketed by
    :func:`canonical_signature`, each bucket's members confirmed pairwise
    with VF2.  Keeps the first form of each class, in input order within
    a bucket and buckets in order of first appearance."""
    buckets: dict[str, list[Sem]] = {}
    for form in forms:
        buckets.setdefault(canonical_signature(form), []).append(form)
    representatives: list[Sem] = []
    for bucket in buckets.values():
        kept: list[Sem] = []
        for form in bucket:
            if not any(isomorphic(form, existing) for existing in kept):
                kept.append(form)
        representatives.extend(kept)
    return representatives
