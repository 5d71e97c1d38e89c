"""Tests for the §4.2 winnowing checks and the LF graph machinery."""

import pytest

from repro.ccg.semantics import Call, Const
from repro.disambiguation import (
    ArgumentOrderingCheck,
    AssociativityCheck,
    CheckSuite,
    DistributivityCheck,
    PredicateOrderingCheck,
    TypeCheck,
    isolated_effects,
    summarize,
    winnow,
)
from repro.lf import canonical_signature, flatten_associative

from vf2_oracle import filter_vf2, isomorphic, to_graph


def const(value, span=None):
    return Const(value, span=span)


def call(pred, *args, trigger=None, flags=frozenset()):
    return Call(pred, tuple(args), trigger=trigger, flags=flags)


class TestTypeCheck:
    def test_action_needs_function_name(self):
        check = TypeCheck()
        good = call("Action", const("compute"), const("checksum"))
        bad = call("Action", const("0"), const("compute"))
        assert check.filter([good, bad]) == [good]

    def test_is_rejects_value_lhs(self):
        check = TypeCheck()
        good = call("Is", const("checksum"), const("0"))
        bad = call("Is", const("0"), const("checksum"))
        assert check.filter([good, bad]) == [good]

    def test_and_group_compatibility(self):
        check = TypeCheck()
        fields = call("And", const("source"), const("destination"))
        mixed = call("And", const("identifier"), const("replies"))
        good = call("Is", fields, const("0"))
        bad = call("Is", mixed, const("0"))
        assert check.filter([good, bad]) == [good]

    def test_if_needs_clauses(self):
        check = TypeCheck()
        good = call("If", call("Is", const("code"), const("0")),
                    call("Action", const("discard"), const("datagram")))
        bad = call("If", const("code"), const("0"))
        assert check.filter([good, bad]) == [good]


class TestArgumentOrdering:
    def test_swapped_conditional_removed(self):
        check = ArgumentOrderingCheck()
        condition = call("Is", const("code", (1, 2)), const("0", (3, 4)))
        action = call("Is", const("type", (5, 6)), const("3", (7, 8)))
        good = call("If", condition, action, trigger=0)
        swapped = call("If", action, condition, trigger=0)
        assert check.filter([good, swapped]) == [good]

    def test_trailing_conditional_accepted(self):
        check = ArgumentOrderingCheck()
        condition = call("Is", const("timer", (5, 6)), const("64", (7, 8)))
        action = call("Action", const("call", (0, 1)), const("proc", (1, 2)))
        trailing = call("If", condition, action, trigger=4)
        assert check.filter([trailing]) == [trailing]

    def test_is_left_to_right(self):
        check = ArgumentOrderingCheck()
        good = call("Is", const("checksum", (0, 1)), const("0", (3, 4)))
        reverse = call("Is", const("0", (3, 4)), const("checksum", (0, 1)))
        assert check.filter([good, reverse]) == [good]


class TestPredicateOrdering:
    def test_is_under_of_removed(self):
        check = PredicateOrderingCheck()
        good = call("Is", call("Of", const("a"), const("b")), const("c"))
        bad = call("Of", const("a"), call("Is", const("b"), const("c")))
        assert check.filter([good, bad]) == [good]

    def test_positional_rule(self):
        check = PredicateOrderingCheck()
        # @Of with @And in position 0 is blocked; in position 1 allowed.
        blocked = call("Of", call("And", const("a"), const("b")), const("c"))
        allowed = call("And", const("a"), call("Of", const("b"), const("c")))
        assert check.filter([blocked, allowed]) == [allowed]


class TestDistributivity:
    def test_prefers_non_distributed(self):
        check = DistributivityCheck()
        grouped = call("Is", call("And", const("a"), const("b")), const("c"))
        distributed = call(
            "And",
            call("Is", const("a"), const("c")),
            call("Is", const("b"), const("c")),
            flags=frozenset({"distributed"}),
        )
        assert check.filter([grouped, distributed]) == [grouped]

    def test_keeps_distributed_when_alone(self):
        check = DistributivityCheck()
        distributed = call("And", const("a"), const("b"),
                           flags=frozenset({"distributed"}))
        assert check.filter([distributed]) == [distributed]


class TestAssociativity:
    def test_of_regroupings_collapse(self):
        check = AssociativityCheck()
        left = call("Of", call("Of", const("a"), const("b")), const("c"))
        right = call("Of", const("a"), call("Of", const("b"), const("c")))
        assert len(check.filter([left, right])) == 1

    def test_different_orders_do_not_collapse(self):
        check = AssociativityCheck()
        one = call("Of", const("a"), const("b"))
        other = call("Of", const("b"), const("a"))
        assert len(check.filter([one, other])) == 2

    def test_and_is_commutative(self):
        check = AssociativityCheck()
        one = call("And", const("a"), const("b"))
        other = call("And", const("b"), const("a"))
        assert len(check.filter([one, other])) == 1


class TestGraphs:
    def test_flatten_merges_chains(self):
        nested = call("Of", call("Of", const("a"), const("b")), const("c"))
        flat = flatten_associative(nested)
        assert len(flat.args) == 3

    def test_isomorphic_figure3(self):
        # The two Figure 3 readings of sentence H are isomorphic.
        one = call("Of", call("Of", const("ones"), const("sum")), const("msg"))
        two = call("Of", const("ones"), call("Of", const("sum"), const("msg")))
        assert isomorphic(one, two)

    def test_not_isomorphic_across_predicates(self):
        assert not isomorphic(
            call("Of", const("a"), const("b")), call("And", const("a"), const("b"))
        )

    def test_graph_shape(self):
        graph = to_graph(call("Is", const("a"), const("b")))
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2

    def test_canonical_signature_invariant(self):
        one = call("And", const("a"), call("And", const("b"), const("c")))
        two = call("And", call("And", const("c"), const("a")), const("b"))
        assert canonical_signature(one) == canonical_signature(two)


class TestMemoInvalidation:
    """The content-addressed check memos must follow configuration changes.

    Verdicts are memoized in process-global tables keyed by each check's
    content fingerprint; mutating a check's configuration (registering a
    constant class) must move it to a fresh table, never serve a stale
    verdict.
    """

    def test_type_verdict_follows_class_registration(self):
        from repro.lf.predicates import FIELD

        check = TypeCheck()
        form = call("Action", const("frobnicate"), const("checksum"))
        # Unknown verbs class as CONCEPT, which @Action tolerates...
        assert check.well_typed(form)
        fp_before = check.fingerprint()
        # ...but registering the constant as a known non-function must
        # flip the verdict — a stale memo would keep saying True.
        check.classes.register("frobnicate", FIELD)
        assert check.fingerprint() != fp_before
        assert not check.well_typed(form)

    def test_suite_fingerprint_tracks_class_registration(self):
        from repro.lf.predicates import FUNCTION

        suite = CheckSuite.default()
        fp_before = suite.fingerprint()
        suite.type_check.classes.register("frobnicate", FUNCTION)
        assert suite.fingerprint() != fp_before

    def test_winnow_stage_fingerprint_follows_a_swapped_suite(self):
        from repro.core.stages import WinnowStage
        from repro.lf.predicates import FIELD, FUNCTION

        stage = WinnowStage()
        stage.suite.type_check.classes.register("frobnicate", FIELD)
        stage.suite_fingerprint()
        other = CheckSuite.default()
        other.type_check.classes.register("frobnicate", FUNCTION)
        # Same class generation, different content.
        stage.suite = other
        assert stage.suite_fingerprint() == other.fingerprint()

    def test_winnow_stage_cache_invalidates_on_suite_change(self):
        from types import SimpleNamespace

        from repro.cache import ContentCache
        from repro.core.stages import WinnowStage
        from repro.lf.predicates import FUNCTION

        stage = WinnowStage(cache=ContentCache())
        parsed = SimpleNamespace(
            spec=SimpleNamespace(field="checksum", text="the checksum is 0"),
            logical_forms=[call("Is", const("checksum", (0, 1)),
                                const("0", (2, 3)))],
        )
        first = stage.run(parsed)
        assert stage.run(parsed) is first  # served from the result cache
        key_before = stage.cache_key(parsed)
        stage.suite.type_check.classes.register("frobnicate", FUNCTION)
        assert stage.cache_key(parsed) != key_before
        assert stage.run(parsed) is not first  # stale entry unreachable

    def test_reset_winnow_state_clears_tables_in_place(self):
        from repro.disambiguation import reset_winnow_state

        check = TypeCheck()
        form = call("Is", const("checksum"), const("0"))
        assert check.well_typed(form)
        table = check._refresh()
        assert table  # the verdict was memoized
        reset_winnow_state()
        # Cleared in place: the check's bound table is the same object,
        # empty, and keeps answering after recomputation.
        assert check._refresh() is table
        assert not table
        assert check.well_typed(form)


class TestCorpusAssociativityPairs:
    def test_canonical_matches_vf2_on_real_parse_ambiguity(self):
        """Canonical signatures agree with VF2 on the corpus's own LF
        pairs — the associativity regroupings Figure 3 is about, not just
        synthetic hypothesis terms."""
        from itertools import combinations

        from repro.rfc.registry import ProtocolRegistry

        registry = ProtocolRegistry()
        corpus = registry.load_corpus("ICMP")
        chunker = registry.chunker()
        parser = registry.parser()
        pairs = equivalent = 0
        for spec in corpus.sentences:
            forms = parser.parse(
                chunker.chunk_text(spec.text)).logical_forms[:12]
            for a, b in combinations(forms, 2):
                same_class = (canonical_signature(a)
                              == canonical_signature(b))
                assert same_class == isomorphic(a, b), spec.text
                pairs += 1
                equivalent += same_class
        assert pairs > 100  # the corpus is genuinely ambiguous
        assert equivalent > 0  # ...including real regrouping pairs

    def test_filter_keeps_what_the_vf2_filter_keeps(self):
        """The associativity filter keeps the same forms, in the same
        order, as the bucket-then-VF2 filter it replaced, on every ICMP
        sentence's full parse."""
        from repro.rfc.registry import ProtocolRegistry

        registry = ProtocolRegistry()
        chunker = registry.chunker()
        parser = registry.parser()
        check = AssociativityCheck()
        collapsed = 0
        for spec in registry.load_corpus("ICMP").sentences:
            forms = parser.parse(chunker.chunk_text(spec.text)).logical_forms
            kept = check.filter(forms)
            assert ([id(form) for form in kept]
                    == [id(form) for form in filter_vf2(forms)]), spec.text
            collapsed += len(forms) - len(kept)
        assert collapsed > 0  # some sentence really has regroupings

    def test_every_parsed_form_is_grounded(self):
        """The sid-pure checks and canonical_signature read a form only
        through its interned sid and keep no fallback for binders: every
        form the parser returns for a corpus sentence is grounded (the
        reference backend returns the same sets, tests/test_parsing.py)."""
        from repro.lf.graph import sid_for_term
        from repro.rfc.registry import ProtocolRegistry

        registry = ProtocolRegistry()
        chunker = registry.chunker()
        parser = registry.parser()
        forms = 0
        for protocol in registry.protocols():
            for spec in registry.load_corpus(protocol).sentences:
                for form in parser.parse(
                        chunker.chunk_text(spec.text)).logical_forms:
                    assert sid_for_term(form)[1], spec.text
                    forms += 1
        assert forms > 500


class TestWinnowDriver:
    def test_trace_records_all_stages(self):
        forms = [call("Is", const("checksum", (0, 1)), const("0", (2, 3)))]
        trace = winnow("s", forms)
        assert trace.counts["Base"] == 1
        assert trace.final_count == 1
        assert "Type" in trace.counts
        assert "Final Selection" in trace.counts

    def test_checks_never_annihilate(self):
        # A set where every LF is ill-typed: the type check must not empty it.
        bad = call("Action", const("0"), const("1"))
        trace = winnow("s", [bad])
        assert trace.final_count == 1

    def test_summarize_monotone(self):
        forms = [
            call("Is", const("checksum", (0, 1)), const("0", (2, 3))),
            call("Is", const("0", (2, 3)), const("checksum", (0, 1))),
        ]
        summary = summarize([winnow("s", forms)])
        assert summary.max_counts[0] >= summary.max_counts[-1]

    def test_isolated_effects_shapes(self):
        forms = [
            call("Is", const("checksum", (0, 1)), const("0", (2, 3))),
            call("Is", const("0", (2, 3)), const("checksum", (0, 1))),
        ]
        effects = isolated_effects([("s", forms)])
        by_name = {e.check_name: e for e in effects}
        assert by_name["Argument Ordering"].affected_sentences == 1
        assert by_name["Type"].mean_removed >= 1
