"""Cross-cutting property-based tests on core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccg.semantics import Call, Const, signature
from repro.disambiguation import AssociativityCheck, CheckSuite, winnow
from repro.disambiguation.winnow import final_selection
from repro.framework import icmp
from repro.framework.addressing import ip_to_int
from repro.framework.ip import PROTO_ICMP, IPv4Header, make_ip_packet
from repro.framework.tcpdump import decode_packet
from repro.lf import canonical_signature, flatten_associative

from vf2_oracle import filter_vf2, isomorphic

# -- strategies -----------------------------------------------------------------

constants = st.sampled_from(
    ["checksum", "code", "type", "identifier", "0", "1", "3", "datagram"]
)


def terms(max_depth=3):
    return st.recursive(
        constants.map(Const),
        lambda children: st.tuples(
            st.sampled_from(["Is", "Of", "And", "Action", "If"]),
            st.lists(children, min_size=2, max_size=3),
        ).map(lambda pair: Call(pair[0], tuple(pair[1]))),
        max_leaves=6,
    )


class TestLFInvariants:
    @given(terms())
    @settings(max_examples=80, deadline=None)
    def test_flatten_is_idempotent(self, term):
        once = flatten_associative(term)
        twice = flatten_associative(once)
        assert signature(once) == signature(twice)

    @given(terms())
    @settings(max_examples=80, deadline=None)
    def test_every_term_isomorphic_to_itself(self, term):
        assert isomorphic(term, term)

    @given(terms())
    @settings(max_examples=80, deadline=None)
    def test_canonical_signature_stable_under_flatten(self, term):
        assert canonical_signature(term) == canonical_signature(
            flatten_associative(term)
        )

    @given(st.lists(terms(), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_winnow_never_increases_and_never_annihilates(self, forms):
        trace = winnow("s", forms, CheckSuite.default())
        assert trace.final_count <= len(forms)
        if forms:
            assert trace.final_count >= 1  # checks narrow, never destroy

    @given(st.lists(terms(), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_final_selection_keeps_subset(self, forms):
        selected = final_selection(forms)
        assert selected
        assert all(any(f is g for g in forms) for f in selected)


def scramble(term, rng):
    """A random isomorphism-preserving rewrite of ``term``.

    Shuffles commutative (And) children and re-nests associative (Of/And)
    chains — exactly the regroupings §4.2's associativity check must treat
    as one reading, and nothing more.
    """
    if not isinstance(term, Call):
        return term
    args = [scramble(arg, rng) for arg in term.args]
    if term.pred == "And" and len(args) > 1:
        rng.shuffle(args)
    if term.pred in ("Of", "And") and len(args) > 2 and rng.random() < 0.7:
        i = rng.randrange(len(args) - 1)
        args[i:i + 2] = [Call(term.pred, (args[i], args[i + 1]))]
    return Call(term.pred, tuple(args), trigger=term.trigger,
                flags=term.flags)


class TestCanonicalOracle:
    """The canonical signature is *exactly* VF2 isomorphism.

    The winnow hot path replaced per-pair ``nx.is_isomorphic`` with a
    one-pass canonical form per LF; these properties pin the two to the
    same equivalence relation — both directions, so the canonical form
    neither merges distinct readings nor splits equivalent ones.
    """

    @given(terms(), terms())
    @settings(max_examples=150, deadline=None)
    def test_canonical_equality_iff_isomorphic(self, a, b):
        assert (canonical_signature(a) == canonical_signature(b)) \
            == isomorphic(a, b)

    @given(terms(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_regrouped_term_stays_in_class(self, term, rng):
        regrouped = scramble(term, rng)
        assert isomorphic(term, regrouped)
        assert canonical_signature(term) == canonical_signature(regrouped)

    @given(st.lists(terms(), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_associativity_filter_keeps_one_per_vf2_class(self, forms):
        kept = AssociativityCheck().filter(list(forms))
        for form in forms:
            assert sum(1 for survivor in kept
                       if isomorphic(form, survivor)) == 1
        # Same forms in the same order as the bucket-then-VF2 filter.
        assert ([id(form) for form in kept]
                == [id(form) for form in filter_vf2(list(forms))])


class TestWireInvariants:
    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
           st.binary(max_size=64))
    @settings(max_examples=80, deadline=None)
    def test_echo_reply_of_any_echo_verifies(self, identifier, sequence, data):
        echo = icmp.make_echo(identifier, sequence, data)
        reply = icmp.make_echo_reply(echo)
        assert reply.checksum_ok()
        assert reply.payload == data

    @given(st.binary(max_size=40), st.integers(1, 255))
    @settings(max_examples=80, deadline=None)
    def test_reference_packets_decode_clean(self, data, ttl):
        echo = icmp.make_echo(1, 1, data)
        packet = make_ip_packet(
            ip_to_int("10.0.0.1"), ip_to_int("10.0.0.2"), PROTO_ICMP,
            echo.pack(), ttl=ttl,
        )
        assert decode_packet(packet.pack()).clean

    @given(st.binary(min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_quoted_datagram_is_header_plus_at_most_8(self, data):
        original = make_ip_packet(
            ip_to_int("1.2.3.4"), ip_to_int("5.6.7.8"), PROTO_ICMP, data
        )
        quoted = icmp.quoted_datagram(original)
        assert quoted[:20] == original.header_bytes()
        assert len(quoted) <= 20 + 8

    @given(st.integers(0, 0xFFFFFFFF))
    @settings(max_examples=80, deadline=None)
    def test_ip_roundtrip_any_address(self, address):
        packet = make_ip_packet(address, (~address) & 0xFFFFFFFF, PROTO_ICMP, b"x")
        again = IPv4Header.unpack(packet.pack())
        assert again.src == address
        assert again.checksum_ok()
