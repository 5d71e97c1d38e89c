"""The ``schema:1b`` binary envelope: ``from_bytes(to_bytes(x)) == x`` for
every contract kind, equality with the JSON-decoded object, parse-cache
entry framing, and corruption rejection — across the real corpora and
under randomized (hypothesis) payloads."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ContractError,
    SageService,
    SweepRequest,
    from_bytes,
    from_json,
    to_bytes,
    to_json,
)
from repro.api.binenc import (
    MAGIC,
    _T_LIST,
    _T_SNEW,
    _T_SREF,
    parse_entry_from_bytes,
    parse_entry_to_bytes,
)
from repro.api.errors import EnvelopeDecodeError
from repro.ccg.chart import ParseResult
from repro.ccg.semantics import App, Call, Const, Lam, Var
from repro.core import SageEngine, SentenceResult, SentenceStatus
from repro.rfc.corpus import SpecSentence

PROTOCOLS = ("ICMP", "IGMP", "NTP", "BFD")


@pytest.fixture(scope="module")
def runs():
    """One revised-mode run per bundled protocol (warm shared substrate)."""
    engine = SageEngine(mode="revised")
    return engine.process_corpora()


# -- pipeline results over the real corpora ------------------------------------

class TestRunRoundTrips:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_sage_run_round_trips(self, runs, protocol):
        run = runs[protocol]
        assert from_bytes(to_bytes(run)) == run

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_binary_decode_equals_json_decode(self, runs, protocol):
        run = runs[protocol]
        assert from_bytes(to_bytes(run)) == from_json(to_json(run))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_envelope_smaller_than_json(self, runs, protocol):
        run = runs[protocol]
        assert len(to_bytes(run)) * 3 <= len(to_json(run).encode())

    def test_every_sentence_result_round_trips(self, runs):
        for result in runs["ICMP"].results:
            assert from_bytes(to_bytes(result)) == result

    def test_traces_and_specs_round_trip(self, runs):
        for result in runs["ICMP"].results:
            assert from_bytes(to_bytes(result.spec)) == result.spec
            if result.trace is not None:
                assert from_bytes(to_bytes(result.trace)) == result.trace
            if result.rewrite is not None:
                assert from_bytes(to_bytes(result.rewrite)) == result.rewrite

    def test_code_unit_round_trips(self, runs):
        unit = runs["ICMP"].code_unit
        back = from_bytes(to_bytes(unit))
        assert to_json(back) == to_json(unit)

    def test_sweep_response_round_trips(self):
        response = SageService().sweep(SweepRequest(parallel=False))
        back = from_bytes(to_bytes(response))
        assert back == from_json(to_json(response))
        assert len(to_bytes(response)) < len(to_json(response).encode())


# -- parse-cache entry framing -------------------------------------------------

class TestParseEntryFraming:
    def test_real_parse_results_round_trip(self):
        from repro.rfc.registry import default_registry

        registry = default_registry()
        corpus = registry.load_corpus("ICMP")
        parser = registry.parser()
        chunker = registry.chunker()
        for spec in corpus.sentences[:10]:
            result = parser.parse(chunker.chunk_text(spec.text))
            blob = parse_entry_to_bytes(result, True)
            back, subject_supplied = parse_entry_from_bytes(blob)
            assert subject_supplied is True
            assert back == result

    def test_flags_and_counters_survive(self):
        result = ParseResult(
            logical_forms=[Const("type")],
            unknown_words=["zorp", "blig"],
            token_count=7,
            cells_filled=21,
            dropped_items=0,
            backend="indexed",
        )
        back, subject_supplied = parse_entry_from_bytes(
            parse_entry_to_bytes(result, False)
        )
        assert subject_supplied is False
        assert back == result


# -- randomized payloads -------------------------------------------------------

constants = st.sampled_from(["checksum", "code", "type", "0", "1", "datagram"])


def terms(max_leaves=6):
    leaves = st.one_of(
        st.builds(
            Const, constants,
            span=st.one_of(st.none(), st.tuples(st.integers(0, 9),
                                                st.integers(10, 19))),
        ),
        st.builds(Var, st.sampled_from(["x", "y", "m"])),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(
                Call,
                st.sampled_from(["Is", "Of", "And", "Action", "If"]),
                st.lists(children, min_size=1, max_size=3).map(tuple),
                trigger=st.one_of(st.none(), st.integers(0, 30)),
                flags=st.sets(st.sampled_from(["distributed", "overgen"])).map(
                    frozenset
                ),
            ),
            st.builds(Lam, st.sampled_from(["x", "y"]), children),
            st.builds(App, children, children),
        ),
        max_leaves=max_leaves,
    )


SPEC = SpecSentence(text="t", protocol="ICMP", message="Echo Message",
                    field="type", kind="field")


class TestRandomizedRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(term=terms())
    def test_sem_trees_round_trip(self, term):
        result = SentenceResult(
            spec=SPEC, status=SentenceStatus.OK, logical_form=term
        )
        assert from_bytes(to_bytes(result)) == result

    @settings(max_examples=30, deadline=None)
    @given(forms=st.lists(terms(max_leaves=4), max_size=4))
    def test_parse_entries_round_trip(self, forms):
        result = ParseResult(
            logical_forms=forms, token_count=3, cells_filled=9,
            dropped_items=1, backend="reference",
        )
        back, _ = parse_entry_from_bytes(parse_entry_to_bytes(result, True))
        assert back == result

    @settings(max_examples=30, deadline=None)
    @given(term=terms(max_leaves=4))
    def test_shared_subterms_decode_shared(self, term):
        # The encoder memoizes repeated subtrees by identity; the decoder
        # must rebuild the *same* object graph (one node, two references).
        call = Call("And", (term, term))
        result = SentenceResult(spec=SPEC, status="ok", logical_form=call)
        back = from_bytes(to_bytes(result))
        assert back == result
        decoded = back.logical_form
        assert decoded.args[0] is decoded.args[1]


# -- corruption rejection ------------------------------------------------------

class TestCorruptionRejection:
    def test_bad_magic_rejected(self):
        with pytest.raises(ContractError):
            from_bytes(b"JUNK" + b"\x00" * 16)

    def test_truncation_rejected(self, runs):
        blob = to_bytes(runs["ICMP"].results[0])
        with pytest.raises(ContractError):
            from_bytes(blob[: len(blob) // 2])

    def test_flipped_bytes_rejected_or_detected(self, runs):
        result = runs["ICMP"].results[0]
        blob = bytearray(to_bytes(result))
        blob[len(MAGIC) + 1] ^= 0xFF
        try:
            back = from_bytes(bytes(blob))
        except ContractError:
            return
        # A flip that still frames must not silently equal the original.
        assert back != result

    def test_json_text_is_not_a_binary_envelope(self, runs):
        with pytest.raises(ContractError):
            from_bytes(to_json(runs["ICMP"]).encode())

    def test_parse_entry_rejects_run_envelope(self, runs):
        with pytest.raises(ContractError):
            parse_entry_from_bytes(to_bytes(runs["ICMP"]))


# -- wire bounds checks --------------------------------------------------------
# Length prefixes and element counts come straight off the wire; each must
# be rejected against the bytes actually present *before* sizing an
# allocation or driving a decode loop.  A hostile 2**40 "length" must be a
# structured decode error (HTTP 400 through the server), never a
# multi-gigabyte allocation attempt or a hang.

def _leb(n: int) -> bytes:
    out = bytearray()
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


class TestWireBoundsChecks:
    def test_decode_error_is_a_contract_error(self):
        # transports catching ContractError keep working unchanged
        assert issubclass(EnvelopeDecodeError, ContractError)

    def test_oversized_string_length_is_rejected(self):
        frame = MAGIC + bytes([_T_SNEW]) + _leb(2**40)
        with pytest.raises(EnvelopeDecodeError, match="string length"):
            from_bytes(frame)

    def test_oversized_list_count_is_rejected(self):
        kind = b"process_request"
        frame = (MAGIC + bytes([_T_SNEW]) + _leb(len(kind)) + kind
                 + bytes([_T_LIST]) + _leb(2**40))
        with pytest.raises(EnvelopeDecodeError, match="list count"):
            from_bytes(frame)

    def test_never_terminating_varint_is_rejected(self):
        # 11 continuation bytes: past 64 bits without ever terminating
        frame = MAGIC + bytes([_T_SNEW]) + b"\x80" * 11
        with pytest.raises(EnvelopeDecodeError, match="64 bits"):
            from_bytes(frame)

    def test_truncated_varint_is_rejected(self):
        frame = MAGIC + bytes([_T_SNEW]) + b"\x80"
        with pytest.raises(EnvelopeDecodeError, match="past the end"):
            from_bytes(frame)

    def test_dangling_string_backreference_is_rejected(self):
        frame = MAGIC + bytes([_T_SREF]) + _leb(5)
        with pytest.raises(EnvelopeDecodeError, match="intern slot"):
            from_bytes(frame)

    def test_truncated_parse_entry_is_structured(self, runs):
        result = runs["ICMP"].results[0]
        entry = parse_entry_to_bytes(
            ParseResult(
                logical_forms=([result.logical_form]
                               if result.logical_form is not None else []),
                token_count=3, cells_filled=9, backend="reference",
            ),
            True,
        )
        for cut in (len(MAGIC) + 1, len(entry) // 2, len(entry) - 1):
            with pytest.raises(ContractError):
                parse_entry_from_bytes(entry[:cut])
