"""JSON round-trip contracts: ``from_json(to_json(x)) == x`` for every
pipeline result, across all four bundled protocols and under randomized
(hypothesis) payloads."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    SCHEMA_VERSION,
    ContractError,
    GeneratedArtifact,
    ProcessRequest,
    ProcessResponse,
    RequestError,
    Resolution,
    SchemaVersionError,
    SweepRequest,
    from_json,
    to_json,
)
from repro.api.contracts import sem_from_dict, sem_to_dict
from repro.ccg.semantics import Call, Const, signature
from repro.codegen.ir import OP, FingerprintMismatch
from repro.codegen.ops import (
    ComputeChecksum,
    Condition,
    Conditional,
    CopyData,
    Discard,
    Send,
    SetField,
    SwapFields,
    Value,
)
from repro.core import SageEngine, SentenceStatus
from repro.rfc.registry import default_registry

PROTOCOLS = ("ICMP", "IGMP", "NTP", "BFD")


@pytest.fixture(scope="module")
def runs():
    """One revised-mode run per bundled protocol (warm shared substrate)."""
    engine = SageEngine(mode="revised")
    return engine.process_corpora()


@pytest.fixture(scope="module")
def strict_runs():
    engine = SageEngine(mode="strict")
    return engine.process_corpora()


# -- pipeline results over the real corpora ------------------------------------

class TestRunRoundTrips:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_sage_run_round_trips(self, runs, protocol):
        run = runs[protocol]
        assert from_json(to_json(run)) == run

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_strict_run_round_trips(self, strict_runs, protocol):
        run = strict_runs[protocol]
        assert from_json(to_json(run)) == run

    def test_round_trip_rehydrates_the_memoized_corpus(self, runs):
        back = from_json(to_json(runs["ICMP"]))
        assert back.corpus is default_registry().load_corpus("ICMP")

    def test_statuses_survive_as_enum_members(self, runs):
        back = from_json(to_json(runs["ICMP"]))
        statuses = {result.status for result in back.results}
        assert statuses <= set(SentenceStatus)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_winnow_traces_round_trip(self, runs, protocol):
        for trace in runs[protocol].traces():
            assert from_json(to_json(trace)) == trace

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_code_units_round_trip(self, runs, protocol):
        unit = runs[protocol].code_unit
        back = from_json(to_json(unit))
        assert back == unit
        assert back.fingerprint() == unit.fingerprint()
        assert back.render_c() == unit.render_c()

    def test_sentence_results_round_trip(self, runs):
        for result in runs["ICMP"].results:
            assert from_json(to_json(result)) == result

    def test_rewritten_sub_results_survive(self, runs):
        rewritten = runs["ICMP"].rewritten()
        assert rewritten  # the ICMP corpus has paper rewrites
        result = rewritten[0]
        back = from_json(to_json(result))
        assert back.sub_results == result.sub_results
        assert back.rewrite == result.rewrite


# -- randomized payloads -------------------------------------------------------

constants = st.sampled_from(["checksum", "code", "type", "0", "1", "datagram"])


def terms(max_leaves=6):
    return st.recursive(
        st.builds(
            Const, constants,
            span=st.one_of(st.none(), st.tuples(st.integers(0, 9),
                                                st.integers(10, 19))),
        ),
        lambda children: st.builds(
            Call,
            st.sampled_from(["Is", "Of", "And", "Action", "If"]),
            st.lists(children, min_size=1, max_size=3).map(tuple),
            trigger=st.one_of(st.none(), st.integers(0, 30)),
            flags=st.sets(st.sampled_from(["distributed", "overgen"])).map(
                frozenset
            ),
        ),
        max_leaves=max_leaves,
    )


protocols_s = st.sampled_from(["icmp", "ip"])
fields_s = st.sampled_from(["type", "code", "checksum", "identifier"])
values_s = st.one_of(
    st.integers(0, 255).map(Value.constant),
    st.sampled_from(["code", "chosen_value"]).map(Value.param),
    st.tuples(protocols_s, fields_s).map(lambda p: Value.request_field(*p)),
    st.just(Value.clock()),
)
conditions_s = st.one_of(
    st.builds(Condition, kind=st.just("field_equals"), protocol=protocols_s,
              name=fields_s, value=st.integers(0, 7), negated=st.booleans()),
    st.builds(Condition, kind=st.just("mode_in"),
              modes=st.lists(st.sampled_from(["demand", "async"]),
                             min_size=1, max_size=2).map(tuple)),
)
leaf_ops_s = st.one_of(
    st.builds(SetField, protocols_s, fields_s, values_s,
              optional=st.booleans()),
    st.builds(SwapFields, protocol_a=protocols_s, field_a=fields_s,
              protocol_b=protocols_s, field_b=fields_s),
    st.builds(ComputeChecksum, protocol=st.just("icmp"),
              name=st.just("checksum"),
              function=st.just("internet_checksum"),
              range_start=st.sampled_from(["type", "code"])),
    st.just(CopyData()),
    st.builds(Send, message=st.sampled_from(["query", "report"]),
              destination=st.sampled_from(["", "all_hosts_group"])),
    st.builds(Discard, reason=st.sampled_from(["", "bad"])),
)


def op_trees():
    return st.recursive(
        leaf_ops_s,
        lambda children: st.builds(
            Conditional, condition=conditions_s,
            body=st.lists(children, min_size=1, max_size=3),
        ),
        max_leaves=8,
    )


resolutions_s = st.one_of(
    st.builds(Resolution.rewrite,
              st.text(min_size=1, max_size=60).filter(str.strip),
              st.text(min_size=1, max_size=60).filter(str.strip),
              category=st.sampled_from(["ambiguous", "unparsed", "imprecise"]),
              note=st.text(max_size=20),
              protocol=st.sampled_from(["", "ICMP", "BFD"]),
              status_before=st.sampled_from(["", "unparsed", "ambiguous-lf"])),
    st.builds(Resolution.annotate,
              st.text(min_size=1, max_size=60).filter(str.strip),
              note=st.text(max_size=20)),
    st.builds(Resolution.select_lf,
              st.text(min_size=1, max_size=60).filter(str.strip),
              st.text(min_size=1, max_size=80)),
)


class TestRandomizedRoundTrips:
    @given(terms())
    @settings(max_examples=80, deadline=None)
    def test_sem_round_trips_with_provenance(self, term):
        back = sem_from_dict(json.loads(json.dumps(sem_to_dict(term))))
        assert back == term
        assert signature(back) == signature(term)
        # provenance metadata (excluded from ==) survives too
        assert sem_to_dict(back) == sem_to_dict(term)

    @given(op_trees())
    @settings(max_examples=80, deadline=None)
    def test_ops_round_trip(self, op):
        assert OP.dec(json.loads(json.dumps(OP.enc(op, None))), None) == op

    @given(resolutions_s)
    @settings(max_examples=80, deadline=None)
    def test_resolutions_round_trip(self, resolution):
        assert from_json(to_json(resolution)) == resolution


# -- requests, responses, artifacts --------------------------------------------

class TestRequestResponseContracts:
    def test_process_request_round_trips(self):
        request = ProcessRequest(protocol="ICMP", mode="strict",
                                 include_sentences=False, artifacts=("c",))
        assert from_json(to_json(request)) == request

    def test_sweep_request_round_trips(self):
        request = SweepRequest(protocols=("ICMP", "BFD"), parallel=False,
                               include_sentences=True)
        assert from_json(to_json(request)) == request
        # Older clients still send the retired ``max_workers`` option; it
        # decodes (and is dropped) rather than failing the request.
        legacy = {"schema": 1, "kind": "sweep_request",
                  "data": {**request.to_dict(), "max_workers": 3}}
        assert from_json(json.dumps(legacy)) == request

    def test_process_response_round_trips(self, runs):
        response = ProcessResponse.from_run(runs["ICMP"], "revised",
                                            artifacts=("c", "python"))
        assert from_json(to_json(response)) == response

    def test_bad_mode_is_a_request_error(self):
        with pytest.raises(RequestError):
            ProcessRequest.from_dict({"protocol": "ICMP", "mode": "casual"})

    def test_missing_protocol_is_a_request_error(self):
        with pytest.raises(RequestError):
            ProcessRequest.from_dict({})

    def test_artifact_round_trips_and_verifies(self, runs):
        artifact = GeneratedArtifact.from_program(runs["ICMP"].code_unit,
                                                  backend="c")
        back = from_json(to_json(artifact))
        assert back == artifact
        rebuilt = back.to_program()
        assert rebuilt.fingerprint() == runs["ICMP"].code_unit.fingerprint()
        assert rebuilt.render_c() == artifact.source

    def test_tampered_artifact_is_rejected(self, runs):
        artifact = GeneratedArtifact.from_program(runs["ICMP"].code_unit,
                                                  backend="c")
        payload = json.loads(to_json(artifact))
        ops = payload["data"]["program"]["functions"][0]["ops"]
        ops[0]["value"] = {"kind": "const", "const": 99}
        with pytest.raises(FingerprintMismatch):
            from_json(json.dumps(payload)).to_program()


# -- envelope failure modes ----------------------------------------------------

class TestEnvelope:
    def test_schema_version_is_stamped(self, runs):
        payload = json.loads(to_json(runs["ICMP"].code_unit))
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["kind"] == "code_unit"

    def test_future_schema_is_rejected(self):
        with pytest.raises(SchemaVersionError):
            from_json(json.dumps({"schema": 999, "kind": "code_unit",
                                  "data": {}}))

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ContractError):
            from_json(json.dumps({"schema": SCHEMA_VERSION,
                                  "kind": "teapot", "data": {}}))

    def test_non_json_is_a_contract_error(self):
        with pytest.raises(ContractError):
            from_json("this is not json")

    def test_malformed_data_is_a_contract_error(self):
        with pytest.raises(ContractError):
            from_json(json.dumps({"schema": SCHEMA_VERSION,
                                  "kind": "winnow_trace",
                                  "data": {"wrong": "shape"}}))

    def test_unserializable_object_is_a_contract_error(self):
        with pytest.raises(ContractError):
            to_json(object())
