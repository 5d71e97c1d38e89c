"""Typed decoding at the wire boundary: a wrong-typed request field, IR
that does not validate, and a truncated or garbage store entry each become
a structured error (HTTP 400, CLI exit 2 or 4), never a pipeline crash or
a 500."""

import json

import pytest

from repro.api import (
    ContractError,
    ProcessRequest,
    RequestError,
    SageService,
    from_json,
    to_json,
)
from repro.api.binenc import (
    MAGIC,
    _Writer,
    from_bytes,
    to_bytes,
    winnow_entry_from_bytes,
    winnow_entry_to_bytes,
)
from repro.api.errors import EnvelopeDecodeError
from repro.codegen.ir import FingerprintMismatch
from repro.core import SageEngine
from repro.server.pool import run_endpoint


@pytest.fixture(scope="module")
def run():
    return SageEngine(mode="revised").process_corpus("ICMP")


def _answer(endpoint: str, body: bytes, binary_in: bool = False):
    status, _type, payload = run_endpoint(SageService(), endpoint, body,
                                          binary_in=binary_in)
    return status, json.loads(payload)


def _binary_envelope(kind: str, data) -> bytes:
    writer = _Writer()
    writer.string(kind)
    writer.value(data)
    return bytes(writer.buf)


# -- wrong-typed request fields ------------------------------------------------

class TestRequestFieldTypes:
    @pytest.mark.parametrize("endpoint, fields", [
        ("process", {"protocol": 7}),
        ("process", {"protocol": None}),
        ("process", {"protocol": "ICMP", "include_sentences": "no"}),
        ("process", {"protocol": "ICMP", "artifacts": "c"}),
        ("process", {"protocol": "ICMP", "mode": 1}),
        ("sweep", {"protocols": "ICMP"}),
        ("sweep", {"protocols": ["ICMP", 3]}),
        ("sweep", {"parallel": "yes"}),
    ])
    def test_bare_json_body_is_a_400(self, endpoint, fields):
        status, error = _answer(endpoint, json.dumps(fields).encode())
        assert status == 400
        assert error["error"] == "bad-request"

    def test_envelope_body_is_a_400(self):
        body = json.dumps({"schema": 1, "kind": "process_request",
                           "data": {"protocol": 7}}).encode()
        status, error = _answer("process", body)
        assert status == 400
        assert error["error"] == "bad-request"

    def test_binary_body_is_a_400(self):
        body = _binary_envelope("sweep_request", {"protocols": "ICMP"})
        status, error = _answer("sweep", body, binary_in=True)
        assert status == 400
        assert error["error"] == "bad-request"

    def test_request_error_names_the_field(self):
        with pytest.raises(RequestError, match="include_sentences"):
            ProcessRequest.from_dict({"protocol": "ICMP",
                                      "include_sentences": "no"})

    def test_cli_exit_code_is_2(self):
        with pytest.raises(RequestError) as excinfo:
            from_json(json.dumps({"schema": 1, "kind": "sweep_request",
                                  "data": {"protocols": "ICMP"}}))
        assert excinfo.value.exit_code == 2
        assert excinfo.value.http_status == 400

    def test_python_callers_may_pass_tuples(self):
        response = SageService().sweep(protocols=("ICMP",),
                                       include_sentences=False)
        assert response.protocols == ["ICMP"]


# -- IR errors inside an envelope ----------------------------------------------

def _bad_code_unit(run) -> dict:
    payload = json.loads(to_json(run.code_unit))
    payload["data"]["functions"][0]["ops"][0] = {"op": "NoSuchOp"}
    return payload


def _unfingerprinted_code_unit(run, op=None) -> dict:
    """The run's code unit as envelope data with no fingerprints (nothing
    checks the IR against a recorded SHA-1), its first op replaced by
    ``op``."""
    data = json.loads(to_json(run.code_unit))["data"]
    del data["fingerprint"]
    for function in data["functions"]:
        del function["fingerprint"]
    if op is not None:
        data["functions"][0]["ops"][0] = op
    return data


def _decode_code_unit(data, binary: bool):
    if binary:
        return from_bytes(_binary_envelope("code_unit", data))
    return from_json(json.dumps({"schema": 1, "kind": "code_unit",
                                 "data": data}))


_SET_TYPE = {"op": "SetField", "protocol": "icmp", "name": "type",
             "value": {"kind": "const", "const": 1}}
WRONG_TYPED_OPS = {
    "int-field-name": {**_SET_TYPE, "name": 7},
    "str-const": {**_SET_TYPE, "value": {"kind": "const", "const": "x"}},
    "non-dict-value": {**_SET_TYPE, "value": 1},
    "non-list-body": {"op": "Conditional",
                      "condition": {"kind": "field_equals"}, "body": "x"},
    "unknown-value-kind": {**_SET_TYPE, "value": {"kind": "bogus"}},
}


def _coded_result(run):
    return next(result for result in run.results if result.codes
                and any(code.ops for code in result.codes))


class TestIRErrorsInEnvelopes:
    def test_json_code_unit_is_a_contract_error(self, run):
        with pytest.raises(ContractError, match="NoSuchOp"):
            from_json(json.dumps(_bad_code_unit(run)))

    def test_json_sentence_result_is_a_contract_error(self, run):
        payload = json.loads(to_json(_coded_result(run)))
        code = next(code for code in payload["data"]["codes"]
                    if code.get("ops"))
        code["ops"][0] = {"op": "NoSuchOp"}
        with pytest.raises(ContractError, match="NoSuchOp"):
            from_json(json.dumps(payload))

    def test_binary_code_unit_is_a_contract_error(self, run):
        body = _binary_envelope("code_unit", _bad_code_unit(run)["data"])
        with pytest.raises(ContractError, match="NoSuchOp"):
            from_bytes(body)

    def test_binary_sentence_result_is_a_contract_error(self, run):
        blob = to_bytes(_coded_result(run))
        name = next(op.__class__.__name__.encode()
                    for code in _coded_result(run).codes for op in code.ops)
        assert blob.count(name) == 1  # interned: one spelling to corrupt
        with pytest.raises(ContractError, match="unknown serialized op"):
            from_bytes(blob.replace(name, b"X" * len(name)))

    @pytest.mark.parametrize("binary_in", [False, True])
    def test_process_endpoint_answers_400(self, run, binary_in):
        data = _bad_code_unit(run)
        body = (_binary_envelope("code_unit", data["data"]) if binary_in
                else json.dumps(data).encode())
        status, error = _answer("process", body, binary_in=binary_in)
        assert status == 400
        assert error["error"] == "contract-error"

    @pytest.mark.parametrize("binary", [False, True])
    def test_unfingerprinted_code_unit_decodes(self, run, binary):
        program = _decode_code_unit(_unfingerprinted_code_unit(run), binary)
        assert program.fingerprint() == run.code_unit.fingerprint()

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("op", list(WRONG_TYPED_OPS.values()),
                             ids=list(WRONG_TYPED_OPS))
    def test_wrong_typed_op_is_a_contract_error(self, run, op, binary):
        with pytest.raises(ContractError):
            _decode_code_unit(_unfingerprinted_code_unit(run, op), binary)

    def test_fingerprint_mismatch_keeps_its_type(self, run):
        payload = json.loads(to_json(run.code_unit))
        payload["data"]["fingerprint"] = "0" * 40
        with pytest.raises(FingerprintMismatch):
            from_json(json.dumps(payload))
        with pytest.raises(FingerprintMismatch):
            from_bytes(_binary_envelope("code_unit", payload["data"]))


# -- winnow-cache entries ------------------------------------------------------

class TestWinnowEntryFraming:
    def test_real_traces_round_trip(self, run):
        for trace in run.traces():
            assert winnow_entry_from_bytes(winnow_entry_to_bytes(trace)) == trace

    def test_truncated_winnow_entry_is_structured(self, run):
        trace = max(run.traces(), key=lambda trace: len(trace.base_forms))
        entry = winnow_entry_to_bytes(trace)
        for cut in (len(MAGIC), len(MAGIC) + 1, len(entry) // 2,
                    len(entry) - 1):
            with pytest.raises(ContractError):
                winnow_entry_from_bytes(entry[:cut])

    @pytest.mark.parametrize("payload", [
        b"",
        b"not a winnow entry",
        MAGIC + b"\xff" * 8,
        MAGIC + bytes([34, 5]) + b"\x80" * 11,
    ])
    def test_garbage_winnow_entry_is_structured(self, payload):
        with pytest.raises(ContractError):
            winnow_entry_from_bytes(payload)

    def test_hostile_count_is_a_decode_error(self, run):
        entry = bytearray(winnow_entry_to_bytes(run.traces()[0]))
        # After the sentence string comes the stage count: claim 2**40.
        sentence = run.traces()[0].sentence.encode()
        at = entry.index(sentence) + len(sentence)
        entry[at:at + 1] = b"\x80\x80\x80\x80\x80\x20"
        with pytest.raises(EnvelopeDecodeError):
            winnow_entry_from_bytes(bytes(entry))
