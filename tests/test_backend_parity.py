"""Property tests: the three backends agree over randomized IR op trees.

Two families of invariants:

* **C ↔ Python structural parity** — both text backends must express the
  same abstract operation sequence.  Each rendering is parsed back into a
  canonical event list (assignments, swaps, checksum computations,
  conditionals with recursive bodies) and the lists must be equal.
* **interpreter ↔ exec behavioural parity** — compiling a function through
  the Python emitter + ``exec`` and through the direct IR interpreter must
  produce byte-for-byte identical ``ctx`` call sequences, on randomized op
  trees (conditionals, swaps, checksum placement, early-discard) and on
  every builder of all four bundled corpora.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import CEmitter, Function, IRInterpreter, PyEmitter
from repro.codegen.ops import (
    ComputeChecksum,
    Condition,
    Conditional,
    CopyData,
    Discard,
    QuoteDatagram,
    Send,
    SetField,
    SwapFields,
    Value,
)
from repro.core import SageEngine

# -- strategies ----------------------------------------------------------------

protocols = st.sampled_from(["icmp", "ip"])
field_names = st.sampled_from(
    ["type", "code", "checksum", "identifier", "sequence_number", "dst", "src"]
)

values = st.one_of(
    st.integers(0, 255).map(Value.constant),
    st.sampled_from(["code", "chosen_value", "gateway_address"]).map(Value.param),
    st.tuples(protocols, field_names).map(
        lambda pair: Value.request_field(*pair)
    ),
    st.just(Value.clock()),
)

set_fields = st.builds(SetField, protocols, field_names, values)
swaps = st.builds(
    SwapFields,
    protocol_a=protocols, field_a=field_names,
    protocol_b=protocols, field_b=field_names,
)
checksums = st.builds(
    ComputeChecksum,
    protocol=st.just("icmp"), name=st.just("checksum"),
    function=st.just("internet_checksum"),
    range_start=st.sampled_from(["type", "code"]),
)
conditions = st.one_of(
    st.builds(
        Condition,
        kind=st.just("field_equals"), protocol=protocols, name=field_names,
        value=st.integers(0, 7), negated=st.booleans(),
    ),
    st.builds(
        Condition,
        kind=st.just("field_odd"), protocol=protocols, name=field_names,
    ),
)
leaf_ops = st.one_of(set_fields, swaps, checksums,
                     st.just(CopyData()), st.just(QuoteDatagram()),
                     st.builds(Send, message=st.sampled_from(["query", "report"])),
                     st.builds(Discard, reason=st.sampled_from(["", "bad"])))


def op_trees(max_depth=2):
    return st.recursive(
        leaf_ops,
        lambda children: st.builds(
            Conditional,
            condition=conditions,
            body=st.lists(children, min_size=1, max_size=3),
        ),
        max_leaves=8,
    )


op_lists = st.lists(op_trees(), min_size=0, max_size=6)


# -- C ↔ Python structural parity ---------------------------------------------

_C_OWNERS = {"hdr": "icmp", "ip": "ip", "req": "icmp", "req_ip": "ip"}


def _canon_c_value(text: str):
    text = text.strip()
    if re.fullmatch(r"\d+", text):
        return ("const", int(text))
    if text.startswith("params."):
        return ("param", text.removeprefix("params."))
    if text == "clock_ms()":
        return ("clock",)
    match = re.fullmatch(r"(req_ip|req)->(\w+)", text)
    if match:
        return ("request_field", _C_OWNERS[match.group(1)], match.group(2))
    raise AssertionError(f"unparsed C value {text!r}")


def _canon_python_value(text: str):
    text = text.strip()
    if re.fullmatch(r"\d+", text):
        return ("const", int(text))
    match = re.fullmatch(r"ctx\.param\('(\w+)'\)", text)
    if match:
        return ("param", match.group(1))
    if text == "ctx.clock_ms()":
        return ("clock",)
    match = re.fullmatch(r"ctx\.request_field\('(\w+)', '(\w+)'\)", text)
    if match:
        return ("request_field", match.group(1), match.group(2))
    raise AssertionError(f"unparsed Python value {text!r}")


def _events_from_c(lines):
    """Parse the C rendering into canonical events (recursive on blocks)."""
    events = []
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        index += 1
        if not line:
            continue
        match = re.fullmatch(r"(hdr|ip)->(\w+) = 0;", line)
        if match and index < len(lines):
            # Checksum pair: "<ref> = 0;" then "<ref> = internet_checksum(...)".
            nxt = lines[index].strip()
            checksum = re.match(
                rf"(hdr|ip)->{match.group(2)} = internet_checksum\("
                r"\(uint8_t \*\)&hdr->(\w+),", nxt)
            if checksum and checksum.group(1) == match.group(1):
                events.append(("checksum", _C_OWNERS[match.group(1)],
                               match.group(2), checksum.group(2)))
                index += 1  # consume the internet_checksum call line
                continue
        match = re.fullmatch(r"(hdr|ip)->(\w+) = (.*);", line)
        if match:
            events.append(("set", _C_OWNERS[match.group(1)], match.group(2),
                           _canon_c_value(match.group(3))))
            continue
        match = re.fullmatch(r"swap\(&(hdr|ip)->(\w+), &(hdr|ip)->(\w+)\);", line)
        if match:
            events.append(("swap", _C_OWNERS[match.group(1)], match.group(2),
                           _C_OWNERS[match.group(3)], match.group(4)))
            continue
        if line.startswith("memcpy(hdr->data, req->data"):
            events.append(("copy_data",))
            continue
        if line.startswith("memcpy(hdr->data, req_ip"):
            events.append(("quote",))
            index += 1  # the second memcpy of the quoted-datagram pair
            continue
        match = re.fullmatch(r"if \((.*)\) \{", line)
        if match:
            depth, body = 1, []
            while depth:
                inner = lines[index]
                if inner.strip().endswith("{"):
                    depth += 1
                elif inner.strip() == "}":
                    depth -= 1
                if depth:
                    body.append(inner)
                index += 1
            events.append(("if", _canon_c_condition(match.group(1)),
                           _events_from_c(body)))
            continue
        match = re.fullmatch(r"send_message\((\w+), (\w+)\);", line)
        if match:
            events.append(("send", match.group(1)))
            continue
        if line == "discard_packet(); return;":
            events.append(("discard",))
            continue
        raise AssertionError(f"unparsed C line {line!r}")
    return events


def _canon_c_condition(text: str):
    match = re.fullmatch(r"(hdr|ip)->(\w+) (==|!=) (\d+)", text)
    if match:
        return ("field_equals", _C_OWNERS[match.group(1)], match.group(2),
                int(match.group(4)), match.group(3) == "!=")
    match = re.fullmatch(r"(hdr|ip)->(\w+) % 2 == 1", text)
    if match:
        return ("field_odd", _C_OWNERS[match.group(1)], match.group(2))
    raise AssertionError(f"unparsed C condition {text!r}")


def _events_from_python(lines):
    events = []
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        indent = len(lines[index]) - len(lines[index].lstrip())
        index += 1
        if not line or line == "pass":
            continue
        match = re.fullmatch(r"ctx\.set_field\('(\w+)', '(\w+)', (.*)\)", line)
        if match:
            events.append(("set", match.group(1), match.group(2),
                           _canon_python_value(match.group(3))))
            continue
        match = re.fullmatch(
            r"ctx\.swap_fields\('(\w+)', '(\w+)', '(\w+)', '(\w+)'\)", line)
        if match:
            events.append(("swap", *match.groups()))
            continue
        match = re.fullmatch(
            r"ctx\.compute_checksum\('(\w+)', '(\w+)', start='(\w+)'\)", line)
        if match:
            events.append(("checksum", *match.groups()))
            continue
        if line == "ctx.copy_data()":
            events.append(("copy_data",))
            continue
        if line == "ctx.quote_datagram()":
            events.append(("quote",))
            continue
        match = re.fullmatch(r"if (.*):", line)
        if match:
            body = []
            while index < len(lines):
                body_indent = len(lines[index]) - len(lines[index].lstrip())
                if lines[index].strip() and body_indent <= indent:
                    break
                body.append(lines[index])
                index += 1
            events.append(("if", _canon_python_condition(match.group(1)),
                           _events_from_python(body)))
            continue
        match = re.fullmatch(r"ctx\.send\('(\w+)', '(\w*)'\)", line)
        if match:
            events.append(("send", match.group(1)))
            continue
        match = re.fullmatch(r"ctx\.discard\('(\w*)'\)", line)
        if match:
            events.append(("discard",))
            index += 1  # the paired "return ctx"
            continue
        raise AssertionError(f"unparsed Python line {line!r}")
    return events


def _canon_python_condition(text: str):
    match = re.fullmatch(
        r"ctx\.get_field\('(\w+)', '(\w+)'\) (==|!=) (\d+)", text)
    if match:
        return ("field_equals", match.group(1), match.group(2),
                int(match.group(4)), match.group(3) == "!=")
    match = re.fullmatch(r"ctx\.get_field\('(\w+)', '(\w+)'\) % 2 == 1", text)
    if match:
        return ("field_odd", match.group(1), match.group(2))
    raise AssertionError(f"unparsed Python condition {text!r}")


class TestCAndPythonStructuralParity:
    @given(op_lists)
    @settings(max_examples=120, deadline=None)
    def test_same_event_sequence(self, ops):
        c_events = _events_from_c(CEmitter().emit(ops))
        python_events = _events_from_python(PyEmitter().emit(ops))
        assert c_events == python_events


# -- interpreter ↔ exec behavioural parity ------------------------------------

class RecordingContext:
    """A ctx double recording every call, with deterministic answers so both
    backends see identical branch decisions."""

    def __init__(self):
        self.calls = []

    def _record(self, method, *args):
        self.calls.append((method, args))

    def set_field(self, protocol, name, value):
        self._record("set_field", protocol, name, value)

    def get_field(self, protocol, name):
        self._record("get_field", protocol, name)
        return (len(protocol) * 3 + len(name)) % 5

    def swap_fields(self, pa, fa, pb, fb):
        self._record("swap_fields", pa, fa, pb, fb)

    def request_field(self, protocol, name):
        self._record("request_field", protocol, name)
        return len(name)

    def param(self, name):
        self._record("param", name)
        return len(name) % 3

    def clock_ms(self):
        self._record("clock_ms")
        return 42

    def state_get(self, name):
        self._record("state_get", name)
        return len(name) % 2

    def state_set(self, name, value):
        self._record("state_set", name, value)

    def packet_field(self, name):
        self._record("packet_field", name)
        return len(name) % 3

    def variable(self, name):
        self._record("variable", name)
        return len(name)

    def mode_in(self, modes):
        self._record("mode_in", tuple(modes))
        return len(modes) % 2 == 1

    def session_found(self):
        self._record("session_found")
        return True

    def compute_checksum(self, protocol, name, start="type"):
        self._record("compute_checksum", protocol, name, start)

    def pad_for_checksum(self):
        self._record("pad_for_checksum")

    def copy_data(self):
        self._record("copy_data")

    def quote_datagram(self):
        self._record("quote_datagram")

    def discard(self, reason=""):
        self._record("discard", reason)

    def send(self, message, destination=""):
        self._record("send", message, destination)

    def encapsulate(self, outer):
        self._record("encapsulate", outer)

    def select_session(self):
        self._record("select_session")

    def call_procedure(self, name):
        self._record("call_procedure", name)

    def cease_transmission(self):
        self._record("cease_transmission")


def _parity_check(function: Function):
    source = PyEmitter().render_function(function.name, function.ops)
    namespace: dict = {}
    exec(compile(source, "<parity>", "exec"), namespace)
    executed = RecordingContext()
    namespace[function.name](executed)

    interpreted = RecordingContext()
    IRInterpreter().compile_function(function)(interpreted)
    assert executed.calls == interpreted.calls


class TestInterpreterExecParity:
    @given(op_lists)
    @settings(max_examples=120, deadline=None)
    def test_random_trees(self, ops):
        _parity_check(Function(protocol="ICMP", message_name="probe",
                               role="receiver", ops=ops))


@pytest.fixture(scope="module")
def revised_runs():
    return SageEngine(mode="revised").process_corpora()


@pytest.mark.parametrize("protocol", ["ICMP", "IGMP", "NTP", "BFD"])
def test_corpus_parity(revised_runs, protocol):
    """Every builder of every bundled corpus: interp ≡ exec, call for call."""
    unit = revised_runs[protocol].code_unit
    assert unit.programs
    for function in unit.programs:
        _parity_check(function)
