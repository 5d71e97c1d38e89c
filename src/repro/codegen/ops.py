"""The primitive operations generated code is assembled from.

Predicate handlers translate logical forms into these ops; the C and Python
emitters render them; the runtime executes the Python rendering against the
static framework.  Keeping an op layer between LFs and text is what lets one
handler registry serve both the display backend (the paper shows C) and the
executable backend (our simulator runs Python).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field


# -- value expressions ---------------------------------------------------------

@dataclass(frozen=True)
class Value:
    """Right-hand sides: constants, scenario params, request fields, etc."""

    kind: str  # const | param | request_field | clock | statevar | packet_field
    const: int = 0
    name: str = ""
    protocol: str = ""

    @staticmethod
    def constant(value: int) -> "Value":
        return Value(kind="const", const=value)

    @staticmethod
    def param(name: str) -> "Value":
        return Value(kind="param", name=name)

    @staticmethod
    def request_field(protocol: str, name: str) -> "Value":
        return Value(kind="request_field", protocol=protocol, name=name)

    @staticmethod
    def clock() -> "Value":
        return Value(kind="clock")

    @staticmethod
    def packet_field(name: str) -> "Value":
        return Value(kind="packet_field", name=name)


# -- conditions ------------------------------------------------------------------

@dataclass(frozen=True)
class Condition:
    """Guards for conditional ops."""

    kind: str  # field_equals | field_ge | statevar_equals | mode_in | not_found | packet_field_nonzero
    protocol: str = ""
    name: str = ""
    value: int = 0
    other: str = ""
    modes: tuple[str, ...] = ()
    negated: bool = False


# -- operations -------------------------------------------------------------------

class Op:
    """Base class; concrete ops below are plain data."""

    advice_before: str | None = None  # function tag this op must precede


@dataclass
class SetField(Op):
    protocol: str
    name: str
    value: Value
    optional: bool = False  # from @May: the spec says "may"
    advice_before: str | None = None


@dataclass
class SwapFields(Op):
    protocol_a: str
    field_a: str
    protocol_b: str
    field_b: str
    advice_before: str | None = None


@dataclass
class CopyData(Op):
    """Copy the request's payload into the reply (echo semantics)."""

    advice_before: str | None = None


@dataclass
class QuoteDatagram(Op):
    """Internet header + 64 bits of the original datagram into the payload."""

    advice_before: str | None = None


@dataclass
class ComputeChecksum(Op):
    protocol: str
    name: str
    function: str  # framework function, e.g. internet_checksum
    range_start: str = "type"  # field the coverage starts at
    range_end: str = "end"  # "end" = end of message (the correct reading)
    advice_before: str | None = None


@dataclass
class PadData(Op):
    """Checksum padding note: coverage pads odd-length data with a zero
    octet; the framework checksum already does this, so execution is a
    no-op, but the op stays in the listing (and the C rendering)."""

    advice_before: str | None = None


@dataclass
class Conditional(Op):
    condition: Condition
    body: list[Op] = dataclass_field(default_factory=list)
    advice_before: str | None = None


@dataclass
class SetStateVar(Op):
    name: str  # e.g. bfd.RemoteDiscr
    value: Value
    advice_before: str | None = None


@dataclass
class CallProcedure(Op):
    name: str  # e.g. timeout_procedure
    advice_before: str | None = None


@dataclass
class Send(Op):
    message: str
    destination: str = ""
    advice_before: str | None = None


@dataclass
class Encapsulate(Op):
    """Wrap the message in a lower-layer datagram (NTP-in-UDP)."""

    outer: str = "udp"
    advice_before: str | None = None


@dataclass
class SelectSession(Op):
    discriminator_field: str = "your_discriminator"
    advice_before: str | None = None


@dataclass
class Discard(Op):
    reason: str = ""
    advice_before: str | None = None


@dataclass
class CeaseTransmission(Op):
    what: str = "periodic_transmission"
    advice_before: str | None = None


@dataclass
class Comment(Op):
    """A non-actionable sentence carried as a comment (@AdvComment)."""

    text: str
    advice_before: str | None = None
