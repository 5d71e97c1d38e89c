"""ICMP message codecs (RFC 792), covering all eight message types.

The reference builders here serve three roles: (1) they are the ground truth
the student-study fault injectors perturb (Table 2/3); (2) the netsim `ping`
and `traceroute` tools use them to *consume* messages exactly the way Linux
does; (3) end-to-end tests compare SAGE-generated code against them
byte-for-byte.
"""

from __future__ import annotations

from .checksum import internet_checksum, verify_checksum
from .ip import IPv4Header
from .packet import FieldSpec, Header

# Message types (RFC 792).
ECHO_REPLY = 0
DEST_UNREACHABLE = 3
SOURCE_QUENCH = 4
REDIRECT = 5
ECHO = 8
TIME_EXCEEDED = 11
PARAMETER_PROBLEM = 12
TIMESTAMP = 13
TIMESTAMP_REPLY = 14
INFO_REQUEST = 15
INFO_REPLY = 16

# Destination-unreachable codes.
NET_UNREACHABLE = 0
HOST_UNREACHABLE = 1
PROTOCOL_UNREACHABLE = 2
PORT_UNREACHABLE = 3

# Time-exceeded codes.
TTL_EXCEEDED = 0
FRAGMENT_REASSEMBLY_EXCEEDED = 1


class ICMPHeader(Header):
    """The common 4-byte ICMP prefix plus a type-specific ``rest`` word.

    RFC 792 gives every message type / code / checksum followed by a 4-byte
    type-specific field (unused, gateway address, identifier+sequence, or
    pointer+unused); we model that as ``rest`` and provide typed accessors.
    """

    FIELDS = (
        FieldSpec("type", 8),
        FieldSpec("code", 8),
        FieldSpec("checksum", 16),
        FieldSpec("rest", 32),
    )

    # -- typed accessors onto the "rest of header" word ------------------
    @property
    def identifier(self) -> int:
        return (self.rest >> 16) & 0xFFFF

    @identifier.setter
    def identifier(self, value: int) -> None:
        self.rest = ((value & 0xFFFF) << 16) | (self.rest & 0xFFFF)

    @property
    def sequence(self) -> int:
        return self.rest & 0xFFFF

    @sequence.setter
    def sequence(self, value: int) -> None:
        self.rest = (self.rest & 0xFFFF0000) | (value & 0xFFFF)

    @property
    def gateway(self) -> int:
        return self.rest

    @gateway.setter
    def gateway(self, value: int) -> None:
        self.rest = value & 0xFFFFFFFF

    @property
    def pointer(self) -> int:
        return (self.rest >> 24) & 0xFF

    @pointer.setter
    def pointer(self, value: int) -> None:
        self.rest = ((value & 0xFF) << 24) | (self.rest & 0x00FFFFFF)

    # -- checksum ----------------------------------------------------------
    def finalize(self) -> "ICMPHeader":
        """Compute the checksum over the whole message, starting at Type.

        This is the disambiguated reading of the RFC sentence (the checksum
        covers the ICMP header *and* payload, ending at the end of the
        message) — the reading that interoperates with Linux.
        """
        self.checksum = 0
        self.checksum = internet_checksum(self.pack())
        return self

    def checksum_ok(self) -> bool:
        return verify_checksum(self.pack())


def quoted_datagram(original: IPv4Header) -> bytes:
    """The "internet header + 64 bits of original data" quotation.

    Error messages (destination unreachable, time exceeded, source quench,
    redirect, parameter problem) carry the offending datagram's IP header
    plus its first 8 data bytes so the sender can match the error to a
    socket; this is one of the spots students got wrong (Table 2, "Incorrect
    ICMP payload content").
    """
    return original.header_bytes() + original.data[:8]


# -- reference message builders (ground truth for the evaluation) ----------

def make_echo(identifier: int, sequence: int, data: bytes = b"") -> ICMPHeader:
    header = ICMPHeader(type=ECHO, code=0, payload=data)
    header.identifier = identifier
    header.sequence = sequence
    return header.finalize()


def make_echo_reply(request: ICMPHeader) -> ICMPHeader:
    """Echo reply per RFC 792: data, identifier and sequence are echoed.

    "The data received in the echo message must be returned in the echo
    reply message" and the identifier/sequence "may be used ... to match
    echos and replies" — Linux ping enforces all three.
    """
    reply = ICMPHeader(type=ECHO_REPLY, code=0, payload=request.payload)
    reply.rest = request.rest
    return reply.finalize()


def make_dest_unreachable(code: int, original: IPv4Header) -> ICMPHeader:
    return ICMPHeader(
        type=DEST_UNREACHABLE, code=code, payload=quoted_datagram(original)
    ).finalize()


def make_time_exceeded(code: int, original: IPv4Header) -> ICMPHeader:
    return ICMPHeader(
        type=TIME_EXCEEDED, code=code, payload=quoted_datagram(original)
    ).finalize()


def make_source_quench(original: IPv4Header) -> ICMPHeader:
    return ICMPHeader(
        type=SOURCE_QUENCH, code=0, payload=quoted_datagram(original)
    ).finalize()


def make_parameter_problem(pointer: int, original: IPv4Header) -> ICMPHeader:
    header = ICMPHeader(
        type=PARAMETER_PROBLEM, code=0, payload=quoted_datagram(original)
    )
    header.pointer = pointer
    return header.finalize()


def make_redirect(code: int, gateway: int, original: IPv4Header) -> ICMPHeader:
    header = ICMPHeader(type=REDIRECT, code=code, payload=quoted_datagram(original))
    header.gateway = gateway
    return header.finalize()


class ICMPTimestampHeader(Header):
    """Timestamp / timestamp-reply message: three 32-bit timestamps."""

    FIELDS = (
        FieldSpec("type", 8),
        FieldSpec("code", 8),
        FieldSpec("checksum", 16),
        FieldSpec("identifier", 16),
        FieldSpec("sequence", 16),
        FieldSpec("originate", 32),
        FieldSpec("receive", 32),
        FieldSpec("transmit", 32),
    )

    def finalize(self) -> "ICMPTimestampHeader":
        self.checksum = 0
        self.checksum = internet_checksum(self.pack())
        return self

    def checksum_ok(self) -> bool:
        return verify_checksum(self.pack())


def make_timestamp(identifier: int, sequence: int, originate: int) -> ICMPTimestampHeader:
    return ICMPTimestampHeader(
        type=TIMESTAMP,
        identifier=identifier,
        sequence=sequence,
        originate=originate,
    ).finalize()


def make_timestamp_reply(
    request: ICMPTimestampHeader, receive: int, transmit: int
) -> ICMPTimestampHeader:
    """Reply: originate echoed, receive/transmit stamped by the responder."""
    return ICMPTimestampHeader(
        type=TIMESTAMP_REPLY,
        identifier=request.identifier,
        sequence=request.sequence,
        originate=request.originate,
        receive=receive,
        transmit=transmit,
    ).finalize()


def make_info_request(identifier: int, sequence: int) -> ICMPHeader:
    header = ICMPHeader(type=INFO_REQUEST, code=0)
    header.identifier = identifier
    header.sequence = sequence
    return header.finalize()


def make_info_reply(request: ICMPHeader) -> ICMPHeader:
    reply = ICMPHeader(type=INFO_REPLY, code=0)
    reply.rest = request.rest
    return reply.finalize()
