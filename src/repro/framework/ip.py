"""IPv4 header codec and helpers (RFC 791 subset used by the evaluation).

The static framework's job (paper §5.1) is to give generated protocol code an
API onto the protocols *below* it: ICMP code reads and writes IP source and
destination addresses, TTL, and total length, and relies on the IP layer for
header checksumming.  Options are carried verbatim so the checksum-range
interpretation "header + payload + any IP options" (Table 3, index 5) can be
exercised.
"""

from __future__ import annotations

from .checksum import internet_checksum, verify_checksum
from .packet import FieldSpec, Header

PROTO_ICMP = 1
PROTO_IGMP = 2
PROTO_TCP = 6
PROTO_UDP = 17

PROTOCOL_NAMES = {
    PROTO_ICMP: "ICMP",
    PROTO_IGMP: "IGMP",
    PROTO_TCP: "TCP",
    PROTO_UDP: "UDP",
}


class IPv4Header(Header):
    """Fixed 20-byte IPv4 header; options live at the front of ``payload``.

    ``ihl`` is in 32-bit words.  ``options_len`` bytes at the start of the
    payload are IP options (``ihl`` > 5); the rest is the upper-layer data.
    """

    FIELDS = (
        FieldSpec("version", 4, default=4),
        FieldSpec("ihl", 4, default=5),
        FieldSpec("tos", 8),
        FieldSpec("total_length", 16),
        FieldSpec("identification", 16),
        FieldSpec("flags", 3),
        FieldSpec("fragment_offset", 13),
        FieldSpec("ttl", 8, default=64),
        FieldSpec("protocol", 8),
        FieldSpec("header_checksum", 16),
        FieldSpec("src", 32),
        FieldSpec("dst", 32),
    )

    @property
    def options_len(self) -> int:
        return max(0, (self.ihl - 5) * 4)

    @property
    def options(self) -> bytes:
        return self.payload[: self.options_len]

    @property
    def data(self) -> bytes:
        """Upper-layer data (payload minus IP options)."""
        return self.payload[self.options_len:]

    def header_bytes(self) -> bytes:
        """The bytes covered by the IP header checksum: 20 fixed + options."""
        return self.pack_fields() + self.payload[: self.options_len]

    def finalize(self) -> "IPv4Header":
        """Fill in total_length and header_checksum; returns self."""
        self.total_length = 20 + len(self.payload)
        self.header_checksum = 0
        self.header_checksum = internet_checksum(self.header_bytes())
        return self

    def checksum_ok(self) -> bool:
        return verify_checksum(self.header_bytes())

    def protocol_name(self) -> str:
        return PROTOCOL_NAMES.get(self.protocol, str(self.protocol))


def make_ip_packet(
    src: int,
    dst: int,
    protocol: int,
    data: bytes,
    ttl: int = 64,
    tos: int = 0,
    identification: int = 0,
    options: bytes = b"",
) -> IPv4Header:
    """Build a finalized IPv4 packet carrying ``data``."""
    if len(options) % 4:
        raise ValueError("IP options must be padded to a 32-bit boundary")
    packet = IPv4Header(
        ihl=5 + len(options) // 4,
        tos=tos,
        ttl=ttl,
        protocol=protocol,
        identification=identification,
        src=src,
        dst=dst,
        payload=options + data,
    )
    return packet.finalize()


def reply_skeleton(request: IPv4Header, protocol: int | None = None) -> IPv4Header:
    """Start a reply to ``request``: addresses reversed, fresh TTL.

    This is the framework hook behind the RFC sentence "the source and
    destination addresses are simply reversed" — the static context maps
    that phrase to an exchange of ``ip->src`` and ``ip->dst``.
    """
    return IPv4Header(
        tos=request.tos,
        ttl=64,
        protocol=request.protocol if protocol is None else protocol,
        src=request.dst,
        dst=request.src,
    )
