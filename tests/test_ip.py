"""Tests for the IPv4 codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.framework.addressing import ip_to_int
from repro.framework.ip import (
    PROTO_ICMP,
    PROTO_UDP,
    IPv4Header,
    make_ip_packet,
    reply_skeleton,
)

SRC = ip_to_int("10.0.1.100")
DST = ip_to_int("192.168.2.2")


class TestIPv4Packing:
    def test_header_is_20_bytes(self):
        assert IPv4Header.header_len() == 20

    def test_make_packet_finalizes_length_and_checksum(self):
        packet = make_ip_packet(SRC, DST, PROTO_ICMP, b"x" * 12)
        assert packet.total_length == 32
        assert packet.checksum_ok()

    def test_roundtrip(self):
        packet = make_ip_packet(SRC, DST, PROTO_UDP, b"hello", ttl=7, tos=3)
        again = IPv4Header.unpack(packet.pack())
        assert again == packet
        assert again.ttl == 7
        assert again.tos == 3

    def test_corruption_breaks_checksum(self):
        raw = bytearray(make_ip_packet(SRC, DST, PROTO_ICMP, b"").pack())
        raw[8] ^= 0xFF  # flip TTL
        assert not IPv4Header.unpack(bytes(raw)).checksum_ok()

    def test_options_accounted_in_ihl(self):
        packet = make_ip_packet(SRC, DST, PROTO_ICMP, b"data", options=b"\x01" * 4)
        assert packet.ihl == 6
        assert packet.options == b"\x01" * 4
        assert packet.data == b"data"

    def test_unpadded_options_rejected(self):
        with pytest.raises(ValueError):
            make_ip_packet(SRC, DST, PROTO_ICMP, b"", options=b"\x01\x02")

    def test_version_defaults_to_4(self):
        assert IPv4Header().version == 4

    @given(st.lists(st.binary(min_size=4, max_size=4), max_size=10),
           st.binary(max_size=64), st.integers(1, 255))
    def test_header_bytes_is_the_packed_prefix(self, words, data, ttl):
        options = b"".join(words)
        packet = make_ip_packet(SRC, DST, PROTO_ICMP, data, ttl=ttl,
                                options=options)
        assert packet.options_len == len(options)
        assert packet.header_bytes() == packet.pack()[: 20 + len(options)]

    @given(st.integers(0, 15), st.binary(max_size=64), st.integers(0, 0xFFFF))
    def test_header_bytes_when_ihl_overstates_the_options(self, ihl, payload,
                                                          checksum):
        packet = IPv4Header(ihl=ihl, header_checksum=checksum, src=SRC,
                            dst=DST, payload=payload)
        assert packet.header_bytes() == packet.pack()[: 20 + packet.options_len]

    @given(st.binary(max_size=128), st.integers(1, 255))
    def test_roundtrip_property(self, data, ttl):
        packet = make_ip_packet(SRC, DST, PROTO_ICMP, data, ttl=ttl)
        again = IPv4Header.unpack(packet.pack())
        assert again.data == data
        assert again.checksum_ok()


class TestReplySkeleton:
    def test_addresses_reversed(self):
        request = make_ip_packet(SRC, DST, PROTO_ICMP, b"")
        reply = reply_skeleton(request)
        assert reply.src == DST
        assert reply.dst == SRC

    def test_protocol_carried_or_overridden(self):
        request = make_ip_packet(SRC, DST, PROTO_UDP, b"")
        assert reply_skeleton(request).protocol == PROTO_UDP
        assert reply_skeleton(request, protocol=PROTO_ICMP).protocol == PROTO_ICMP

    def test_fresh_ttl(self):
        request = make_ip_packet(SRC, DST, PROTO_ICMP, b"", ttl=1)
        assert reply_skeleton(request).ttl == 64
