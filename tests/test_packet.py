"""Tests for the declarative header codec (pack/unpack roundtrips)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.framework.bfd import BFDControlHeader
from repro.framework.icmp import ICMPHeader, ICMPTimestampHeader
from repro.framework.igmp import IGMPHeader
from repro.framework.ip import IPv4Header
from repro.framework.ntp import NTPHeader
from repro.framework.packet import FieldSpec, Header, HeaderLayout, LayoutField
from repro.framework.udp import UDPHeader


class TinyHeader(Header):
    FIELDS = (
        FieldSpec("version", 4, default=1),
        FieldSpec("flags", 4),
        FieldSpec("length", 8),
        FieldSpec("token", 16),
    )


class TestFieldSpec:
    def test_max_value(self):
        assert FieldSpec("x", 4).max_value == 15
        assert FieldSpec("x", 16).max_value == 0xFFFF

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            FieldSpec("x", 0)


class TestHeaderPacking:
    def test_defaults_apply(self):
        header = TinyHeader()
        assert header.version == 1
        assert header.flags == 0

    def test_pack_layout_is_big_endian_bit_order(self):
        header = TinyHeader(version=0xA, flags=0x5, length=0xFF, token=0x1234)
        assert header.pack() == bytes([0xA5, 0xFF, 0x12, 0x34])

    def test_unpack_reverses_pack(self):
        header = TinyHeader(version=2, flags=7, length=42, token=999, payload=b"xy")
        again = TinyHeader.unpack(header.pack())
        assert again == header
        assert again.payload == b"xy"

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            TinyHeader(bogus=1)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError):
            TinyHeader(version=16)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            TinyHeader(version="1")

    def test_truncated_unpack_raises(self):
        with pytest.raises(ValueError):
            TinyHeader.unpack(b"\x00\x00")

    def test_len_includes_payload(self):
        assert len(TinyHeader(payload=b"abc")) == 4 + 3

    def test_copy_is_independent(self):
        header = TinyHeader(token=5)
        clone = header.copy()
        clone.token = 6
        assert header.token == 5

    @given(
        version=st.integers(0, 15),
        flags=st.integers(0, 15),
        length=st.integers(0, 255),
        token=st.integers(0, 0xFFFF),
        payload=st.binary(max_size=64),
    )
    def test_roundtrip_property(self, version, flags, length, token, payload):
        header = TinyHeader(
            version=version, flags=flags, length=length, token=token, payload=payload
        )
        assert TinyHeader.unpack(header.pack()) == header


class TestHeaderLayout:
    def layout(self):
        return HeaderLayout(
            protocol="demo",
            fields=[LayoutField("type", 8), LayoutField("code", 8), LayoutField("checksum", 16)],
        )

    def test_total_bits(self):
        assert self.layout().total_bits() == 32

    def test_generated_class_roundtrips(self):
        cls = self.layout().to_header_class()
        instance = cls(type=3, code=1, checksum=0xBEEF, payload=b"z")
        assert cls.unpack(instance.pack()) == instance

    def test_offsets(self):
        offsets = dict(
            (field.name, offset) for field, offset in self.layout().iter_offsets()
        )
        assert offsets == {"type": 0, "code": 8, "checksum": 16}

    def test_c_struct_rendering(self):
        struct_text = self.layout().to_c_struct()
        assert "struct demo_hdr {" in struct_text
        assert "uint8_t type;" in struct_text
        assert "uint16_t checksum;" in struct_text

    def test_c_struct_bitfields_for_sub_byte(self):
        layout = HeaderLayout("v", [LayoutField("version", 4), LayoutField("ihl", 4)])
        struct_text = layout.to_c_struct()
        assert "uint8_t version : 4;" in struct_text


# -- every bundled layout against a bit-by-bit reference codec ----------------

#: A generated class whose sub-byte fields straddle byte boundaries.
SubByteHeader = HeaderLayout("sub_byte", [
    LayoutField("flag", 1), LayoutField("kind", 3), LayoutField("level", 5),
    LayoutField("span", 7), LayoutField("wide", 13), LayoutField("tail", 3),
]).to_header_class()

HEADER_CLASSES = (IPv4Header, ICMPHeader, ICMPTimestampHeader, UDPHeader,
                  IGMPHeader, NTPHeader, BFDControlHeader, SubByteHeader)


def reference_pack(cls, values, payload):
    """Lay the fields out one bit at a time, most significant bit first."""
    bits = []
    for spec in cls.FIELDS:
        value = values[spec.name]
        bits.extend((value >> (spec.bits - 1 - i)) & 1 for i in range(spec.bits))
    assert len(bits) % 8 == 0
    out = bytearray()
    for start in range(0, len(bits), 8):
        byte = 0
        for bit in bits[start:start + 8]:
            byte = (byte << 1) | bit
        out.append(byte)
    return bytes(out) + payload


def reference_unpack(cls, data):
    """The inverse of :func:`reference_pack`: (field values, payload)."""
    total = sum(spec.bits for spec in cls.FIELDS)
    bits = [(data[i // 8] >> (7 - i % 8)) & 1 for i in range(total)]
    values, position = {}, 0
    for spec in cls.FIELDS:
        value = 0
        for bit in bits[position:position + spec.bits]:
            value = (value << 1) | bit
        values[spec.name] = value
        position += spec.bits
    return values, data[total // 8:]


def _values_for(cls):
    return st.fixed_dictionaries(
        {spec.name: st.integers(0, spec.max_value) for spec in cls.FIELDS})


class TestBundledCodecs:
    def test_generated_class_has_sub_byte_fields(self):
        assert SubByteHeader.header_bits() == 32
        assert all(spec.bits % 8 for spec in SubByteHeader.FIELDS)

    @pytest.mark.parametrize("cls", HEADER_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_compiled_lengths_match_the_fields(self, cls):
        bits = sum(spec.bits for spec in cls.FIELDS)
        assert cls.header_bits() == bits
        assert cls.header_len() == bits // 8

    @given(data=st.data())
    def test_pack_matches_reference(self, data):
        cls = data.draw(st.sampled_from(HEADER_CLASSES))
        values = data.draw(_values_for(cls))
        payload = data.draw(st.binary(max_size=24))
        header = cls(payload=payload, **values)
        assert header.pack() == reference_pack(cls, values, payload)

    @given(data=st.data())
    def test_pack_fields_is_pack_without_the_payload(self, data):
        cls = data.draw(st.sampled_from(HEADER_CLASSES))
        values = data.draw(_values_for(cls))
        header = cls(payload=data.draw(st.binary(max_size=24)), **values)
        assert header.pack_fields() == reference_pack(cls, values, b"")

    @given(data=st.data())
    def test_unpack_matches_reference(self, data):
        cls = data.draw(st.sampled_from(HEADER_CLASSES))
        length = cls.header_len()
        raw = data.draw(st.binary(min_size=length, max_size=length + 24))
        header = cls.unpack(raw)
        values, payload = reference_unpack(cls, raw)
        assert header.field_values() == values
        assert header.payload == payload
        assert header == cls(payload=payload, **values)
        assert header.pack() == raw


class TestChecksStillRaise:
    """The compiled fast paths keep every type and range check."""

    @pytest.mark.parametrize("cls", HEADER_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_unknown_field(self, cls):
        with pytest.raises(TypeError, match=r"unknown fields for .*\['bogus'\]"):
            cls(bogus=1)

    @pytest.mark.parametrize("cls", HEADER_CLASSES,
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("bad", ["1", 1.0, None, b"\x01"])
    def test_non_int_at_construction(self, cls, bad):
        name = cls.FIELDS[-1].name
        with pytest.raises(TypeError, match=f"field '{name}' must be an int"):
            cls(**{name: bad})

    @pytest.mark.parametrize("cls", HEADER_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_out_of_range_at_construction(self, cls):
        for spec in cls.FIELDS:
            for bad in (-1, spec.max_value + 1):
                with pytest.raises(ValueError,
                                   match=f"does not fit in {spec.bits} bits"):
                    cls(**{spec.name: bad})

    def test_out_of_range_at_pack_after_mutation(self):
        header = IPv4Header()
        header.ttl = 256
        for pack in (header.pack, header.pack_fields, header.header_bytes):
            with pytest.raises(ValueError, match="field 'ttl' value 256 "
                                                 "does not fit in 8 bits"):
                pack()

    def test_non_int_at_pack_after_mutation(self):
        header = UDPHeader()
        header.length = "8"
        with pytest.raises(TypeError, match="field 'length' must be an int"):
            header.pack()

    def test_bools_are_still_accepted_as_ints(self):
        header = BFDControlHeader(poll=True)
        assert header.pack() == BFDControlHeader(poll=1).pack()
        header.final = True
        assert BFDControlHeader.unpack(header.pack()).final == 1
        with pytest.raises(ValueError):
            TinyHeader(length=True, flags=16)

    @pytest.mark.parametrize("cls", HEADER_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_truncated_unpack(self, cls):
        length = cls.header_len()
        with pytest.raises(ValueError,
                           match=f"need {length} bytes, got {length - 1}"):
            cls.unpack(bytes(length - 1))

    def test_unaligned_layout_raises_at_pack_and_unpack(self):
        cls = HeaderLayout("odd", [LayoutField("a", 3),
                                   LayoutField("b", 7)]).to_header_class()
        header = cls(a=1, b=2)
        with pytest.raises(ValueError, match=r"not byte aligned \(10 bits\)"):
            header.pack()
        with pytest.raises(ValueError, match="not byte aligned"):
            cls.unpack(b"\x00\x00")


# -- the codec across a class hierarchy ----------------------------------------

class PlainIPv4(IPv4Header):
    """No ``FIELDS`` of its own: the parent's layout and codec."""


class ShortHeader(PlainIPv4):
    FIELDS = (FieldSpec("kind", 4, default=9), FieldSpec("size", 12))


class TaggedIPv4(IPv4Header):
    def pack(self) -> bytes:
        return b"tag" + super().pack()


class LowTTLIPv4(IPv4Header):
    def __init__(self, payload: bytes = b"", **fields: int) -> None:
        fields.setdefault("ttl", 1)
        super().__init__(payload, **fields)


class TestCodecHierarchy:
    def test_subclass_without_fields_packs_like_its_parent(self):
        values = dict(ttl=7, protocol=17, src=0x0A000001, dst=0x0A000002)
        header = PlainIPv4(payload=b"data", **values)
        assert header.pack() == IPv4Header(payload=b"data", **values).pack()
        assert PlainIPv4.header_len() == 20
        again = PlainIPv4.unpack(header.pack())
        assert type(again) is PlainIPv4 and again == header

    def test_sub_subclass_with_fields_gets_its_own_layout(self):
        header = ShortHeader(size=0x123, payload=b"!")
        assert header.pack() == b"\x91\x23!"
        assert ShortHeader.header_bits() == 16 and ShortHeader.header_len() == 2
        assert ShortHeader.unpack(b"\x91\x23!") == header
        with pytest.raises(TypeError, match=r"unknown fields for ShortHeader: \['ttl'\]"):
            ShortHeader(ttl=1)
        # The parents keep theirs.
        assert PlainIPv4.header_len() == IPv4Header.header_len() == 20
        assert len(PlainIPv4().pack()) == 20

    def test_subclass_methods_are_kept(self):
        tagged = TaggedIPv4(ttl=9)
        assert tagged.pack() == b"tag" + IPv4Header(ttl=9).pack()
        low = LowTTLIPv4(protocol=1)
        assert low.ttl == 1 and low.protocol == 1
        assert LowTTLIPv4(ttl=5).ttl == 5
        assert LowTTLIPv4.unpack(low.pack()) == low

    def test_unaligned_generated_layout_reports_its_width(self):
        cls = HeaderLayout("odd", [LayoutField("a", 3),
                                   LayoutField("b", 7)]).to_header_class()
        assert cls.header_bits() == 10
        with pytest.raises(ValueError, match=r"OddHeader is not byte aligned \(10 bits\)"):
            cls.header_len()

    def test_field_names_that_are_not_identifiers(self):
        # Diagram labels can canonicalize to a keyword or a leading digit.
        cls = HeaderLayout("labels", [
            LayoutField("from", 4), LayoutField("2nd", 4), LayoutField("class", 8),
            LayoutField("payload_len", 8), LayoutField("fields", 8),
        ]).to_header_class()
        values = {"from": 1, "2nd": 2, "class": 3, "payload_len": 4, "fields": 5}
        header = cls(payload=b"xy", **values)
        assert header.field_values() == values
        assert header.pack() == reference_pack(cls, values, b"xy")
        assert cls.unpack(header.pack()) == header
        with pytest.raises(ValueError, match="field '2nd' value 16 does not fit"):
            cls(**{"2nd": 16})
        with pytest.raises(TypeError, match=r"unknown fields for LabelsHeader: \['to'\]"):
            cls(to=1, **{"from": 99})
        header.__dict__["from"] = "1"
        with pytest.raises(TypeError, match="field 'from' must be an int"):
            header.pack()
