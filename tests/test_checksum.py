"""Unit and property tests for one's-complement checksum arithmetic."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.framework.checksum import (
    incremental_update,
    internet_checksum,
    ones_complement_sum,
    verify_checksum,
)


class TestOnesComplementSum:
    def test_empty(self):
        assert ones_complement_sum(b"") == 0

    def test_single_word(self):
        assert ones_complement_sum(b"\x12\x34") == 0x1234

    def test_two_words(self):
        assert ones_complement_sum(b"\x12\x34\x00\x01") == 0x1235

    def test_carry_folds(self):
        # 0xFFFF + 0x0001 wraps to 0x0001 in one's complement.
        assert ones_complement_sum(b"\xff\xff\x00\x01") == 0x0001

    def test_odd_length_pads_right(self):
        # Trailing byte 0xAB acts as the word 0xAB00.
        assert ones_complement_sum(b"\xab") == 0xAB00

    def test_rfc1071_example(self):
        # The worked example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_result_always_16_bits(self):
        assert 0 <= ones_complement_sum(b"\xff" * 1001) <= 0xFFFF


class TestInternetChecksum:
    def test_all_zeros_checksums_to_ffff(self):
        assert internet_checksum(b"\x00" * 8) == 0xFFFF

    def test_verify_accepts_correct_checksum(self):
        body = b"\x08\x00\x00\x00\x12\x34\x00\x01hello"
        checksum = internet_checksum(body)
        patched = body[:2] + struct.pack("!H", checksum) + body[4:]
        assert verify_checksum(patched)

    def test_verify_rejects_corrupted_data(self):
        body = b"\x08\x00\x00\x00\x12\x34\x00\x01hello"
        checksum = internet_checksum(body)
        patched = bytearray(body[:2] + struct.pack("!H", checksum) + body[4:])
        patched[-1] ^= 0xFF
        assert not verify_checksum(bytes(patched))

    @given(st.binary(min_size=0, max_size=256))
    def test_checksummed_message_always_verifies(self, payload):
        """Inserting the computed checksum always makes the message verify."""
        body = b"\x00\x00" + payload
        checksum = internet_checksum(body)
        message = struct.pack("!H", checksum) + payload
        assert verify_checksum(message)

    @given(st.binary(min_size=2, max_size=64))
    def test_checksum_is_16_bit(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF

    @given(st.binary(min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0))
    def test_zero_checksum_field_convention(self, data):
        """Checksum of even-length data with its checksum appended sums to -0.

        (Only for even lengths: appending to odd-length data shifts word
        alignment, so the padded-alone and concatenated sums differ.)
        """
        checksum = internet_checksum(data)
        combined = data + struct.pack("!H", checksum)
        assert ones_complement_sum(combined) == 0xFFFF


class TestIncrementalUpdate:
    def test_matches_full_recompute_for_single_word_change(self):
        original = bytearray(b"\x08\x00\x00\x00\x12\x34\x00\x01")
        checksum = internet_checksum(bytes(original))
        # Change word at offset 4 (0x1234 -> 0xABCD).
        updated = bytearray(original)
        updated[4:6] = b"\xab\xcd"
        expected = internet_checksum(bytes(updated))
        assert incremental_update(checksum, 0x1234, 0xABCD) == expected

    @given(
        st.binary(min_size=8, max_size=40).filter(lambda b: len(b) % 2 == 0),
        st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_incremental_equals_recompute(self, data, new_word):
        """RFC 1624: patching any aligned word incrementally == full recompute.

        The one excluded case is a patched message summing to (positive)
        zero, where the formula returns the other zero representation —
        RFC 1624 §3's known ±0 ambiguity, impossible for real IP headers.
        """
        offset = 2  # always patch the second word
        old_word = (data[offset] << 8) | data[offset + 1]
        patched = data[:offset] + struct.pack("!H", new_word) + data[offset + 2:]
        if ones_complement_sum(patched) == 0:
            return  # ±0 ambiguity: not reachable with real headers
        checksum = internet_checksum(data)
        assert incremental_update(checksum, old_word, new_word) == internet_checksum(
            patched
        )

    def test_identity_update_has_a_known_quirk_free_form(self):
        # Updating a word to itself must preserve the checksum.
        checksum = internet_checksum(b"\x01\x02\x03\x04")
        assert incremental_update(checksum, 0x0304, 0x0304) == checksum


@pytest.mark.parametrize("length", [0, 1, 2, 3, 20, 21, 64, 1500])
def test_arbitrary_lengths_do_not_crash(length):
    data = bytes(range(256)) * (length // 256 + 1)
    assert 0 <= internet_checksum(data[:length]) <= 0xFFFF


def rfc1071_word_loop(data: bytes) -> int:
    """The RFC 1071 reference: add the 16-bit words, then fold the carries."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


#: Bytes that sit next to the 0x0000/0xFFFF boundaries of one's complement.
EDGE_BYTES = st.lists(st.sampled_from([0x00, 0xFF, 0xFE, 0x01]),
                      max_size=300).map(bytes)


class TestAgainstRFC1071WordLoop:
    @given(st.binary(max_size=300))
    def test_matches_word_loop(self, data):
        assert ones_complement_sum(data) == rfc1071_word_loop(data)

    @given(EDGE_BYTES)
    def test_matches_word_loop_near_the_zeros(self, data):
        assert ones_complement_sum(data) == rfc1071_word_loop(data)

    @pytest.mark.parametrize("data, expected", [
        (b"", 0),
        (bytes(6), 0),
        (b"\xff\xff", 0xFFFF),
        (b"\xff\xff\xff\xff", 0xFFFF),
        (b"\x00\x01\xff\xfe", 0xFFFF),  # a nonzero multiple of 0xFFFF
        (b"\xff", 0xFF00),
        (b"\x80\x00\x80\x00", 0x0001),
        (b"\x00\x01" * 65535, 0xFFFF),
    ], ids=["empty", "zeros", "ffff", "ffff-ffff", "multiple", "odd-ff",
            "carry", "65535-ones"])
    def test_pinned_values(self, data, expected):
        assert ones_complement_sum(data) == expected
        assert rfc1071_word_loop(data) == expected
