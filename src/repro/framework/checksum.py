"""One's-complement arithmetic used by IP-family checksums.

The ICMP RFC specifies: "The checksum is the 16-bit one's complement of the
one's complement sum of the ICMP message starting with the ICMP Type."  This
module provides the primitives that the static framework exposes to generated
code: the folded one's-complement sum, the final checksum, verification, and
the incremental update described in RFC 1624 (which one of the student
checksum misinterpretations in Table 3 uses).
"""

from __future__ import annotations


def ones_complement_sum(data: bytes) -> int:
    """Return the 16-bit one's-complement sum of ``data``.

    Odd-length input is padded on the right with a zero byte, per RFC 1071.
    The result is folded so it always fits in 16 bits.

    Computed in closed form.  Read as one big-endian integer, the padded
    message is ``N = sum(w_i * 2**(16*k_i))`` over its 16-bit words, and
    ``2**16 == 1 (mod 0xFFFF)``, so ``N == S (mod 0xFFFF)`` where ``S`` is
    the plain sum of the words.  An end-around-carry fold keeps the value
    mod 0xFFFF and never turns a positive total into 0, so the folded sum
    is the one value in 1..0xFFFF congruent to ``S`` when ``S > 0`` and 0
    when ``S == 0`` (every byte zero, i.e. ``N == 0``).  Hence it is
    ``N % 0xFFFF``, except that a nonzero multiple of 0xFFFF folds to
    0xFFFF.  Padding a zero byte multiplies ``N`` by 256.
    """
    total = int.from_bytes(data, "big") << 8 * (len(data) & 1)
    return total % 0xFFFF or (0xFFFF if total else 0)


def internet_checksum(data: bytes) -> int:
    """Return the Internet checksum: the complement of the folded sum."""
    return (~ones_complement_sum(data)) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """Return True when ``data`` (checksum field included) sums to 0xFFFF.

    A message whose checksum field holds the correct Internet checksum has a
    one's-complement sum over the whole message of 0xFFFF (i.e. -0).
    """
    return ones_complement_sum(data) == 0xFFFF


def incremental_update(old_checksum: int, old_word: int, new_word: int) -> int:
    """RFC 1624 incremental checksum update for a single 16-bit word.

    Computes ``HC' = ~(~HC + ~m + m')`` in one's-complement arithmetic.  Used
    by routers that rewrite a field (e.g. TTL) without recomputing the whole
    checksum, and by one of the faulty student interpretations (Table 3,
    index 6) that incrementally patches a reply checksum from the request.

    Caveat (RFC 1624 §3): when the updated message sums to zero, the formula
    yields the negative-zero representation (checksum 0x0000) where a full
    recompute yields 0xFFFF.  Real IP headers never sum to zero (the version
    field is nonzero), so the case does not arise in the datapath.
    """
    total = (~old_checksum & 0xFFFF) + (~old_word & 0xFFFF) + (new_word & 0xFFFF)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF
