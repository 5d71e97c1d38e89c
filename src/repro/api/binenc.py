"""The compact binary wire envelope (``schema:1b``).

``schema:1`` (:mod:`repro.api.contracts`) is JSON: self-describing,
greppable, and the right default for small payloads.  Bulk payloads — a
full :class:`~repro.core.results.SageRun`, a sweep response, the persistent
parse-cache entries — pay JSON twice: the bytes (every ``"t": "call"`` key
repeated tens of thousands of times) and the time (every semantic term
built through an intermediate dict).  ``schema:1b`` is the binary sibling:

* **length-prefixed** — every string, list, and argument vector carries a
  LEB128 count up front; no scanning, no delimiters, no escaping;
* **string-interned** — the first occurrence of a string is written once,
  every repeat is a small back-reference (predicate names, field names,
  and status strings dominate pipeline payloads);
* **structure-shared** — semantic terms are encoded by object identity:
  a term the producer shares (winnow survivors are literally members of
  the base-form list; the indexed parser hash-conses repeated sub-terms)
  is written once and back-referenced, which is both the size and the
  speed win — the codec visits each distinct node once;
* **direct** — the hot contract types (SageRun, SentenceResult,
  WinnowTrace, logical forms) encode straight from their objects and
  decode straight back, skipping the dict round-trip entirely.  Cooler
  types (requests, reports, artifacts, the IR program) reuse their JSON
  dict forms under a generic value codec, so *every* ``schema:1`` kind
  round-trips through ``schema:1b`` losslessly.  Both are read off the
  same per-kind field tables as JSON (:mod:`repro.api.schema`); this
  module holds the wire primitives the tables write through.

:func:`to_bytes` / :func:`from_bytes` mirror ``to_json`` / ``from_json``
exactly — same kinds, same registry resolution, same structured errors —
and ``from_bytes(to_bytes(x)) == from_json(to_json(x))`` is gated in
``benchmarks/pipeline_smoke.py`` and property-locked in
``tests/test_binenc.py``.  The persistent cache layer
(:mod:`repro.cache.persistent`) reuses the same primitives for on-disk
parse, winnow and run entries via :func:`parse_entry_to_bytes` /
:func:`parse_entry_from_bytes`, :func:`winnow_entry_to_bytes` /
:func:`winnow_entry_from_bytes` and :func:`run_entry_to_bytes` /
:func:`run_entry_from_bytes`.
"""

from __future__ import annotations

import struct
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING

from ..ccg.semantics import App, Call, Const, Lam, Sem, Var
from .contracts import (
    SAGE_RUN,
    STORED_RUN,
    TRACE,
    codec_named,
    codec_of,
    decoding,
)
from .errors import ContractError, EnvelopeDecodeError
from .schema import (
    BOOL,
    SEM,
    STR,
    UINT,
    Field,
    ListOf,
    Record,
    _EMPTY_FLAGS,
    _new_app,
    _new_call,
    _new_const,
    _new_lam,
    _new_var,
)

if TYPE_CHECKING:
    from ..ccg.chart import ParseResult

#: The wire schema tag this module writes and reads (JSON's ``schema:1``
#: sibling; the magic below is its byte-level spelling).
SCHEMA_1B = "1b"

#: Every payload starts with these four bytes: "R" "1" "B" + format 0x01.
MAGIC = b"R1B\x01"

# -- value tags ----------------------------------------------------------------
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3       # zigzag varint
_T_FLOAT = 4     # 8-byte IEEE double
_T_SNEW = 5      # varint byte-length + utf-8, assigned the next intern index
_T_SREF = 6      # varint intern index
_T_LIST = 7      # varint count + values
_T_DICT = 8      # varint count + (string key, value) pairs
# semantic terms
_T_CONST = 16
_T_CONST_SPAN = 17
_T_VAR = 18
_T_LAM = 19
_T_APP = 20
_T_CALL = 21     # aux byte: bit0 trigger, bit1 flags
_T_SEM_REF = 22  # varint node index (preorder assignment)
# Record tags (32+) are declared with their field tables: sage_run 32,
# sentence_result 33, winnow_trace 34, spec_sentence 35, rewrite 36,
# sentence_code 37 (repro.api.contracts) and parse_entry 48 (below).

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from


# -- the writer ----------------------------------------------------------------

class _Writer:
    def __init__(self) -> None:
        self.buf = bytearray(MAGIC)
        self._strings: dict[str, int] = {}
        self._sems: dict[int, int] = {}
        #: Keeps every encoded term alive for the writer's lifetime so the
        #: id()-keyed memo can never collide with a recycled address.
        self._sem_refs: list[Sem] = []

    def varint(self, n: int) -> None:
        buf = self.buf
        while n > 0x7F:
            buf.append((n & 0x7F) | 0x80)
            n >>= 7
        buf.append(n)

    def string(self, s: str) -> None:
        index = self._strings.get(s)
        if index is None:
            self._strings[s] = len(self._strings)
            raw = s.encode("utf-8")
            self.buf.append(_T_SNEW)
            self.varint(len(raw))
            self.buf += raw
        else:
            self.buf.append(_T_SREF)
            self.varint(index)

    def integer(self, n: int) -> None:
        self.buf.append(_T_INT)
        self.varint((n << 1) ^ (n >> 63) if n >= -(1 << 62) else -(n << 1) - 1)

    def sem(self, term: Sem) -> None:
        memo = self._sems
        index = memo.get(id(term))
        if index is not None:
            self.buf.append(_T_SEM_REF)
            self.varint(index)
            return
        # Preorder index assignment (children get subsequent indices); the
        # reader reserves slots in the same order.  Terms are acyclic, so a
        # back-reference always names a completed node.
        memo[id(term)] = len(memo)
        self._sem_refs.append(term)
        kind = type(term)
        if kind is Call:
            trigger = term.trigger
            flags = term.flags
            self.buf.append(_T_CALL)
            self.buf.append((1 if trigger is not None else 0)
                            | (2 if flags else 0))
            self.string(term.pred)
            args = term.args
            self.varint(len(args))
            for arg in args:
                self.sem(arg)
            if trigger is not None:
                self.varint((trigger << 1) ^ (trigger >> 63))
            if flags:
                ordered = sorted(flags)
                self.varint(len(ordered))
                for flag in ordered:
                    self.string(flag)
        elif kind is Const:
            span = term.span
            if span is None:
                self.buf.append(_T_CONST)
                self.string(term.value)
            else:
                self.buf.append(_T_CONST_SPAN)
                self.string(term.value)
                self.varint(span[0])
                self.varint(span[1])
        elif kind is Var:
            self.buf.append(_T_VAR)
            self.string(term.name)
        elif kind is Lam:
            self.buf.append(_T_LAM)
            self.string(term.param)
            self.sem(term.body)
        elif kind is App:
            self.buf.append(_T_APP)
            self.sem(term.fn)
            self.sem(term.arg)
        else:
            raise ContractError(
                f"cannot serialize semantic term {kind.__name__}"
            )

    def value(self, obj) -> None:
        """The generic codec: any JSON-safe value, plus embedded Sem terms."""
        if obj is None:
            self.buf.append(_T_NONE)
        elif obj is True:
            self.buf.append(_T_TRUE)
        elif obj is False:
            self.buf.append(_T_FALSE)
        elif type(obj) is str:
            self.string(obj)
        elif type(obj) is int:
            self.integer(obj)
        elif type(obj) is float:
            self.buf.append(_T_FLOAT)
            self.buf += _pack_double(obj)
        elif type(obj) is list or type(obj) is tuple:
            self.buf.append(_T_LIST)
            self.varint(len(obj))
            for item in obj:
                self.value(item)
        elif type(obj) is dict:
            self.buf.append(_T_DICT)
            self.varint(len(obj))
            for key, item in obj.items():
                self.string(key)
                self.value(item)
        elif isinstance(obj, Sem):
            self.sem(obj)
        elif isinstance(obj, bool):
            self.buf.append(_T_TRUE if obj else _T_FALSE)
        elif isinstance(obj, int):
            self.integer(obj)
        elif isinstance(obj, str):
            self.string(obj)
        else:
            raise ContractError(
                f"schema:1b cannot encode {type(obj).__name__} values"
            )


# -- the reader ----------------------------------------------------------------

class _Reader:
    """Decodes what :class:`_Writer` wrote — without ever trusting it.

    Every length prefix and element count comes off the wire, so each one
    is bounds-checked against the bytes that could possibly back it before
    it sizes a read or drives a loop: a malformed (or malicious) frame
    raises :class:`~repro.api.errors.EnvelopeDecodeError` instead of
    producing an oversized allocation or a silently-truncated value.
    """

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = len(MAGIC)
        self.strings: list[str] = []
        self.sems: list = []

    def varint(self) -> int:
        data = self.data
        pos = self.pos
        result = 0
        shift = 0
        while True:
            try:
                byte = data[pos]
            except IndexError:
                raise EnvelopeDecodeError(
                    "varint runs past the end of the payload"
                ) from None
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift > 63:
                # The writer never emits more than 64 bits; continuation
                # bytes past that are garbage and would otherwise build an
                # arbitrarily large int from wire input.
                raise EnvelopeDecodeError("varint exceeds 64 bits")
        self.pos = pos
        return result

    def _bounded(self, what: str) -> int:
        """A varint length/count that must fit the remaining payload.

        Strings need exactly this many bytes; list/arg/field counts cost
        at least one byte per element.  Either way a prefix larger than
        what remains can only come from a corrupt or hostile frame, and
        must fail *before* it sizes an allocation or a loop.
        """
        n = self.varint()
        remaining = len(self.data) - self.pos
        if n > remaining:
            raise EnvelopeDecodeError(
                f"{what} {n} exceeds the {remaining} bytes remaining"
            )
        return n

    def _zigzag(self) -> int:
        raw = self.varint()
        return (raw >> 1) ^ -(raw & 1)

    def string(self) -> str:
        tag = self.data[self.pos]
        self.pos += 1
        if tag == _T_SREF:
            index = self.varint()
            try:
                return self.strings[index]
            except IndexError:
                raise EnvelopeDecodeError(
                    f"string back-reference {index} names an intern slot "
                    f"that does not exist yet ({len(self.strings)} interned)"
                ) from None
        if tag != _T_SNEW:
            raise ContractError(f"expected a string, found tag {tag}")
        length = self._bounded("string length")
        raw = self.data[self.pos:self.pos + length]
        self.pos += length
        text = raw.decode("utf-8")
        self.strings.append(text)
        return text

    def sem(self) -> Sem:
        data = self.data
        tag = data[self.pos]
        self.pos += 1
        if tag == _T_SEM_REF:
            index = self.varint()
            try:
                return self.sems[index]
            except IndexError:
                raise EnvelopeDecodeError(
                    f"term back-reference {index} names a node that does "
                    f"not exist yet ({len(self.sems)} decoded)"
                ) from None
        nodes = self.sems
        index = len(nodes)
        nodes.append(None)  # reserve the preorder slot before the children
        if tag == _T_CALL:
            aux = data[self.pos]
            self.pos += 1
            pred = self.string()
            count = self._bounded("argument count")
            args = tuple([self.sem() for _ in range(count)])
            trigger = self._zigzag() if aux & 1 else None
            if aux & 2:
                flags = frozenset(self.string()
                                  for _ in range(self._bounded("flag count")))
            else:
                flags = _EMPTY_FLAGS
            term = _new_call(pred, args, trigger, flags)
        elif tag == _T_CONST:
            term = _new_const(self.string(), None)
        elif tag == _T_CONST_SPAN:
            value = self.string()
            term = _new_const(value, (self.varint(), self.varint()))
        elif tag == _T_VAR:
            term = _new_var(self.string())
        elif tag == _T_LAM:
            term = _new_lam(self.string(), self.sem())
        elif tag == _T_APP:
            term = _new_app(self.sem(), self.sem())
        else:
            raise ContractError(f"unknown semantic term tag {tag}")
        nodes[index] = term
        return term

    def value(self):
        data = self.data
        tag = data[self.pos]
        self.pos += 1
        if tag == _T_SNEW or tag == _T_SREF:
            self.pos -= 1
            return self.string()
        if tag == _T_INT:
            return self._zigzag()
        if tag == _T_LIST:
            return [self.value() for _ in range(self._bounded("list count"))]
        if tag == _T_DICT:
            return {self.string(): self.value()
                    for _ in range(self._bounded("dict count"))}
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_FLOAT:
            if len(data) - self.pos < 8:
                raise EnvelopeDecodeError("float runs past the payload end")
            result = _unpack_double(data, self.pos)[0]
            self.pos += 8
            return result
        self.pos -= 1
        return self.sem()


# -- the entry points ----------------------------------------------------------

def to_bytes(obj, registry=None) -> bytes:
    """Serialize any wire-contract object under the ``schema:1b`` envelope.

    Mirrors :func:`repro.api.contracts.to_json`: same kinds, same field
    tables, same registry resolution, same :class:`ContractError` on
    unserializable objects.
    """
    codec = codec_of(obj)
    return _encode(codec, obj, registry, codec.kind)


def _encode(codec, obj, registry=None, kind: str = "") -> bytes:
    writer = _Writer()
    if kind:
        writer.string(kind)
    codec.write(writer, obj, registry)
    return bytes(writer.buf)


def from_bytes(data: bytes, registry=None):
    """Deserialize any payload produced by :func:`to_bytes`."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ContractError(
            f"expected a schema:1b byte payload, got {type(data).__name__}"
        )
    data = bytes(data)
    if data[:len(MAGIC)] != MAGIC:
        raise ContractError(
            "payload does not start with the schema:1b magic "
            f"{MAGIC!r} (is this a schema:1 JSON payload?)"
        )
    reader = _Reader(data)
    return decoding("schema:1b", lambda: codec_named(reader.string()).read(
        reader, registry), EnvelopeDecodeError)


# -- persistent cache entries --------------------------------------------------
# The store's values, with full provenance (spans, triggers, flags) so a
# disk-warmed pipeline run is byte-identical to a cold one.

@cache
def _parse_entry() -> Record:
    """One parse-cache value: the ``(ParseResult, subject_supplied)`` pair
    the parse stage stores.  Built on first use: the chart module it
    names is not needed by anything that only reads runs."""
    from ..ccg.chart import ParseResult

    return Record("parse_entry", ParseResult, [
        Field("subject_supplied", BOOL),
        Field("backend", STR),
        Field("token_count", UINT),
        Field("cells_filled", UINT),
        Field("dropped_items", UINT),
        Field("unknown_words", ListOf(STR)),
        Field("logical_forms", ListOf(SEM)),
    ], tag=48, aux=("subject_supplied",),
       make=lambda subject_supplied, **fields: (ParseResult(**fields),
                                                subject_supplied))


def parse_entry_to_bytes(result: ParseResult, subject_supplied: bool) -> bytes:
    return _encode(_parse_entry(), SimpleNamespace(
        **vars(result), subject_supplied=subject_supplied))


def parse_entry_from_bytes(data: bytes) -> tuple[ParseResult, bool]:
    return _entry(data, _parse_entry(), "parse entry")


def winnow_entry_to_bytes(trace) -> bytes:
    """One winnow-cache value: the whole :class:`~repro.disambiguation.
    winnow.WinnowTrace` (per-stage counts, base forms, survivors), so a
    disk-warmed winnow stage replays byte-identical traces."""
    return _encode(TRACE, trace)


def winnow_entry_from_bytes(data: bytes):
    return _entry(data, TRACE, "winnow entry")


def run_entry_to_bytes(run, registry) -> bytes:
    """One run-layer value: a whole :class:`~repro.core.results.SageRun`
    (the ``sage_run`` table, tag 32), its corpus by reference into
    ``registry``."""
    return _encode(SAGE_RUN, run, registry)


def run_entry_from_bytes(data: bytes, registry):
    """The run a :func:`run_entry_to_bytes` entry holds, its sentence codes
    and code unit left in their JSON form: each is typed, and the program
    fingerprint verified, on its first read (``STORED_RUN``)."""
    return _entry(data, STORED_RUN, "run entry", registry)


def _entry(data: bytes, record: Record, what: str, registry=None):
    data = bytes(data)
    if data[:len(MAGIC)] != MAGIC:
        raise ContractError(f"not a schema:1b {what} (bad magic)")
    reader = _Reader(data)
    return decoding(what, lambda: record.read(reader, registry),
                    EnvelopeDecodeError)
