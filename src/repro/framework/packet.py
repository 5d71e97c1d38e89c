"""Declarative wire-format header codec.

Each protocol header is described as an ordered sequence of bit-aligned
fields; :class:`Header` subclasses pack and unpack themselves to network
byte order.  This plays the role of the C structs that SAGE's header-struct
extraction stage generates from RFC ASCII art; `repro.rfc.header_diagram`
produces :class:`HeaderLayout` objects compatible with this module, so the
struct used on the wire is literally derived from the RFC drawing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(frozen=True)
class FieldSpec:
    """One fixed-width header field.

    ``bits`` is the width on the wire; fields need not be byte aligned
    (e.g. IPv4 version/IHL are two 4-bit fields) but every header's total
    width must be a whole number of bytes.
    """

    name: str
    bits: int
    default: int = 0

    def __post_init__(self) -> None:
        if self.bits <= 0 or self.bits > 128:
            raise ValueError(f"field {self.name!r} has unsupported width {self.bits}")

    @property
    def max_value(self) -> int:
        return (1 << self.bits) - 1


class Header:
    """Base class for fixed-layout protocol headers with a byte payload.

    Subclasses define ``FIELDS`` (a tuple of :class:`FieldSpec`).  Instances
    carry one attribute per field plus ``payload`` (bytes following the fixed
    header).  Packing is big-endian bit-by-bit, so arbitrary sub-byte fields
    compose correctly.

    Each class compiles its layout once, when it is defined
    (:meth:`__init_subclass__`, which also covers classes built by
    :meth:`HeaderLayout.to_header_class`): the field-name set, one
    ``(name, shift, mask, spec)`` entry per field, and the total bit and
    byte lengths.  ``unpack`` needs nothing else; ``__init__`` and ``pack``
    take an exact-``int`` fast path and hand anything else (bools, other
    types, out-of-range values) to :meth:`_check_range`, so every check
    raises as it always has.
    """

    FIELDS: tuple[FieldSpec, ...] = ()

    #: Compiled layout (see the class docstring); rebuilt per subclass.
    _NAMES: frozenset = frozenset()
    _LAYOUT: tuple[tuple[str, int, int, FieldSpec], ...] = ()
    _BITS = 0
    #: Header length in bytes, or None when the layout is not byte aligned.
    _LENGTH: int | None = 0

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        bits = sum(spec.bits for spec in cls.FIELDS)
        layout = []
        shift = bits
        for spec in cls.FIELDS:
            shift -= spec.bits
            layout.append((spec.name, shift, spec.max_value, spec))
        cls._NAMES = frozenset(spec.name for spec in cls.FIELDS)
        cls._LAYOUT = tuple(layout)
        cls._BITS = bits
        cls._LENGTH = None if bits % 8 else bits // 8

    def __init__(self, payload: bytes = b"", **fields: int) -> None:
        if not self._NAMES.issuperset(fields):
            unknown = set(fields) - self._NAMES
            raise TypeError(f"unknown fields for {type(self).__name__}: {sorted(unknown)}")
        for name, _shift, mask, spec in self._LAYOUT:
            value = fields.get(name, spec.default)
            if type(value) is not int or not 0 <= value <= mask:
                self._check_range(spec, value)
            setattr(self, name, value)
        self.payload = bytes(payload)

    @staticmethod
    def _check_range(spec: FieldSpec, value: int) -> None:
        if not isinstance(value, int):
            raise TypeError(f"field {spec.name!r} must be an int, got {type(value).__name__}")
        if not 0 <= value <= spec.max_value:
            raise ValueError(
                f"field {spec.name!r} value {value} does not fit in {spec.bits} bits"
            )

    @classmethod
    def header_bits(cls) -> int:
        return cls._BITS

    @classmethod
    def header_len(cls) -> int:
        if cls._LENGTH is None:
            raise ValueError(f"{cls.__name__} is not byte aligned ({cls._BITS} bits)")
        return cls._LENGTH

    def field_values(self) -> dict[str, int]:
        return {spec.name: getattr(self, spec.name) for spec in self.FIELDS}

    def pack(self) -> bytes:
        """Serialize the header fields followed by the payload."""
        accumulator = 0
        for name, shift, mask, spec in self._LAYOUT:
            value = getattr(self, name)
            if type(value) is not int or not 0 <= value <= mask:
                self._check_range(spec, value)
            accumulator |= value << shift
        return accumulator.to_bytes(self.header_len(), "big") + self.payload

    @classmethod
    def unpack(cls, data: bytes) -> "Header":
        """Parse ``data`` into a header instance; trailing bytes form payload.

        Every field comes out of the mask in range, so the instance is
        filled directly instead of going back through ``__init__``.
        """
        length = cls.header_len()
        if len(data) < length:
            raise ValueError(
                f"truncated {cls.__name__}: need {length} bytes, got {len(data)}"
            )
        accumulator = int.from_bytes(data[:length], "big")
        header = cls.__new__(cls)
        for name, shift, mask, _spec in cls._LAYOUT:
            setattr(header, name, (accumulator >> shift) & mask)
        header.payload = bytes(data[length:])
        return header

    def copy(self) -> "Header":
        return type(self)(payload=self.payload, **self.field_values())

    def __len__(self) -> int:
        return self.header_len() + len(self.payload)

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.field_values() == other.field_values() and self.payload == other.payload

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value}" for name, value in self.field_values().items())
        return f"{type(self).__name__}({fields}, payload={len(self.payload)}B)"


@dataclass(frozen=True)
class LayoutField:
    """A field recovered from an RFC ASCII-art header diagram."""

    name: str
    bits: int


@dataclass
class HeaderLayout:
    """A header layout extracted from an RFC drawing.

    ``to_header_class`` materializes a :class:`Header` subclass, which is the
    Python analogue of the C struct SAGE emits for each packet format.
    """

    protocol: str
    fields: list[LayoutField]

    def total_bits(self) -> int:
        return sum(field.bits for field in self.fields)

    def field_names(self) -> list[str]:
        return [field.name for field in self.fields]

    def iter_offsets(self) -> Iterator[tuple[LayoutField, int]]:
        """Yield (field, bit offset from header start) pairs."""
        offset = 0
        for field in self.fields:
            yield field, offset
            offset += field.bits

    def to_header_class(self) -> type[Header]:
        specs = tuple(FieldSpec(field.name, field.bits) for field in self.fields)
        name = "".join(part.capitalize() for part in self.protocol.split("_")) + "Header"
        return type(name, (Header,), {"FIELDS": specs})

    def to_c_struct(self) -> str:
        """Render the layout as the C struct SAGE's paper pipeline emits."""
        lines = [f"struct {self.protocol.lower()}_hdr {{"]
        for field in self.fields:
            c_name = field.name.lower().replace(" ", "_")
            if field.bits in (8, 16, 32, 64):
                lines.append(f"    uint{field.bits}_t {c_name};")
            else:
                base = 8 if field.bits < 8 else 16 if field.bits < 16 else 32
                lines.append(f"    uint{base}_t {c_name} : {field.bits};")
        lines.append("};")
        return "\n".join(lines)
