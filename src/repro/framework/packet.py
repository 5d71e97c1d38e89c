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
from keyword import iskeyword
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


def _plain(name: str) -> bool:
    """Whether codec source may spell field ``name`` as an ``__init__``
    parameter and an attribute: it must not shadow ``self``, ``payload``,
    ``fields`` or the private globals the source reads."""
    return (name.isidentifier() and not iskeyword(name) and name[0] != "_"
            and name not in ("self", "payload", "fields"))


def _unknown(header: "Header", fields: dict) -> None:
    raise TypeError(f"unknown fields for {type(header).__name__}: {sorted(fields)}")


class Header:
    """Base class for fixed-layout protocol headers with a byte payload.

    Subclasses define ``FIELDS`` (a tuple of :class:`FieldSpec`).  Instances
    carry one attribute per field plus ``payload`` (bytes following the fixed
    header).  Packing is big-endian bit-by-bit, so arbitrary sub-byte fields
    compose correctly.

    A class that defines ``FIELDS`` generates its codec when it is defined
    (also via :meth:`HeaderLayout.to_header_class`): straight-line
    ``__init__``, ``pack``, ``pack_fields`` (``pack`` without the payload)
    and ``unpack`` with every shift, mask and the byte length as constants,
    compiled as ``<header-codec Name>``.  Each field
    takes an exact-``int`` fast path and hands anything else (bools, other
    types, out-of-range values) to :meth:`_check_range`, so every check
    raises as it always has.  A method the class defines itself is kept; a
    subclass that does not redefine ``FIELDS`` inherits the codec (so an
    override's ``super()`` call encodes its parent's layout).
    """

    FIELDS: tuple[FieldSpec, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "FIELDS" in cls.__dict__:
            cls._compile_codec()

    @classmethod
    def _compile_codec(cls) -> None:
        bits = sum(spec.bits for spec in cls.FIELDS)
        # _LENGTH is the byte length, or None when not byte aligned.
        cls._BITS, cls._LENGTH = bits, None if bits % 8 else bits // 8
        size = str(cls._LENGTH) if cls._LENGTH is not None else "{}.header_len()"
        params = "".join(f"{spec.name}={spec.default!r}, "
                         for spec in cls.FIELDS if _plain(spec.name))
        init = [f"def __init__(self, payload=b'', {'*, ' if params else ''}{params}**fields):"]
        init += [f"    _v{i} = fields.pop({spec.name!r}, {spec.default!r})"
                 for i, spec in enumerate(cls.FIELDS) if not _plain(spec.name)]
        init += ["    if fields:", "        _unknown(self, fields)"]
        fixed, words = [], []
        unpack = ["def unpack(cls, data):", f"    if len(data) < {size.format('cls')}:",
                  "        raise ValueError(f'truncated {cls.__name__}: need "
                  "{cls.header_len()} bytes, got {len(data)}')",
                  f"    word = int.from_bytes(data[:{size.format('cls')}], 'big')",
                  "    header = cls.__new__(cls)"]
        check = ("    if _type({0}) is not _int or not 0 <= {0} <= {1}:\n"
                 "        self._check_range(_specs[{2}], {0})")
        for i, spec in enumerate(cls.FIELDS):
            bits -= spec.bits
            attr = f".{spec.name}" if _plain(spec.name) else f".__dict__[{spec.name!r}]"
            value = spec.name if _plain(spec.name) else f"_v{i}"
            init += [check.format(value, spec.max_value, i), f"    self{attr} = {value}"]
            fixed += [f"    _v{i} = self{attr}", check.format(f"_v{i}", spec.max_value, i)]
            words.append(f"_v{i} << {bits}")
            unpack.append(f"    header{attr} = word >> {bits} & {spec.max_value}")
        init.append("    self.payload = _bytes(payload)")
        fixed.append(f"    return ({' | '.join(words) or '0'}).to_bytes("
                     f"{size.format('self')}, 'big')")
        pack = ["def pack(self):", *fixed[:-1], fixed[-1] + " + self.payload",
                "def pack_fields(self):", *fixed]
        unpack += [f"    header.payload = bytes(data[{size.format('cls')}:])", "    return header"]
        namespace = {"_specs": cls.FIELDS, "_unknown": _unknown, "_type": type,
                     "_int": int, "_bytes": bytes}
        source = "\n".join(init + pack + unpack)
        exec(compile(source, f"<header-codec {cls.__name__}>", "exec"), namespace)
        for name in ("__init__", "pack", "pack_fields", "unpack"):
            function = namespace[name]
            function.__qualname__ = f"{cls.__qualname__}.{name}"
            if name not in cls.__dict__:
                setattr(cls, name, classmethod(function) if name == "unpack" else function)

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


Header._compile_codec()


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
