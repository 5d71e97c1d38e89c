"""Declarative wire schemas: one field table per record kind.

Every record that crosses a process boundary — the CLI's ``--json``
output, an HTTP body, a persistent cache entry — is declared exactly once,
as a :class:`Record`: an ordered table of :class:`Field` rows, each naming
the field's type codec, its default and its omission rule.  The codegen
IR's values, conditions and ops are tables too; :class:`Tagged` picks an
op's table from its ``"op"`` key.  Two small interpreters read the table:

* :meth:`Record.enc` / :meth:`Record.dec` — the ``schema:1`` JSON dict.
  Keys come out in table order; an ``omit`` row is left out while it holds
  its default; decoding type-checks every field, fills defaults, and
  rejects a missing required field, raising the table's ``error`` class;
* :meth:`Record.write` / :meth:`Record.read` — ``schema:1b``
  (:mod:`repro.api.binenc`).  A record with a binary ``tag`` writes the tag,
  then an ``aux`` bitmask when the table declares one (a boolean flag sets
  its bit when true; any other aux field sets its bit when present and is
  written only then), then each field in ``binary`` order.  A record
  without a tag is written as its JSON dict under the generic value codec.

Logical forms (:class:`~repro.ccg.semantics.Sem` terms) have one JSON
encoder, :func:`sem_node_record`, and one decoder, :func:`sem_node`
(a fresh hook per payload from :func:`sem_decoder`);
:func:`sem_to_dict` and :func:`sem_from_dict` are their eager spellings.
"""

from __future__ import annotations

import json
from functools import partial
from operator import attrgetter, eq, not_

from ..ccg.semantics import App, Call, Const, Lam, Sem, Var
from .errors import ContractError

#: Marks a field with no default: decoding fails when it is missing.
REQUIRED = object()
#: Stands for the record being declared (for self-recursive fields).
SELF = object()
_MISSING = object()
_EMPTY_FLAGS = frozenset()


class _Mistyped(TypeError):
    """A decoded field value of the wrong JSON type."""


# -- logical forms -------------------------------------------------------------
# The semantic term classes are frozen dataclasses: their __init__ routes
# every field through object.__setattr__, which the decode hot loops pay
# tens of thousands of times per payload.  They have no __post_init__ and
# no slots, so building via __new__ + direct __dict__ fill is
# behavior-identical (__eq__/__hash__ read attributes) and much cheaper.

def _new_const(value, span):
    term = Const.__new__(Const)
    d = term.__dict__
    d["value"] = value
    d["span"] = span
    return term


def _new_var(name):
    term = Var.__new__(Var)
    term.__dict__["name"] = name
    return term


def _new_lam(param, body):
    term = Lam.__new__(Lam)
    d = term.__dict__
    d["param"] = param
    d["body"] = body
    return term


def _new_app(fn, arg):
    term = App.__new__(App)
    d = term.__dict__
    d["fn"] = fn
    d["arg"] = arg
    return term


def _new_call(pred, args, trigger, flags):
    term = Call.__new__(Call)
    d = term.__dict__
    d["pred"] = pred
    d["args"] = args
    d["trigger"] = trigger
    d["flags"] = flags
    return term


def sem_node_record(obj):
    """``json.dumps`` default hook: one Sem node as its wire dict, children
    left raw for the serializer itself to recurse into.

    Encoding this way — instead of pre-building the whole nested dict tree
    and having ``dumps`` re-walk it — visits every term node once, which
    roughly halves serialization time on LF-heavy payloads (a bulk run
    carries tens of thousands of term nodes).
    """
    if isinstance(obj, Const):
        if obj.span is not None:
            return {"t": "const", "value": obj.value, "span": list(obj.span)}
        return {"t": "const", "value": obj.value}
    if isinstance(obj, Call):
        record = {"t": "call", "pred": obj.pred, "args": list(obj.args)}
        if obj.trigger is not None:
            record["trigger"] = obj.trigger
        if obj.flags:
            record["flags"] = sorted(obj.flags)
        return record
    if isinstance(obj, Var):
        return {"t": "var", "name": obj.name}
    if isinstance(obj, Lam):
        return {"t": "lam", "param": obj.param, "body": obj.body}
    if isinstance(obj, App):
        return {"t": "app", "fn": obj.fn, "arg": obj.arg}
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable"
    )


def sem_decoder():
    """A fresh ``json.loads`` object hook: :func:`sem_node` over its own
    memo of const terms, to be used for one payload."""
    return partial(sem_node, {})


def sem_node(consts: dict, record: dict):
    """Object hook converting semantic-term records to :class:`Sem`
    objects *during* the C-level parse.

    The hook fires bottom-up — by the time a ``call`` record reaches it,
    its ``args`` entries are already Sem objects — so decoding skips the
    recursive dict walk entirely.  Terms are immutable, so a ``const``
    record repeated within one payload decodes to one shared object from
    ``consts``: an LF-heavy payload repeats most of its leaves (the ICMP
    run's 4.0k const records hold 155 distinct ones), and a dictionary
    probe is cheaper than building a node.  Anything that is not a
    well-formed term record passes through unchanged and the field codecs
    reject it with their structured errors; a stray non-term dict that
    happens to carry a ``"t"`` key is left alone unless it also carries
    the full field set of a term.
    """
    tag = record.get("t")
    if tag == "const":
        value = record.get("value", _MISSING)
        span = record.get("span")
        if value is _MISSING or (span is not None and type(span) is not list):
            return record
        span = tuple(span) if span else None
        if type(value) is not str:
            return _new_const(value, span)
        try:
            term = consts.get((value, span))
        except TypeError:  # a malformed span: build, never share
            return _new_const(value, span)
        if term is None:
            term = consts[value, span] = _new_const(value, span)
        return term
    if tag == "call":
        pred = record.get("pred")
        args = record.get("args") or ()
        trigger = record.get("trigger")
        if type(pred) is not str or (trigger is not None
                                     and type(trigger) is not int):
            return record
        for item in args:
            if not isinstance(item, Sem):
                return record
        flags = record.get("flags")
        return _new_call(pred, tuple(args), trigger,
                         frozenset(flags) if flags else _EMPTY_FLAGS)
    if tag == "var":
        name = record.get("name")
        return _new_var(name) if type(name) is str else record
    if tag == "lam":
        param = record.get("param")
        body = record.get("body")
        if type(param) is not str or not isinstance(body, Sem):
            return record
        return _new_lam(param, body)
    if tag == "app":
        fn = record.get("fn")
        arg = record.get("arg")
        if not isinstance(fn, Sem) or not isinstance(arg, Sem):
            return record
        return _new_app(fn, arg)
    return record


def sem_to_dict(term: Sem) -> dict:
    """One semantic term as a JSON-safe dict (provenance included)."""
    if not isinstance(term, Sem):
        raise ContractError(
            f"cannot serialize semantic term {type(term).__name__}"
        )
    return json.loads(json.dumps(term, default=sem_node_record))


def sem_from_dict(record) -> Sem:
    """The term a :func:`sem_to_dict` record describes."""
    term = json.loads(json.dumps(record, default=sem_node_record),
                      object_hook=sem_decoder())
    if not isinstance(term, Sem):
        raise ContractError(f"malformed semantic term record: {record!r}")
    return term


# -- field codecs --------------------------------------------------------------
# A codec renders one field value: ``enc``/``dec`` to and from its JSON
# form, ``write``/``read`` to and from schema:1b (``w``/``r`` are binenc's
# bounds-checked writer and reader).  ``reg`` is the protocol registry (or
# None for the default one), threaded through for corpus references.  An
# ``identity`` codec's JSON form is the value itself, so it has no ``enc``:
# every caller checks ``identity`` first.

class Scalar:
    """A JSON scalar of exactly one Python type, optionally restricted to
    ``choices``.  In schema:1b a ``str`` is an interned string and an
    ``int`` an unsigned varint; a ``bool`` travels only as an aux bit."""

    identity = True

    def __init__(self, type_: type, choices: tuple = ()) -> None:
        self.type = type_
        self.choices = choices

    def dec(self, raw, reg):
        if type(raw) is not self.type:
            raise _Mistyped(f"expected {self.type.__name__}, "
                            f"got {type(raw).__name__}")
        if self.choices and raw not in self.choices:
            raise _Mistyped(f"unknown value {raw!r}: expected one of "
                            f"{', '.join(self.choices)}")
        return raw

    def write(self, w, value, reg) -> None:
        if self.type is str:
            w.string(value)
        else:
            w.varint(value)

    def read(self, r, reg):
        return r.string() if self.type is str else r.varint()


STR = Scalar(str)
UINT = Scalar(int)
BOOL = Scalar(bool)


class _SemCodec:
    identity = True  # JSON: the raw term, rendered by sem_node_record

    def dec(self, raw, reg):
        return raw if isinstance(raw, Sem) else sem_from_dict(raw)

    def write(self, w, value, reg) -> None:
        w.sem(value)

    def read(self, r, reg):
        return r.sem()


SEM = _SemCodec()


class JsonValue:
    """A JSON value of one type.  Opaque by default (decoded as a copy,
    never walked); ``to_json``/``from_json`` convert to and from its JSON
    form (a status enum, a corpus reference, an op list).  schema:1b
    writes the JSON form under the generic value codec."""

    def __init__(self, type_: type, to_json=None, from_json=None) -> None:
        self.type = type_
        self.identity = to_json is None
        self.to_json = to_json
        self.from_json = from_json or type_

    def enc(self, value, reg):
        return value if self.identity else self.to_json(value)

    def dec(self, raw, reg):
        if type(raw) is not self.type:
            raise _Mistyped(f"expected a JSON {self.type.__name__}, "
                            f"got {type(raw).__name__}")
        return self.from_json(raw)

    def write(self, w, value, reg) -> None:
        w.value(self.enc(value, reg))

    def read(self, r, reg):
        return self.dec(r.value(), reg)


class ListOf:
    """A homogeneous sequence: a JSON array, or a count-prefixed run."""

    identity = False

    def __init__(self, item, into: type = list) -> None:
        self.item = item
        self.into = into

    def enc(self, value, reg):
        if self.item.identity:
            return list(value)
        enc = self.item.enc
        return [enc(entry, reg) for entry in value]

    def dec(self, raw, reg):
        if type(raw) is not list and type(raw) is not tuple:
            raise _Mistyped(f"expected a list, got {type(raw).__name__}")
        dec = self.item.dec
        return self.into([dec(entry, reg) for entry in raw])

    def write(self, w, value, reg) -> None:
        w.varint(len(value))
        write = self.item.write
        for entry in value:
            write(w, entry, reg)

    def read(self, r, reg):
        read = self.item.read
        return self.into([read(r, reg)
                          for _ in range(r._bounded("list count"))])


class MapOf:
    """A string-keyed map: a JSON object, or count-prefixed pairs."""

    identity = False

    def __init__(self, item) -> None:
        self.item = item

    def enc(self, value, reg):
        if self.item.identity:
            return dict(value)
        enc = self.item.enc
        return {key: enc(entry, reg) for key, entry in value.items()}

    def dec(self, raw, reg):
        if type(raw) is not dict:
            raise _Mistyped(f"expected an object, got {type(raw).__name__}")
        dec = self.item.dec
        return {key: dec(entry, reg) for key, entry in raw.items()}

    def write(self, w, value, reg) -> None:
        w.varint(len(value))
        write = self.item.write
        for key, entry in value.items():
            w.string(key)
            write(w, entry, reg)

    def read(self, r, reg):
        read = self.item.read
        return {r.string(): read(r, reg)
                for _ in range(r._bounded("map count"))}


class Tagged:
    """A tagged union of record tables: the JSON object's ``key`` entry
    holds the kind of the table that codes the rest of it (an unknown kind
    is an ``unknown`` error).  JSON only: in schema:1b a union travels
    inside a :class:`JsonValue`."""

    identity = False

    def __init__(self, key: str, tables, unknown: str) -> None:
        self.key = key
        self.unknown = unknown
        self.by_kind = {table.kind: table for table in tables}
        self.by_type = {table.cls: table for table in tables}

    def enc(self, value, reg):
        table = self.by_type.get(type(value))
        if table is None:
            raise ContractError(f"cannot serialize {type(value).__name__}")
        record = {self.key: table.kind}
        record.update(table.enc(value, reg))
        return record

    def dec(self, raw, reg):
        if type(raw) is not dict:
            raise _Mistyped(f"expected an object, got {type(raw).__name__}")
        table = self.by_kind.get(raw.get(self.key))
        if table is None:
            raise _Mistyped(f"{self.unknown} {raw.get(self.key)!r}")
        return table.dec(raw, reg)


# -- the tables ----------------------------------------------------------------

class Field:
    """One table row: the JSON key, its codec and default, whether the key
    is omitted while it holds that default, and where the value comes
    from: an object attribute (default: the key) or a function of the
    object (a computed field, passed to ``make`` under its key)."""

    __slots__ = ("key", "codec", "default", "omit", "attr", "get")

    def __init__(self, key: str, codec, default=REQUIRED, *,
                 omit: bool = False, attr="") -> None:
        self.key = key
        self.codec = codec
        self.default = default
        self.omit = omit
        self.attr = key if callable(attr) else attr or key
        self.get = attr if callable(attr) else attrgetter(self.attr)


def _omission(row: Field):
    """The predicate that leaves ``row`` out of the JSON form (None: never).

    A row is omitted while it holds its default; for an empty default
    (``""``, ``[]``, ``()``, ``{}``, ``False``) that means while it is
    empty, so a list and a tuple count alike."""
    if not row.omit:
        return None
    if row.default is None:
        return partial(eq, None)
    return partial(eq, row.default) if row.default else not_


class Record:
    """A record kind's field table and its two interpreters (see the
    module docs).  ``make`` builds the object from the decoded fields
    (default: ``cls``); a ``closed`` table rejects unknown JSON keys."""

    identity = False

    def __init__(self, kind: str, cls: type, fields: list[Field], *,
                 tag: int | None = None, binary: tuple[str, ...] = (),
                 aux: tuple[str, ...] = (), error=ContractError,
                 closed: bool = False, make=None) -> None:
        self.kind = kind
        self.cls = cls
        self.label = kind.replace("_", " ")
        self.tag = tag
        self.error = error
        self.keys = frozenset(row.key for row in fields) if closed else None
        self.make = make or cls
        by_key = {row.key: row for row in fields}
        for row in fields:
            if isinstance(row.codec, ListOf) and row.codec.item is SELF:
                row.codec.item = self
        # Interpreter plans, precomputed once per table.
        self._json = [(row.key, row.get,
                       None if row.codec.identity else row.codec,
                       _omission(row)) for row in fields]
        self._dec = [(row.key, row.attr, row.codec, row.default,
                      type(row.default) in (list, dict)) for row in fields]
        self._aux = [(1 << bit, by_key[key].get,
                      by_key[key].codec is BOOL, by_key[key].attr)
                     for bit, key in enumerate(aux)]
        self._bin = [(row.get, row.attr, row.codec, row.key in aux)
                     for row in map(by_key.get, binary or by_key)
                     if not (row.key in aux and row.codec is BOOL)]

    # -- schema:1 ----------------------------------------------------------------
    def enc(self, obj, reg) -> dict:
        record = {}
        for key, get, codec, omit in self._json:
            value = get(obj)
            if omit is not None and omit(value):
                continue
            record[key] = value if codec is None else codec.enc(value, reg)
        return record

    def dec(self, record, reg):
        if type(record) is not dict:
            raise self.error(f"{self.label} payload must be an object, "
                             f"got {type(record).__name__}")
        if self.keys is not None and not self.keys.issuperset(record):
            raise self.error(f"unknown {self.label} fields: "
                             f"{', '.join(sorted(set(record) - self.keys))}")
        fields = {}
        try:
            for key, attr, codec, default, fresh in self._dec:
                raw = record.get(key, _MISSING)
                if raw is not _MISSING and not (raw is None and default is None):
                    fields[attr] = codec.dec(raw, reg)
                elif default is REQUIRED:
                    raise self.error(f"{self.label} needs a {key}")
                else:
                    fields[attr] = default.copy() if fresh else default
        except _Mistyped as exc:
            raise self.error(f"{self.label} field {key!r}: {exc}") from None
        return self.make(**fields)

    # -- schema:1b ---------------------------------------------------------------
    def write(self, w, obj, reg) -> None:
        if self.tag is None:
            w.value(self.enc(obj, reg))
            return
        w.buf.append(self.tag)
        if self._aux:
            bits = 0
            for bit, get, flag, _attr in self._aux:
                value = get(obj)
                if (value if flag else value is not None):
                    bits |= bit
            w.buf.append(bits)
        for get, _attr, codec, optional in self._bin:
            value = get(obj)
            if not (optional and value is None):
                codec.write(w, value, reg)

    def read(self, r, reg):
        if self.tag is None:
            return self.dec(r.value(), reg)
        if r.data[r.pos] != self.tag:
            raise ContractError(f"expected a {self.kind} record")
        r.pos += 1
        fields = {}
        if self._aux:
            bits = r.data[r.pos]
            r.pos += 1
            for bit, _get, flag, attr in self._aux:
                if flag:
                    fields[attr] = bool(bits & bit)
                elif not bits & bit:
                    fields[attr] = None  # an absent optional field
        for _get, attr, codec, optional in self._bin:
            if not (optional and attr in fields):
                fields[attr] = codec.read(r, reg)
        return self.make(**fields)
