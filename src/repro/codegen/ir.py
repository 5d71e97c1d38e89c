"""The typed codegen IR: programs, functions, passes, and backends (§5.2).

Between the predicate handlers (logical forms → ops) and the rendered code
sits a typed intermediate representation:

* :class:`Program` — everything generated for one protocol: the struct
  declaration plus one :class:`Function` per (message, role) builder, with a
  collision guard on function names;
* :class:`Function` — one builder: ops plus the routing metadata (protocol,
  message, role) that names it and a content fingerprint for
  compiled-program caching;
* :class:`SentenceCode` — one sentence's ops plus the goal-message/role
  routing that decides which builders receive them; :func:`builder_role`
  says which side of the exchange builds each message;
* **passes** — the small optimizing/normalizing pipeline every function
  runs through during assembly (:func:`run_passes`): checksum
  finalization, advice placement, and set-field dedupe — the paper's code
  order discussion (§5.2) as plain, testable functions;
* :class:`Backend` — the rendering/execution interface.  The C and Python
  emitters subclass it (``repro.codegen.emitters``), as does the direct IR
  interpreter (``repro.codegen.interp``);
  :func:`~repro.codegen.backends.get_backend` resolves a name through the
  fixed :data:`~repro.codegen.backends.BACKENDS` table, importing the
  module on demand.

Keeping the IR typed (dataclass ops, enumerated value/condition kinds) is
what lets :func:`validate_function` reject malformed programs *before* a
backend sees them, and what makes the interpreter backend possible at all —
it executes the ops directly against an execution context, no ``exec()``.
The IR's wire form (ops, values, conditions, functions, programs) is the
set of field tables at the end of this module (:mod:`repro.api.schema`
interprets them); :mod:`repro.api.contracts` reaches them on first use, so
an answer that reads no IR never imports this module.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field as dataclass_field
from functools import partial

from ..api.schema import (
    BOOL,
    STR,
    UINT,
    Field,
    JsonValue,
    ListOf,
    Record,
    Scalar,
    Tagged,
)
from .backends import get_backend
from .errors import (
    FingerprintMismatch,
    FunctionNameCollision,
    IRValidationError,
)
from .ops import (
    CallProcedure,
    CeaseTransmission,
    Comment,
    ComputeChecksum,
    Condition,
    Conditional,
    CopyData,
    Discard,
    Encapsulate,
    Op,
    PadData,
    QuoteDatagram,
    SelectSession,
    Send,
    SetField,
    SetStateVar,
    SwapFields,
    Value,
)

#: Every op node type a well-formed function may contain.
OP_TYPES: tuple[type, ...] = (
    SetField, SwapFields, CopyData, QuoteDatagram, ComputeChecksum, PadData,
    Conditional, SetStateVar, CallProcedure, Send, Encapsulate,
    SelectSession, Discard, CeaseTransmission, Comment,
)

#: The value-expression kinds backends must understand.
VALUE_KINDS = frozenset(
    {"const", "param", "request_field", "clock", "statevar", "packet_field"}
)

#: The condition kinds backends must understand.
CONDITION_KINDS = frozenset({
    "field_equals", "field_odd", "field_ge", "statevar_equals", "mode_in",
    "not_found", "packet_field_is", "packet_field_nonzero",
})


def function_name(protocol: str, message_name: str, role: str) -> str:
    """The unique builder name (paper: "based on the protocol, the message
    type, and the role")."""
    slug = re.sub(r"[^a-z0-9]+", "_", message_name.lower()).strip("_")
    return f"{protocol.lower()}_{slug}_{role}"


# -- routing metadata ----------------------------------------------------------

@dataclass
class SentenceCode:
    """One sentence's generated ops plus routing metadata."""

    sentence: str
    ops: list[Op] = dataclass_field(default_factory=list)
    goal_message: str = ""  # "" = applies to every message in its section
    role: str = ""  # "" = applies to both roles
    status: str = "ok"  # ok | non-actionable | ambiguous
    reason: str = ""


def goal_matches(goal_message: str, message_name: str) -> bool:
    """"echo_reply_message" (an LF constant) matches "echo reply"."""
    if not goal_message:
        return True
    normalized = goal_message.replace("_", " ").removesuffix(" message").strip()
    return normalized == message_name


# Which side of the exchange constructs each ICMP message.  This is the
# bundled-ICMP *fallback*: protocol-correct sender-built sets live in the
# protocol registry's metadata (``ProtocolRegistry.sender_built``) and are
# passed to :func:`builder_role` explicitly by the engine.
_SENDER_BUILT = frozenset({"echo", "timestamp", "information request"})


def builder_role(message_name: str,
                 sender_built: frozenset[str] | None = None) -> str:
    """"echo" is built by the probing sender; everything else by the
    responding node (replies and error messages).

    ``sender_built`` is the per-protocol message set from the registry's
    metadata; without one the bundled ICMP set applies.
    """
    built_by_sender = _SENDER_BUILT if sender_built is None else sender_built
    return "sender" if message_name in built_by_sender else "receiver"


# -- symbol tables -------------------------------------------------------------

@dataclass(frozen=True)
class SymbolTable:
    """Everything an op list references, by category (built by
    :func:`collect_symbols`)."""

    fields: frozenset[tuple[str, str]] = frozenset()  # (protocol, name)
    params: frozenset[str] = frozenset()
    state_vars: frozenset[str] = frozenset()
    packet_fields: frozenset[str] = frozenset()
    procedures: frozenset[str] = frozenset()
    messages: frozenset[str] = frozenset()  # @Send targets


def collect_symbols(ops: list[Op]) -> SymbolTable:
    """Walk ``ops`` (recursing into conditionals) and build the table."""
    fields: set[tuple[str, str]] = set()
    params: set[str] = set()
    state_vars: set[str] = set()
    packet_fields: set[str] = set()
    procedures: set[str] = set()
    messages: set[str] = set()

    def visit_value(value: Value) -> None:
        if value.kind == "param":
            params.add(value.name)
        elif value.kind == "request_field":
            fields.add((value.protocol, value.name))
        elif value.kind == "statevar":
            state_vars.add(value.name)
        elif value.kind == "packet_field":
            packet_fields.add(value.name)

    def visit_condition(condition: Condition) -> None:
        if condition.kind in ("field_equals", "field_odd"):
            fields.add((condition.protocol, condition.name))
        elif condition.kind == "statevar_equals":
            state_vars.add(condition.name)
        elif condition.kind in ("packet_field_is", "packet_field_nonzero"):
            packet_fields.add(condition.name)

    def visit(op: Op) -> None:
        if isinstance(op, SetField):
            fields.add((op.protocol, op.name))
            visit_value(op.value)
        elif isinstance(op, SwapFields):
            fields.add((op.protocol_a, op.field_a))
            fields.add((op.protocol_b, op.field_b))
        elif isinstance(op, ComputeChecksum):
            fields.add((op.protocol, op.name))
        elif isinstance(op, SetStateVar):
            state_vars.add(op.name)
            visit_value(op.value)
        elif isinstance(op, CallProcedure):
            procedures.add(op.name)
        elif isinstance(op, Send):
            messages.add(op.message)
        elif isinstance(op, SelectSession):
            packet_fields.add(op.discriminator_field)
        elif isinstance(op, Conditional):
            visit_condition(op.condition)
            for inner in op.body:
                visit(inner)

    for op in ops:
        visit(op)
    return SymbolTable(
        fields=frozenset(fields), params=frozenset(params),
        state_vars=frozenset(state_vars), packet_fields=frozenset(packet_fields),
        procedures=frozenset(procedures), messages=frozenset(messages),
    )


# -- validation ----------------------------------------------------------------

def validate_ops(ops: list[Op], where: str = "") -> None:
    """Raise :class:`IRValidationError` on any node no backend understands."""
    prefix = f"{where}: " if where else ""
    for op in ops:
        if not isinstance(op, OP_TYPES):
            raise IRValidationError(f"{prefix}unknown op type {type(op).__name__}")
        if op.advice_before is not None and not isinstance(op.advice_before, str):
            raise IRValidationError(f"{prefix}advice tag must be a string")
        if isinstance(op, SetField):
            if not op.name:
                raise IRValidationError(f"{prefix}SetField with an empty field name")
            _validate_value(op.value, prefix)
        elif isinstance(op, SetStateVar):
            if not op.name:
                raise IRValidationError(f"{prefix}SetStateVar with an empty name")
            _validate_value(op.value, prefix)
        elif isinstance(op, Conditional):
            if op.condition.kind not in CONDITION_KINDS:
                raise IRValidationError(
                    f"{prefix}unknown condition kind {op.condition.kind!r}"
                )
            validate_ops(op.body, where)


def _validate_value(value: Value, prefix: str) -> None:
    if value.kind not in VALUE_KINDS:
        raise IRValidationError(f"{prefix}unknown value kind {value.kind!r}")


def validate_function(function: "Function") -> None:
    """Structural validation of one builder before any backend runs."""
    if not function.name:
        raise IRValidationError("function has no name")
    validate_ops(function.ops, function.name)


# -- passes --------------------------------------------------------------------
# Each pass rewrites a function's op list (order-preserving unless the
# pass's whole point is reordering); :func:`run_passes` is the assembly
# pipeline.

def finalize_checksums(ops: list[Op]) -> list[Op]:
    """Stable-sort checksum computations (and their advice) to the end.

    The RFC lists the Checksum field before Identifier/Sequence/Data, but
    the checksum covers them, so it must be computed after they are filled.
    Duplicate computations of the same (protocol, field) collapse to one.
    """
    head = [op for op in ops if not isinstance(op, ComputeChecksum)]
    tail: list[Op] = []
    seen: set[tuple[str, str]] = set()
    for op in ops:
        if not isinstance(op, ComputeChecksum):
            continue
        key = (op.protocol, op.name)
        if key not in seen:
            seen.add(key)
            tail.append(op)
    return head + tail


def place_advice(ops: list[Op]) -> list[Op]:
    """Move advice ops immediately before their advised function's first op.

    Currently the only advised function is the checksum computation
    (@AdvBefore in the "For computing the checksum..." sentence); advice for
    functions that never appear stays in place.
    """
    advice = [op for op in ops if op.advice_before]
    if not advice:
        return list(ops)
    result: list[Op] = []
    placed: set[int] = set()
    for op in ops:
        if op.advice_before:
            continue
        if isinstance(op, ComputeChecksum):
            for index, advice_op in enumerate(advice):
                if index not in placed and advice_op.advice_before == "compute_checksum":
                    result.append(advice_op)
                    placed.add(index)
        result.append(op)
    result.extend(advice_op for index, advice_op in enumerate(advice)
                  if index not in placed)
    return result


def dedupe_setfields(ops: list[Op]) -> list[Op]:
    """Drop exact-duplicate constant field assignments (e.g. the structural
    type value and a rewrite's explicit "type field is set to 0")."""
    seen: set[tuple[str, str, int]] = set()
    result: list[Op] = []
    for op in ops:
        if isinstance(op, SetField) and op.value.kind == "const":
            key = (op.protocol, op.name, op.value.const)
            if key in seen:
                continue
            seen.add(key)
        result.append(op)
    return result


def run_passes(ops: list[Op]) -> list[Op]:
    """The assembly pipeline: finalization first (checksums move to the
    end), THEN advice placement, so zero-before-compute lands directly
    before the moved computation; dedupe runs last over the settled order."""
    return dedupe_setfields(place_advice(finalize_checksums(ops)))


# -- functions and programs ----------------------------------------------------

@dataclass
class Function:
    """One assembled builder: ops plus the metadata that names and routes it."""

    protocol: str
    message_name: str
    role: str
    ops: list[Op] = dataclass_field(default_factory=list)
    name_override: str = ""  # set only when deduping a slug collision
    _fingerprint: str | None = dataclass_field(
        default=None, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        return self.name_override or function_name(
            self.protocol, self.message_name, self.role
        )

    def fingerprint(self) -> str:
        """Content SHA-1: the compiled-program cache key component.

        Ops are dataclasses, so ``repr`` is a complete, deterministic
        serialization of the tree (Value and Condition are frozen
        dataclasses and render all fields).  The hash is computed once:
        like every shared pipeline artifact, a function is frozen after
        assembly: build a new one rather than mutate ``ops``."""
        if self._fingerprint is None:
            digest = hashlib.sha1()
            digest.update(
                f"{self.name}|{self.protocol}|{self.message_name}|{self.role}".encode()
            )
            for op in self.ops:
                digest.update(repr(op).encode())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # -- convenience renderings ------------------------------------------------
    def render_c(self) -> str:
        return get_backend("c")().emit_function(self)

    def render_python(self) -> str:
        return get_backend("python")().emit_function(self)


@dataclass
class Program:
    """Everything generated for one protocol: structs plus builders.

    ``add`` is the collision-guarded way in; builders whose names collide
    raise :class:`FunctionNameCollision` instead of silently merging.
    """

    protocol: str
    struct_c: str = ""
    programs: list[Function] = dataclass_field(default_factory=list)
    _fingerprint: str | None = dataclass_field(
        default=None, repr=False, compare=False
    )

    def add(self, function: Function) -> Function:
        existing = self.program_named(function.name)
        if existing is not None:
            raise FunctionNameCollision(
                function.name, existing.message_name, function.message_name
            )
        self.programs.append(function)
        return function

    def program_named(self, name: str) -> Function | None:
        for program in self.programs:
            if program.name == name:
                return program
        return None

    def validate(self) -> None:
        names: dict[str, str] = {}
        for function in self.programs:
            validate_function(function)
            if function.name in names:
                raise FunctionNameCollision(
                    function.name, names[function.name], function.message_name
                )
            names[function.name] = function.message_name

    def fingerprint(self) -> str:
        """Content SHA-1 over the struct and every function (memoized; a
        program is frozen after assembly)."""
        if self._fingerprint is None:
            digest = hashlib.sha1()
            digest.update(f"{self.protocol}|{self.struct_c}".encode())
            for function in self.programs:
                digest.update(function.fingerprint().encode())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def render_c(self) -> str:
        return get_backend("c")().emit_program(self)

    def render_python(self) -> str:
        return get_backend("python")().emit_program(self)

    def compile(self, backend: str = "python") -> dict[str, object]:
        """Callable builders via an executable backend ("python" or "interp")."""
        return get_backend(backend)().compile_program(self)


def build_function(
    protocol: str,
    message_name: str,
    role: str,
    sentence_codes: list[SentenceCode],
    type_value: int | None = None,
    code_value: int | None = None,
) -> Function:
    """Assemble one message's builder from its sentences plus the structural
    value bindings (the "0 = Echo Reply" idiom and bare field values), then
    run the pass pipeline and validate the result."""
    ops: list[Op] = []
    if type_value is not None:
        ops.append(SetField(protocol.lower(), "type", Value.constant(type_value)))
    if code_value is not None:
        ops.append(SetField(protocol.lower(), "code", Value.constant(code_value)))
    for code in sentence_codes:
        if code.status == "non-actionable":
            ops.append(Comment(text=code.sentence[:70]))
            continue
        if code.status != "ok":
            continue
        if not goal_matches(code.goal_message, message_name):
            continue
        if code.role and code.role != role:
            continue
        ops.extend(code.ops)
    function = Function(
        protocol=protocol, message_name=message_name, role=role,
        ops=run_passes(ops),
    )
    validate_function(function)
    return function


# -- the backends --------------------------------------------------------------

class Backend:
    """The rendering/execution interface over the IR.

    Text backends (C, Python) implement ``emit_function``; executable
    backends (Python, the interpreter) implement ``compile_program``.  See
    DESIGN.md §6 for the contract.
    """

    #: The backend's key in :data:`~repro.codegen.backends.BACKENDS`.
    name = ""
    #: True when emit_function/emit_program produce source text.
    emits_text = True
    #: True when compile_program produces callable builders.
    executable = False

    def emit_function(self, function: Function) -> str:
        raise NotImplementedError(f"backend {self.name!r} does not emit text")

    def emit_program(self, program: Program) -> str:
        return "\n\n".join(
            self.emit_function(function) for function in program.programs
        )

    def compile_program(self, program: Program) -> dict[str, object]:
        raise NotImplementedError(f"backend {self.name!r} is not executable")



# -- the wire form -------------------------------------------------------------
# A value or condition is an object with only its non-default fields; an op
# is its table's fields under an "op" key naming its type.  The
# ``code_unit`` table joins the envelope kinds of repro.api.contracts on
# first use, as the resolution table does.

VALUE = Record("value", Value, [
    Field("kind", Scalar(str, tuple(sorted(VALUE_KINDS)))),
    Field("const", UINT, 0, omit=True),
    Field("name", STR, "", omit=True),
    Field("protocol", STR, "", omit=True),
])

CONDITION = Record("condition", Condition, [
    Field("kind", Scalar(str, tuple(sorted(CONDITION_KINDS)))),
    Field("protocol", STR, "", omit=True),
    Field("name", STR, "", omit=True),
    Field("value", UINT, 0, omit=True),
    Field("other", STR, "", omit=True),
    Field("modes", ListOf(STR, tuple), (), omit=True),
    Field("negated", BOOL, False, omit=True),
])


def _op(cls, *fields: Field) -> Record:
    """An op type's table: its own fields, then the advice tag of every op."""
    return Record(cls.__name__, cls,
                  [*fields, Field("advice_before", STR, None, omit=True)])


def _strs(*keys: str) -> list[Field]:
    return [Field(key, STR) for key in keys]


_OP_LIST = ListOf(None)  # ops: the item, the OP union, is set below

OP = Tagged("op", [
    _op(SetField, *_strs("protocol", "name"), Field("value", VALUE),
        Field("optional", BOOL, False, omit=True)),
    _op(SwapFields, *_strs("protocol_a", "field_a", "protocol_b", "field_b")),
    _op(CopyData),
    _op(QuoteDatagram),
    _op(ComputeChecksum, *_strs("protocol", "name", "function"),
        Field("range_start", STR, "type", omit=True),
        Field("range_end", STR, "end", omit=True)),
    _op(PadData),
    _op(Conditional, Field("condition", CONDITION),
        Field("body", _OP_LIST, [])),
    _op(SetStateVar, *_strs("name"), Field("value", VALUE)),
    _op(CallProcedure, *_strs("name")),
    _op(Send, *_strs("message"), Field("destination", STR, "", omit=True)),
    _op(Encapsulate, Field("outer", STR, "udp", omit=True)),
    _op(SelectSession, Field("discriminator_field", STR,
                             "your_discriminator", omit=True)),
    _op(Discard, Field("reason", STR, "", omit=True)),
    _op(CeaseTransmission, Field("what", STR, "periodic_transmission",
                                 omit=True)),
    _op(Comment, *_strs("text")),
], unknown="unknown serialized op")
_OP_LIST.item = OP

#: An op list (a SentenceCode's or Function's): a JSON array of ops,
#: written in schema:1b as that array under the generic value codec.
OPS = JsonValue(list, partial(_OP_LIST.enc, reg=None),
                partial(_OP_LIST.dec, reg=None))


def verified(fingerprint: str, built, what: str):
    """``built``, after checking its content SHA-1 against the recorded
    one: a stored artifact is tamper-evident end to end."""
    if fingerprint and fingerprint != built.fingerprint():
        raise FingerprintMismatch(what, fingerprint, built.fingerprint())
    return built


def _function(fingerprint: str, **fields) -> Function:
    function = Function(**fields)
    return verified(fingerprint, function, f"function {function.name}")


def _program(fingerprint: str, programs: list, **fields) -> Program:
    program = Program(**fields)
    for function in programs:
        program.add(function)  # collision-guarded, as at assembly
    return verified(fingerprint, program, f"program {program.protocol}")


FUNCTION = Record("function", Function, [
    Field("protocol", STR),
    Field("message_name", STR),
    Field("role", STR),
    Field("ops", OPS, []),
    Field("fingerprint", STR, "", attr=Function.fingerprint),
    Field("name_override", STR, "", omit=True),
], make=_function)

CODE_UNIT = Record("code_unit", Program, [
    Field("protocol", STR),
    Field("struct_c", STR, ""),
    Field("functions", ListOf(FUNCTION), [], attr="programs"),
    Field("fingerprint", STR, "", attr=Program.fingerprint),
], make=_program)
