"""The direct IR interpreter backend: execute programs without ``exec()``.

The Python emitter turns IR into source text that the harness compiles with
``exec`` — fine for inspection, but the text round-trip costs a compile per
program and puts arbitrary generated strings through the Python compiler.
:class:`IRInterpreter` skips the text stage: ``compile_program`` returns
closures that walk the typed op tree directly against the same ``ctx``
objects the exec'd code uses (:class:`~repro.runtime.harness.
ExecutionContext` and the state-runtime contexts).  Semantics are locked to
the Python backend by the property tests in ``tests/test_backend_parity.py``
— every op and condition kind dispatches to exactly the ``ctx`` call the
emitted statement would make, including the early ``return ctx`` a
:class:`~repro.codegen.ops.Discard` statement performs.
"""

from __future__ import annotations

from .ir import Backend, Function, Program
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


class _Return(Exception):
    """Unwinds nested conditionals on Discard (the emitted ``return ctx``)."""


def _eval_value(value: Value, ctx) -> object:
    if value.kind == "const":
        return value.const
    if value.kind == "param":
        return ctx.param(value.name)
    if value.kind == "request_field":
        return ctx.request_field(value.protocol, value.name)
    if value.kind == "clock":
        return ctx.clock_ms()
    if value.kind == "statevar":
        return ctx.state_get(value.name)
    if value.kind == "packet_field":
        return ctx.packet_field(value.name)
    raise NotImplementedError(value.kind)


def _eval_condition(condition: Condition, ctx) -> bool:
    if condition.kind == "field_equals":
        equal = ctx.get_field(condition.protocol, condition.name) == condition.value
        return not equal if condition.negated else equal
    if condition.kind == "field_odd":
        return ctx.get_field(condition.protocol, condition.name) % 2 == 1
    if condition.kind == "field_ge":
        return ctx.variable(condition.name) >= ctx.variable(condition.other)
    if condition.kind == "statevar_equals":
        value = condition.other if condition.other else condition.value
        equal = ctx.state_get(condition.name) == value
        return not equal if condition.negated else equal
    if condition.kind == "mode_in":
        return ctx.mode_in(condition.modes)
    if condition.kind == "not_found":
        return not ctx.session_found()
    if condition.kind == "packet_field_is":
        value = condition.other if condition.other else condition.value
        equal = ctx.packet_field(condition.name) == value
        return not equal if condition.negated else equal
    if condition.kind == "packet_field_nonzero":
        return ctx.packet_field(condition.name) != 0
    raise NotImplementedError(condition.kind)


def _execute(op: Op, ctx) -> None:
    if isinstance(op, SetField):
        ctx.set_field(op.protocol, op.name, _eval_value(op.value, ctx))
    elif isinstance(op, SwapFields):
        ctx.swap_fields(op.protocol_a, op.field_a, op.protocol_b, op.field_b)
    elif isinstance(op, CopyData):
        ctx.copy_data()
    elif isinstance(op, QuoteDatagram):
        ctx.quote_datagram()
    elif isinstance(op, ComputeChecksum):
        ctx.compute_checksum(op.protocol, op.name, start=op.range_start)
    elif isinstance(op, PadData):
        ctx.pad_for_checksum()
    elif isinstance(op, Conditional):
        if _eval_condition(op.condition, ctx):
            for inner in op.body:
                _execute(inner, ctx)
    elif isinstance(op, SetStateVar):
        ctx.state_set(op.name, _eval_value(op.value, ctx))
    elif isinstance(op, CallProcedure):
        ctx.call_procedure(op.name)
    elif isinstance(op, Send):
        ctx.send(op.message, op.destination)
    elif isinstance(op, Encapsulate):
        ctx.encapsulate(op.outer)
    elif isinstance(op, SelectSession):
        ctx.select_session()
    elif isinstance(op, Discard):
        ctx.discard(op.reason)
        raise _Return
    elif isinstance(op, CeaseTransmission):
        ctx.cease_transmission()
    elif isinstance(op, Comment):
        pass
    else:
        raise NotImplementedError(f"no interpretation for {type(op).__name__}")


class IRInterpreter(Backend):
    """Executable backend walking the IR directly — no source, no exec."""

    name = "interp"
    emits_text = False
    executable = True

    def compile_function(self, function: Function):
        """A callable with the same ``ctx -> ctx`` contract as exec'd code."""
        ops = list(function.ops)

        def run(ctx):
            try:
                for op in ops:
                    _execute(op, ctx)
            except _Return:
                pass
            return ctx

        run.__name__ = function.name
        run.__qualname__ = function.name
        return run

    def compile_program(self, program: Program) -> dict[str, object]:
        return {
            function.name: self.compile_function(function)
            for function in program.programs
        }
