"""Text backends: render IR as C (the paper's output) or Python (executable).

Both emitters are :class:`~repro.codegen.ir.Backend` subclasses over the
typed IR.  The C backend reproduces the paper's presentation (Table 4:
``hdr->type = 3;``) and is locked byte-for-byte by a golden test on the
ICMP corpus; the Python backend produces the body of a function over a
runtime ``ctx`` object (see `repro.runtime.harness.ExecutionContext`) that
our simulator actually executes for the end-to-end evaluation, and doubles
as an executable backend via ``compile_program`` (``exec`` of the
rendering).  The third backend — the direct IR interpreter that skips the
text stage entirely — lives in :mod:`repro.codegen.interp`.
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


class Emitter(Backend):
    """Shared text-backend driver: emit a list of ops as indented lines."""

    indent_unit = "    "
    emits_text = True

    def emit_function(self, function: Function) -> str:
        return self.render_function(function.name, function.ops)

    def render_function(self, name: str, ops: list[Op]) -> str:
        raise NotImplementedError

    def emit(self, ops: list[Op], depth: int = 0) -> list[str]:
        lines: list[str] = []
        for op in ops:
            lines.extend(self.emit_op(op, depth))
        return lines

    def emit_op(self, op: Op, depth: int) -> list[str]:
        method = getattr(self, f"_emit_{type(op).__name__.lower()}", None)
        if method is None:
            raise NotImplementedError(f"no emitter for {type(op).__name__}")
        return method(op, depth)

    def _pad(self, depth: int, text: str) -> str:
        return f"{self.indent_unit * depth}{text}"


class CEmitter(Emitter):
    """Renders ops as C statements against a ``hdr``/``ip`` struct API."""

    name = "c"

    @staticmethod
    def _ref(protocol: str, name: str) -> str:
        owner = "ip" if protocol == "ip" else "hdr"
        return f"{owner}->{name}"

    def _value(self, value: Value) -> str:
        if value.kind == "const":
            return str(value.const)
        if value.kind == "param":
            return f"params.{value.name}"
        if value.kind == "request_field":
            owner = "req_ip" if value.protocol == "ip" else "req"
            return f"{owner}->{value.name}"
        if value.kind == "clock":
            return "clock_ms()"
        if value.kind == "statevar":
            return value.name.replace(".", "_")
        if value.kind == "packet_field":
            return f"pkt->{value.name}"
        raise NotImplementedError(value.kind)

    def _emit_setfield(self, op: SetField, depth: int) -> list[str]:
        return [self._pad(depth, f"{self._ref(op.protocol, op.name)} = {self._value(op.value)};")]

    def _emit_swapfields(self, op: SwapFields, depth: int) -> list[str]:
        a = self._ref(op.protocol_a, op.field_a)
        b = self._ref(op.protocol_b, op.field_b)
        return [self._pad(depth, f"swap(&{a}, &{b});")]

    def _emit_copydata(self, op: CopyData, depth: int) -> list[str]:
        return [self._pad(depth, "memcpy(hdr->data, req->data, req_data_len);")]

    def _emit_quotedatagram(self, op: QuoteDatagram, depth: int) -> list[str]:
        return [
            self._pad(depth, "memcpy(hdr->data, req_ip, ihl_bytes(req_ip));"),
            self._pad(depth, "memcpy(hdr->data + ihl_bytes(req_ip), req_ip_payload, 8);"),
        ]

    def _emit_computechecksum(self, op: ComputeChecksum, depth: int) -> list[str]:
        ref = self._ref(op.protocol, op.name)
        return [
            self._pad(depth, f"{ref} = 0;"),
            self._pad(
                depth,
                f"{ref} = {op.function}((uint8_t *)&hdr->{op.range_start}, "
                f"message_len_from(hdr, &hdr->{op.range_start}));",
            ),
        ]

    def _emit_paddata(self, op: PadData, depth: int) -> list[str]:
        return [self._pad(depth, "/* odd-length data padded with one zero octet for checksumming */")]

    def _emit_conditional(self, op: Conditional, depth: int) -> list[str]:
        lines = [self._pad(depth, f"if ({self._condition(op.condition)}) {{")]
        lines.extend(self.emit(op.body, depth + 1))
        lines.append(self._pad(depth, "}"))
        return lines

    def _condition(self, condition: Condition) -> str:
        if condition.kind == "field_equals":
            comparison = "!=" if condition.negated else "=="
            return f"{self._ref(condition.protocol, condition.name)} {comparison} {condition.value}"
        if condition.kind == "field_odd":
            return f"{self._ref(condition.protocol, condition.name)} % 2 == 1"
        if condition.kind == "field_ge":
            return f"{condition.name} >= {condition.other}"
        if condition.kind == "statevar_equals":
            reference = condition.name.replace(".", "_")
            comparison = "!=" if condition.negated else "=="
            value = condition.other or condition.value
            return f"{reference} {comparison} {value}"
        if condition.kind == "mode_in":
            return " || ".join(condition.modes)
        if condition.kind == "not_found":
            return "session == NULL"
        if condition.kind == "packet_field_is":
            comparison = "!=" if condition.negated else "=="
            value = condition.other.upper() if condition.other else condition.value
            return f"pkt->{condition.name} {comparison} {value}"
        if condition.kind == "packet_field_nonzero":
            return f"pkt->{condition.name} != 0"
        raise NotImplementedError(condition.kind)

    def _emit_setstatevar(self, op: SetStateVar, depth: int) -> list[str]:
        return [self._pad(depth, f"{op.name.replace('.', '_')} = {self._value(op.value)};")]

    def _emit_callprocedure(self, op: CallProcedure, depth: int) -> list[str]:
        return [self._pad(depth, f"{op.name}();")]

    def _emit_send(self, op: Send, depth: int) -> list[str]:
        destination = op.destination or "destination"
        return [self._pad(depth, f"send_message({op.message}, {destination});")]

    def _emit_encapsulate(self, op: Encapsulate, depth: int) -> list[str]:
        return [self._pad(depth, f"encapsulate_{op.outer}(hdr);")]

    def _emit_selectsession(self, op: SelectSession, depth: int) -> list[str]:
        return [self._pad(depth, f"session = select_session(pkt->{op.discriminator_field});")]

    def _emit_discard(self, op: Discard, depth: int) -> list[str]:
        return [self._pad(depth, "discard_packet(); return;")]

    def _emit_ceasetransmission(self, op: CeaseTransmission, depth: int) -> list[str]:
        return [self._pad(depth, "cease_periodic_transmission();")]

    def _emit_comment(self, op: Comment, depth: int) -> list[str]:
        return [self._pad(depth, f"/* {op.text} */")]

    def render_function(self, name: str, ops: list[Op]) -> str:
        lines = [f"void {name}(struct icmp_hdr *hdr, struct ip_hdr *ip) {{"]
        lines.extend(self.emit(ops, 1))
        lines.append("}")
        return "\n".join(lines)

    def emit_program(self, program: Program) -> str:
        parts = [program.struct_c] if program.struct_c else []
        parts.extend(self.emit_function(function) for function in program.programs)
        return "\n\n".join(parts)


class PyEmitter(Emitter):
    """Renders ops as Python statements over a runtime ``ctx`` object."""

    name = "python"
    executable = True

    @staticmethod
    def compile_source(python_source: str) -> dict[str, object]:
        """``exec`` generated source; returns the defined builder functions.

        The single home of the exec-and-filter rule: :meth:`compile_program`
        and the runtime's persisted-source path
        (:func:`~repro.runtime.harness.compile_unit`) both call it."""
        namespace: dict[str, object] = {}
        exec(compile(python_source, "<sage-generated>", "exec"), namespace)
        return {
            name: value
            for name, value in namespace.items()
            if callable(value) and not name.startswith("__")
        }

    def compile_program(self, program: Program) -> dict[str, object]:
        return self.compile_source(self.emit_program(program))

    def _value(self, value: Value) -> str:
        if value.kind == "const":
            return str(value.const)
        if value.kind == "param":
            return f"ctx.param({value.name!r})"
        if value.kind == "request_field":
            return f"ctx.request_field({value.protocol!r}, {value.name!r})"
        if value.kind == "clock":
            return "ctx.clock_ms()"
        if value.kind == "statevar":
            return f"ctx.state_get({value.name!r})"
        if value.kind == "packet_field":
            return f"ctx.packet_field({value.name!r})"
        raise NotImplementedError(value.kind)

    def _emit_setfield(self, op: SetField, depth: int) -> list[str]:
        return [self._pad(
            depth,
            f"ctx.set_field({op.protocol!r}, {op.name!r}, {self._value(op.value)})",
        )]

    def _emit_swapfields(self, op: SwapFields, depth: int) -> list[str]:
        return [self._pad(
            depth,
            f"ctx.swap_fields({op.protocol_a!r}, {op.field_a!r}, "
            f"{op.protocol_b!r}, {op.field_b!r})",
        )]

    def _emit_copydata(self, op: CopyData, depth: int) -> list[str]:
        return [self._pad(depth, "ctx.copy_data()")]

    def _emit_quotedatagram(self, op: QuoteDatagram, depth: int) -> list[str]:
        return [self._pad(depth, "ctx.quote_datagram()")]

    def _emit_computechecksum(self, op: ComputeChecksum, depth: int) -> list[str]:
        return [self._pad(
            depth,
            f"ctx.compute_checksum({op.protocol!r}, {op.name!r}, "
            f"start={op.range_start!r})",
        )]

    def _emit_paddata(self, op: PadData, depth: int) -> list[str]:
        return [self._pad(depth, "ctx.pad_for_checksum()")]

    def _emit_conditional(self, op: Conditional, depth: int) -> list[str]:
        lines = [self._pad(depth, f"if {self._condition(op.condition)}:")]
        body = self.emit(op.body, depth + 1)
        lines.extend(body or [self._pad(depth + 1, "pass")])
        return lines

    def _condition(self, condition: Condition) -> str:
        if condition.kind == "field_equals":
            comparison = "!=" if condition.negated else "=="
            return (f"ctx.get_field({condition.protocol!r}, {condition.name!r}) "
                    f"{comparison} {condition.value}")
        if condition.kind == "field_odd":
            return f"ctx.get_field({condition.protocol!r}, {condition.name!r}) % 2 == 1"
        if condition.kind == "field_ge":
            return f"ctx.variable({condition.name!r}) >= ctx.variable({condition.other!r})"
        if condition.kind == "statevar_equals":
            comparison = "!=" if condition.negated else "=="
            value = repr(condition.other) if condition.other else condition.value
            return f"ctx.state_get({condition.name!r}) {comparison} {value}"
        if condition.kind == "mode_in":
            return f"ctx.mode_in({condition.modes!r})"
        if condition.kind == "not_found":
            return "not ctx.session_found()"
        if condition.kind == "packet_field_is":
            value = repr(condition.other) if condition.other else condition.value
            comparison = "!=" if condition.negated else "=="
            return f"ctx.packet_field({condition.name!r}) {comparison} {value}"
        if condition.kind == "packet_field_nonzero":
            return f"ctx.packet_field({condition.name!r}) != 0"
        raise NotImplementedError(condition.kind)

    def _emit_setstatevar(self, op: SetStateVar, depth: int) -> list[str]:
        return [self._pad(depth, f"ctx.state_set({op.name!r}, {self._value(op.value)})")]

    def _emit_callprocedure(self, op: CallProcedure, depth: int) -> list[str]:
        return [self._pad(depth, f"ctx.call_procedure({op.name!r})")]

    def _emit_send(self, op: Send, depth: int) -> list[str]:
        return [self._pad(depth, f"ctx.send({op.message!r}, {op.destination!r})")]

    def _emit_encapsulate(self, op: Encapsulate, depth: int) -> list[str]:
        return [self._pad(depth, f"ctx.encapsulate({op.outer!r})")]

    def _emit_selectsession(self, op: SelectSession, depth: int) -> list[str]:
        return [self._pad(depth, "ctx.select_session()")]

    def _emit_discard(self, op: Discard, depth: int) -> list[str]:
        return [
            self._pad(depth, f"ctx.discard({op.reason!r})"),
            self._pad(depth, "return ctx"),
        ]

    def _emit_ceasetransmission(self, op: CeaseTransmission, depth: int) -> list[str]:
        return [self._pad(depth, "ctx.cease_transmission()")]

    def _emit_comment(self, op: Comment, depth: int) -> list[str]:
        return [self._pad(depth, f"# {op.text}")]

    def render_function(self, name: str, ops: list[Op]) -> str:
        lines = [f"def {name}(ctx):"]
        body = self.emit(ops, 1)
        lines.extend(body or [self._pad(1, "pass")])
        lines.append(self._pad(1, "return ctx"))
        return "\n".join(lines)
