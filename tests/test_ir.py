"""Tests for the typed codegen IR: nodes, passes, backends, caching."""

import pytest

from repro.codegen import (
    CEmitter,
    Function,
    FunctionNameCollision,
    IRInterpreter,
    IRValidationError,
    Program,
    PyEmitter,
    SentenceCode,
    backend_names,
    build_function,
    builder_role,
    collect_symbols,
    get_backend,
    validate_function,
)
from repro.codegen.ir import (
    dedupe_setfields,
    finalize_checksums,
    place_advice,
    run_passes,
)
from repro.codegen.ops import (
    CallProcedure,
    ComputeChecksum,
    Condition,
    Conditional,
    Discard,
    Op,
    Send,
    SetField,
    SetStateVar,
    SwapFields,
    Value,
)


def setfield(name="type", const=3, protocol="icmp"):
    return SetField(protocol, name, Value.constant(const))


class TestFunctionAndProgram:
    def test_function_name_derived_from_routing_metadata(self):
        function = Function(protocol="ICMP", message_name="echo reply",
                            role="receiver")
        assert function.name == "icmp_echo_reply_receiver"

    def test_name_override_wins(self):
        function = Function(protocol="ICMP", message_name="echo reply",
                            role="receiver", name_override="custom")
        assert function.name == "custom"

    def test_fingerprint_changes_with_ops(self):
        a = Function(protocol="ICMP", message_name="echo", role="sender",
                     ops=[setfield(const=1)])
        b = Function(protocol="ICMP", message_name="echo", role="sender",
                     ops=[setfield(const=2)])
        assert a.fingerprint() != b.fingerprint()
        same = Function(protocol="ICMP", message_name="echo", role="sender",
                        ops=[setfield(const=1)])
        assert a.fingerprint() == same.fingerprint()

    def test_program_compiles_under_both_executable_backends(self):
        program = Program(protocol="ICMP")
        program.add(Function(protocol="ICMP", message_name="echo",
                             role="sender", ops=[setfield(const=8)]))
        for backend in ("python", "interp"):
            builders = program.compile(backend)
            assert set(builders) == {"icmp_echo_sender"}

    def test_program_fingerprint_covers_struct_and_functions(self):
        a = Program(protocol="ICMP", struct_c="struct a {};")
        b = Program(protocol="ICMP", struct_c="struct b {};")
        assert a.fingerprint() != b.fingerprint()

    def test_program_add_rejects_slug_collisions(self):
        """Two messages slugging to the same builder name must not merge."""
        program = Program(protocol="ICMP")
        program.add(Function(protocol="ICMP", message_name="echo-reply",
                             role="receiver"))
        with pytest.raises(FunctionNameCollision) as excinfo:
            program.add(Function(protocol="ICMP", message_name="echo reply",
                                 role="receiver"))
        assert "echo-reply" in str(excinfo.value)
        assert "echo reply" in str(excinfo.value)

    def test_same_message_both_roles_is_not_a_collision(self):
        program = Program(protocol="ICMP")
        program.add(Function(protocol="ICMP", message_name="echo", role="sender"))
        program.add(Function(protocol="ICMP", message_name="echo", role="receiver"))
        assert len(program.programs) == 2

    def test_program_validate_finds_duplicates(self):
        program = Program(protocol="ICMP", programs=[
            Function(protocol="ICMP", message_name="echo", role="sender"),
            Function(protocol="ICMP", message_name="Echo", role="sender"),
        ])
        with pytest.raises(FunctionNameCollision):
            program.validate()


class TestValidation:
    def test_unknown_op_rejected(self):
        class Rogue(Op):
            pass

        function = Function(protocol="ICMP", message_name="x", role="receiver",
                            ops=[Rogue()])
        with pytest.raises(IRValidationError):
            validate_function(function)

    def test_unknown_value_kind_rejected(self):
        op = SetField("icmp", "type", Value(kind="telepathy"))
        function = Function(protocol="ICMP", message_name="x", role="receiver",
                            ops=[op])
        with pytest.raises(IRValidationError):
            validate_function(function)

    def test_unknown_condition_kind_rejected(self):
        op = Conditional(condition=Condition(kind="vibes"), body=[setfield()])
        function = Function(protocol="ICMP", message_name="x", role="receiver",
                            ops=[op])
        with pytest.raises(IRValidationError):
            validate_function(function)

    def test_nested_bodies_validated(self):
        bad = Conditional(
            condition=Condition(kind="field_equals", protocol="icmp",
                                name="type", value=0),
            body=[SetField("icmp", "", Value.constant(0))],
        )
        function = Function(protocol="ICMP", message_name="x", role="receiver",
                            ops=[bad])
        with pytest.raises(IRValidationError):
            validate_function(function)

    def test_clean_function_validates(self):
        function = build_function(
            "ICMP", "echo reply", "receiver",
            [SentenceCode(sentence="s", ops=[setfield()])],
        )
        validate_function(function)  # no raise


class TestPasses:
    def test_pass_pipeline_matches_historical_order(self):
        """finalize → advice → dedupe, exactly the pre-IR generator."""
        zero = SetField("icmp", "checksum", Value.constant(0),
                        advice_before="compute_checksum")
        compute = ComputeChecksum("icmp", "checksum", "internet_checksum")
        ident = setfield("identifier", 7)
        result = run_passes([compute, zero, ident])
        assert result == [ident, zero, compute]

    def test_checksum_finalization_dedupes(self):
        ops = [
            ComputeChecksum("icmp", "checksum", "internet_checksum"),
            setfield("identifier", 1),
            ComputeChecksum("icmp", "checksum", "internet_checksum"),
        ]
        result = finalize_checksums(ops)
        assert sum(isinstance(op, ComputeChecksum) for op in result) == 1
        assert isinstance(result[0], SetField)

    def test_advice_stays_put_without_target(self):
        zero = SetField("icmp", "checksum", Value.constant(0),
                        advice_before="compute_checksum")
        other = setfield()
        result = place_advice([other, zero])
        assert result == [other, zero]

    def test_dedupe_keeps_non_const_assignments(self):
        a = SetField("icmp", "identifier", Value.param("chosen_value"))
        b = SetField("icmp", "identifier", Value.param("chosen_value"))
        assert dedupe_setfields([a, b]) == [a, b]


class TestSymbolTable:
    def test_collects_across_nesting(self):
        ops = [
            SetField("icmp", "type", Value.constant(0)),
            SetField("ip", "dst", Value.request_field("ip", "src")),
            SwapFields("ip", "src", "ip", "dst"),
            SetStateVar("bfd.remotediscr", Value.packet_field("my_discriminator")),
            Conditional(
                condition=Condition(kind="statevar_equals",
                                    name="bfd.sessionstate", other="down"),
                body=[CallProcedure("timeout_procedure"),
                      Send(message="query", destination="all_hosts_group")],
            ),
        ]
        table = collect_symbols(ops)
        assert ("icmp", "type") in table.fields
        assert ("ip", "src") in table.fields and ("ip", "dst") in table.fields
        assert "bfd.remotediscr" in table.state_vars
        assert "bfd.sessionstate" in table.state_vars
        assert "my_discriminator" in table.packet_fields
        assert "timeout_procedure" in table.procedures
        assert "query" in table.messages

    def test_params_collected(self):
        table = collect_symbols([SetField("icmp", "code", Value.param("code"))])
        assert table.params == frozenset({"code"})


class TestBackendRegistry:
    def test_bundled_backends_registered(self):
        assert {"c", "python", "interp"} <= set(backend_names())

    def test_get_backend_unknown_raises(self):
        with pytest.raises(KeyError):
            get_backend("fortran")

    def test_table_names_match_the_classes(self):
        for name in backend_names():
            assert get_backend(name).name == name

    def test_backend_capabilities(self):
        assert CEmitter.emits_text and not CEmitter.executable
        assert PyEmitter.emits_text and PyEmitter.executable
        assert IRInterpreter.executable and not IRInterpreter.emits_text

    def test_c_backend_is_not_executable(self):
        with pytest.raises(NotImplementedError):
            CEmitter().compile_program(Program(protocol="ICMP"))

    def test_interpreter_does_not_emit_text(self):
        function = Function(protocol="ICMP", message_name="x", role="receiver")
        with pytest.raises(NotImplementedError):
            IRInterpreter().emit_function(function)


class TestInterpreterSemantics:
    class RecordingContext:
        """Deterministic ctx double: records calls, answers from arguments."""

        def __init__(self):
            self.calls = []

        def set_field(self, protocol, name, value):
            self.calls.append(("set_field", protocol, name, value))

        def get_field(self, protocol, name):
            self.calls.append(("get_field", protocol, name))
            return (len(protocol) + len(name)) % 4

        def discard(self, reason=""):
            self.calls.append(("discard", reason))

        def send(self, message, destination=""):
            self.calls.append(("send", message, destination))

    def run_interp(self, ops):
        function = Function(protocol="ICMP", message_name="x", role="receiver",
                            ops=ops)
        context = self.RecordingContext()
        IRInterpreter().compile_function(function)(context)
        return context.calls

    def test_discard_stops_execution(self):
        calls = self.run_interp([Discard(reason="bad"), setfield()])
        assert calls == [("discard", "bad")]

    def test_discard_inside_conditional_unwinds(self):
        guarded = Conditional(
            condition=Condition(kind="field_equals", protocol="ip",
                                name="dst", value=1),
            body=[Discard(reason="nested")],
        )
        # ("ip","dst") → (2+3) % 4 == 1 → condition true → discard fires.
        calls = self.run_interp([guarded, setfield()])
        assert calls == [("get_field", "ip", "dst"), ("discard", "nested")]

    def test_false_branch_skips_body(self):
        guarded = Conditional(
            condition=Condition(kind="field_equals", protocol="ip",
                                name="dst", value=2),
            body=[Send(message="never")],
        )
        calls = self.run_interp([guarded, setfield("code", 9)])
        assert calls == [("get_field", "ip", "dst"),
                         ("set_field", "icmp", "code", 9)]


class TestBuilderRoleMetadata:
    def test_default_is_bundled_icmp_set(self):
        assert builder_role("echo") == "sender"
        assert builder_role("echo reply") == "receiver"

    def test_explicit_metadata_overrides(self):
        assert builder_role("echo", sender_built=frozenset()) == "receiver"
        assert builder_role("hello", sender_built=frozenset({"hello"})) == "sender"

    def test_registry_carries_sender_built(self):
        from repro.rfc.registry import default_registry

        registry = default_registry()
        assert registry.sender_built("ICMP") == frozenset(
            {"echo", "timestamp", "information request"}
        )
        assert registry.sender_built("BFD") == frozenset()

    def test_custom_registration_threads_through_roles(self):
        """A fifth protocol's sender-built metadata reaches the generator."""
        from repro.rfc.registry import ProtocolRegistry

        registry = ProtocolRegistry(bundled=False)
        registry.register_protocol("PING2", text="x", sender_built=("probe",))
        built = registry.sender_built("PING2")
        assert builder_role("probe", built) == "sender"
        assert builder_role("probe reply", built) == "receiver"


class TestCompiledProgramCache:
    def test_compile_unit_hits_on_repeat(self):
        from repro.rfc.registry import CompiledProgramCache
        from repro.runtime import compile_unit

        program = Program(protocol="ICMP")
        program.add(Function(protocol="ICMP", message_name="echo",
                             role="sender", ops=[setfield()]))
        cache = CompiledProgramCache()
        first = compile_unit(program, cache=cache)
        second = compile_unit(program, cache=cache)
        assert first is second
        assert cache.stats()["hits"] == 1

    def test_cold_compile_renders_python_once(self, monkeypatch, tmp_path):
        from repro.cache.persistent import PersistentCompiledCache
        from repro.cache.store import CacheStore
        from repro.codegen.emitters import PyEmitter
        from repro.rfc.registry import CompiledProgramCache
        from repro.runtime import compile_unit

        renders = []
        emit_program = PyEmitter.emit_program

        def counting(self, program):
            renders.append(program)
            return emit_program(self, program)

        monkeypatch.setattr(PyEmitter, "emit_program", counting)
        program = Program(protocol="ICMP")
        program.add(Function(protocol="ICMP", message_name="echo",
                             role="sender", ops=[setfield()]))
        functions = compile_unit(program, cache=CompiledProgramCache())
        assert len(renders) == 1
        assert set(functions) == {"icmp_echo_sender"}
        # A disk-backed cache persists that same rendering; a cold second
        # instance over the store execs it without rendering again.
        renders.clear()
        compile_unit(program, cache=PersistentCompiledCache(CacheStore(tmp_path)))
        assert len(renders) == 1
        reloaded = compile_unit(
            program, cache=PersistentCompiledCache(CacheStore(tmp_path)))
        assert len(renders) == 1
        assert set(reloaded) == set(functions)

    def test_backends_cache_independently(self):
        from repro.rfc.registry import CompiledProgramCache
        from repro.runtime import compile_unit

        program = Program(protocol="ICMP")
        program.add(Function(protocol="ICMP", message_name="echo",
                             role="sender", ops=[setfield()]))
        cache = CompiledProgramCache()
        compile_unit(program, backend="python", cache=cache)
        compile_unit(program, backend="interp", cache=cache)
        assert len(cache) == 2
