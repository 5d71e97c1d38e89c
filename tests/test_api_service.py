"""The SageService front door and the ``python -m repro`` CLI."""

import io
import json
import multiprocessing
import os
import pathlib

import pytest

from repro.api import (
    BackendNotFound,
    ProcessRequest,
    ProcessResponse,
    ProtocolNotFound,
    RequestError,
    SageService,
    SweepRequest,
    SweepResponse,
    from_json,
    to_json,
)
from repro.api import binenc
from repro.api.cli import main as cli_main
from repro.core import SageEngine
from repro.framework.addressing import ip_to_int
from repro.framework.icmp import ECHO_REPLY, ICMPHeader, make_echo
from repro.framework.ip import PROTO_ICMP, IPv4Header, make_ip_packet
from repro.rfc.registry import ProtocolRegistry
from repro.runtime import ExecutionContext, GeneratedICMP

PROTOCOLS = ("ICMP", "IGMP", "NTP", "BFD")


@pytest.fixture(scope="module")
def service():
    return SageService()  # default registry: warm shared substrate


class TestProcess:
    def test_process_matches_the_engine(self, service):
        response = service.process(ProcessRequest(protocol="ICMP"))
        run = SageEngine(mode="revised").process_corpus("ICMP")
        assert response.protocol == "ICMP"
        assert response.sentence_count == len(run.results)
        assert response.status_counts == {
            str(status): count for status, count in run.by_status().items()
        }
        assert response.flagged_count == len(run.flagged())
        assert len(response.sentences) == len(run.results)

    def test_request_forms_are_equivalent(self, service):
        from_object = service.process(ProcessRequest(protocol="BFD"))
        from_dict = service.process({"protocol": "BFD"})
        from_json_text = service.process(
            to_json(ProcessRequest(protocol="BFD"))
        )
        from_kwargs = service.process(protocol="BFD")
        assert from_object == from_dict == from_json_text == from_kwargs

    def test_include_sentences_false_omits_reports(self, service):
        response = service.process(ProcessRequest(protocol="IGMP",
                                                  include_sentences=False))
        assert response.sentences == []
        assert response.sentence_count > 0

    def test_artifact_rendering_matches_the_run(self, service):
        response = service.process(ProcessRequest(protocol="ICMP",
                                                  artifacts=("c",)))
        run = service.run("ICMP")
        assert response.artifacts[0].source == run.code_unit.render_c()
        assert response.artifacts[0].fingerprint == run.code_unit.fingerprint()

    def test_one_engine_per_mode(self):
        service = SageService(ProtocolRegistry())
        engine = service.engine("revised")
        assert service.engine() is engine
        assert service.engine("strict") is not engine
        assert service.engine("strict") is service.engine("strict")

    def test_strict_mode_flags_sentences(self, service):
        response = service.process(ProcessRequest(protocol="ICMP",
                                                  mode="strict"))
        assert response.flagged_count > 0
        assert [r for r in response.flagged() if r.status == "ambiguous-lf"]


class TestSweep:
    def test_sweep_covers_every_registered_protocol(self, service):
        response = service.sweep(SweepRequest(parallel=False))
        assert response.protocols == list(PROTOCOLS)
        for name in PROTOCOLS:
            assert response.responses[name].sentence_count > 0

    def test_sweep_subset_and_case_folding(self, service):
        response = service.sweep(SweepRequest(protocols=("icmp", "bfd"),
                                              parallel=False))
        assert response.protocols == ["ICMP", "BFD"]

    def test_sweep_matches_per_protocol_process(self, service):
        sweep = service.sweep(SweepRequest(parallel=False,
                                           include_sentences=True))
        for name in PROTOCOLS:
            single = service.process(ProcessRequest(protocol=name))
            assert sweep.responses[name] == single

    def test_default_sweep_runs_in_process(self, service, monkeypatch):
        # ``parallel`` is accepted and ignored: the default sweep is the
        # ``parallel=False`` sweep, byte for byte, and forks nothing.
        def no_fork():
            raise AssertionError("a sweep must not fork")

        monkeypatch.setattr(os, "fork", no_fork)
        default = service.sweep(SweepRequest())
        assert multiprocessing.active_children() == []
        explicit = service.sweep(SweepRequest(parallel=False))
        assert default.parallel_workers == 0
        assert to_json(default) == to_json(explicit)
        assert binenc.to_bytes(default) == binenc.to_bytes(explicit)

    def test_sweep_round_trips(self, service):
        response = service.sweep(SweepRequest(parallel=False))
        back = from_json(to_json(response))
        assert isinstance(back, SweepResponse)
        assert back == response


class TestArtifacts:
    def test_artifact_executes_after_the_wire(self, service):
        artifact_json = to_json(service.artifact("ICMP", backend="python"))
        implementation = GeneratedICMP.from_artifact(artifact_json)
        echo = make_echo(0x42, 7, b"service-layer")
        request = make_ip_packet(
            ip_to_int("10.0.1.100"), ip_to_int("10.0.1.1"), PROTO_ICMP,
            echo.pack(),
        )
        reply_bytes = implementation.echo_reply(request, ip_to_int("10.0.1.1"))
        reply = ICMPHeader.unpack(IPv4Header.unpack(reply_bytes).data)
        assert reply.type == ECHO_REPLY
        assert reply.identifier == 0x42
        assert reply.payload == b"service-layer"

    def test_interp_artifact_is_self_contained(self, service):
        artifact = service.artifact("ICMP", backend="interp")
        assert artifact.source == ""  # the interpreter emits no text
        implementation = GeneratedICMP.from_artifact(artifact,
                                                     backend="interp")
        assert implementation.builder("icmp_echo_reply_receiver") is not None

    def test_non_executable_artifact_falls_back_to_python(self, service):
        implementation = GeneratedICMP.from_artifact(
            service.artifact("ICMP", backend="c")
        )
        assert implementation.builder("icmp_echo_reply_receiver") is not None


class TestErrors:
    def test_unknown_protocol(self, service):
        with pytest.raises(ProtocolNotFound) as excinfo:
            service.process(ProcessRequest(protocol="QUIC"))
        payload = excinfo.value.to_dict()
        assert payload["error"] == "protocol-not-found"
        assert payload["known"] == list(PROTOCOLS)

    def test_unknown_protocol_in_sweep(self, service):
        with pytest.raises(ProtocolNotFound):
            service.sweep(SweepRequest(protocols=("ICMP", "QUIC")))

    def test_unknown_backend(self, service):
        with pytest.raises(BackendNotFound):
            service.artifact("ICMP", backend="rust")
        with pytest.raises(BackendNotFound) as excinfo:
            service.process(ProcessRequest(protocol="ICMP",
                                           artifacts=("rust",)))
        payload = excinfo.value.to_dict()
        assert payload["error"] == "backend-not-found"
        assert payload["backend"] == "rust"
        assert "c" in payload["known"]

    def test_bad_mode(self, service):
        with pytest.raises(RequestError):
            service.run("ICMP", mode="casual")

    def test_request_object_plus_kwargs_rejected(self, service):
        with pytest.raises(RequestError):
            service.process(ProcessRequest(protocol="ICMP"), protocol="BFD")


class TestCli:
    def _run(self, argv):
        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    def test_process_json_is_a_contract_payload(self):
        code, output = self._run(["process", "ICMP", "--json"])
        assert code == 0
        response = from_json(output)
        assert isinstance(response, ProcessResponse)
        assert response.status_counts["ok"] > 0

    def test_sweep_all_json(self):
        code, output = self._run(["sweep", "--all", "--json"])
        assert code == 0
        response = from_json(output)
        assert isinstance(response, SweepResponse)
        assert response.protocols == list(PROTOCOLS)

    def test_compare_parses_every_sentence_on_a_warm_store(self, tmp_path):
        store = str(tmp_path / "store")
        assert self._run(["parse", "IGMP", "--cache-dir", store])[0] == 0
        code, output = self._run(["parse", "IGMP", "--compare",
                                  "--cache-dir", store, "--json"])
        assert code == 0
        data = json.loads(output)["data"]
        assert data["parity"] is True
        assert set(data["backends"]) == {"reference", "indexed"}
        for name, report in data["backends"].items():
            assert report["parser_backend"] == name
            assert report["parsed_from_cache"] == 0
            assert report["sentence_count"] > 0

    def test_process_human_output(self):
        code, output = self._run(["process", "ICMP", "--artifact", "c"])
        assert code == 0
        assert output.startswith("ICMP (revised mode): 87 sentences")
        assert "artifact: c (" in output

    def test_winnow_profile_human_output(self):
        code, output = self._run(["winnow", "ICMP", "--profile"])
        assert code == 0
        assert "still ambiguous:" in output

    def test_sweep_without_targets_fails_structured(self, capsys):
        assert cli_main(["sweep"]) == 2
        assert "bad-request" in capsys.readouterr().err

    def test_unknown_protocol_exits_3(self, capsys):
        # Not-found failures exit 3, distinct from bad-request's 2 —
        # aligned with the ApiError code family across all subcommands.
        assert cli_main(["process", "QUIC"]) == 3
        assert "protocol-not-found" in capsys.readouterr().err

    def test_emit_writes_the_rendered_source(self, tmp_path):
        target = tmp_path / "icmp.c"
        code, _output = self._run(["emit", "ICMP", "--backend", "c",
                                   "--output", str(target)])
        assert code == 0
        service = SageService()
        assert target.read_text() == service.run("ICMP").code_unit.render_c() + "\n"

    def test_resolve_list_human_output(self):
        code, output = self._run(["resolve", "ICMP", "--no-bundled-rewrites",
                                  "--list"])
        assert code == 0
        assert "flagged sentences" in output
        assert "[unparsed]" in output

    def test_resolve_json_reports(self):
        code, output = self._run(["resolve", "ICMP", "--no-bundled-rewrites",
                                  "--pending", "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["kind"] == "sentence_report_list"
        assert payload["data"]["reports"]

    def test_resolve_without_journal_is_refused(self, capsys):
        # the decision would die with the process while claiming success
        code = cli_main(["resolve", "ICMP", "--no-bundled-rewrites",
                         "--sentence", "5", "--annotate"])
        assert code == 2
        assert "bad-request" in capsys.readouterr().err

    def test_malformed_journal_is_a_structured_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("this is not json")
        code = cli_main(["resolve", "ICMP", "--journal", str(bad),
                         "--pending"])
        assert code == 2
        assert "bad-request" in capsys.readouterr().err

    @pytest.mark.parametrize("journal", [
        '{"schema": 1, "resolutions": [{"original": "x"}]}',
        '{"schema": 1, "resolutions": [{"kind": "annotate", "original": 5}]}',
        '[1]',
    ], ids=["missing-kind", "mistyped-original", "not-an-object"])
    def test_malformed_journal_entry_is_a_structured_error(
            self, tmp_path, capsys, journal):
        path = tmp_path / "journal.json"
        path.write_text(journal)
        code = cli_main(["process", "ICMP", "--journal", str(path), "--json"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "bad-request"

    def test_unknown_backend_fails_before_the_run(self, service):
        with pytest.raises(BackendNotFound):
            service.artifact("ICMP", backend="rust")

    def test_resolve_and_replay_via_journal(self, tmp_path):
        journal = tmp_path / "journal.json"
        code, output = self._run([
            "resolve", "ICMP", "--no-bundled-rewrites",
            "--journal", str(journal), "--sentence", "5", "--annotate",
            "--note", "cli test", "--replay", "--json",
        ])
        assert code == 0
        assert journal.exists()
        lines = output.strip().splitlines()
        resolution = from_json(lines[0])
        assert resolution.kind == "annotate"
        replayed = from_json(lines[1])
        # replaying the journal: one fewer flagged sentence than a bare
        # no-rewrites run
        code2, bare = self._run(["process", "ICMP", "--no-bundled-rewrites",
                                 "--json"])
        assert code2 == 0
        assert replayed.flagged_count == from_json(bare).flagged_count - 1
