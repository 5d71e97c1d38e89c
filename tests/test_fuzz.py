"""Tests for the differential scenario fuzzer (repro.fuzz).

Covers the generator's determinism, the runner's divergence detection
(including an injected broken peer proving the harness actually catches
disagreement), the oracles, the shrinker's case-file round trip, the
interop matrix artifact, the service/CLI surface, and the seed-0 trace
digest pinned in ``tests/golden/fuzz_digest.json``.
"""

import json
import pathlib

import pytest

from repro.api.cli import main as cli_main
from repro.api.errors import RequestError
from repro.api.service import SageService
from repro.core.engine import SageEngine
from repro.fuzz import (
    EXECUTABLE_BACKENDS,
    FAMILIES,
    PROTOCOLS,
    DifferentialRunner,
    Episode,
    InteropMatrix,
    TraceGenerator,
    check_trace,
    first_difference,
    load_case,
    register_oracle,
    register_peer,
    run_fuzz,
    save_case,
    shrink,
)
from repro.fuzz.oracles import ORACLES
from repro.fuzz.scenarios import _PEER_FACTORIES

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def units():
    runs = SageEngine(mode="revised").process_corpora(list(PROTOCOLS))
    return {name: run.code_unit for name, run in runs.items()}


class TestTraceGenerator:
    def test_same_seed_reproduces_episodes_exactly(self):
        first = [e.to_dict() for e in TraceGenerator(seed=5).episodes(24)]
        second = [e.to_dict() for e in TraceGenerator(seed=5).episodes(24)]
        assert first == second

    def test_different_seeds_differ(self):
        first = [e.to_dict() for e in TraceGenerator(seed=5).episodes(24)]
        second = [e.to_dict() for e in TraceGenerator(seed=6).episodes(24)]
        assert first != second

    def test_one_pass_covers_every_family(self):
        total_families = sum(len(fams) for fams in FAMILIES.values())
        episodes = TraceGenerator(seed=0).episodes(total_families)
        assert {(e.protocol, e.family) for e in episodes} == {
            (protocol, family)
            for protocol, fams in FAMILIES.items() for family in fams
        }

    def test_protocol_filter(self):
        episodes = TraceGenerator(seed=0, protocols=("ntp",)).episodes(6)
        assert {e.protocol for e in episodes} == {"NTP"}

    def test_family_filter(self):
        episodes = TraceGenerator(seed=0, families=("ping",)).episodes(4)
        assert {(e.protocol, e.family) for e in episodes} == {("ICMP", "ping")}

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            TraceGenerator(protocols=("SMTP",))

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            TraceGenerator(families=("warp-speed",))

    def test_episode_json_round_trip(self):
        episode = TraceGenerator(seed=9).episodes(1)[0]
        assert Episode.from_json(episode.to_json()) == episode


class TestFirstDifference:
    def test_equal_values(self):
        assert first_difference({"a": [1, {"b": 2}]}, {"a": [1, {"b": 2}]}) is None

    def test_nested_path(self):
        found = first_difference({"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}})
        assert found == ("a.b[1]", 2, 3)

    def test_list_length(self):
        assert first_difference({"a": [1]}, {"a": [1, 2]}) == ("a.length", 1, 2)

    def test_missing_key(self):
        assert first_difference({}, {"a": 1}) == ("a", None, 1)

    def test_scalar_root(self):
        assert first_difference(1, 2) == ("<root>", 1, 2)


class TestDifferentialRunner:
    def test_needs_two_backends(self, units):
        with pytest.raises(ValueError):
            DifferentialRunner(units, backends=("reference",))

    def test_small_campaign_is_clean(self, units):
        report = run_fuzz(units, seed=0, episodes=12)
        assert report.clean
        assert report.episodes == 12
        assert report.matrix.all_green
        assert not report.divergences and not report.violations
        assert all(entry["stable"]
                   for entry in report.c_fingerprints.values())
        assert set(report.c_fingerprints) == set(PROTOCOLS)

    def test_same_seed_same_trace_digest(self, units):
        first = run_fuzz(units, seed=42, episodes=8)
        second = run_fuzz(units, seed=42, episodes=8)
        assert first.traces_sha1 == second.traces_sha1

    def test_report_round_trips_through_json(self, units):
        report = run_fuzz(units, seed=0, episodes=4, protocols=("IGMP",))
        decoded = json.loads(json.dumps(report.to_dict()))
        assert decoded["clean"] is True
        assert decoded["matrix"]["all_green"] is True

    def test_broken_peer_is_caught_and_shrinks(self, units):
        """A peer that always fires its timeout must split the matrix —
        and the divergence must shrink to a still-failing episode."""
        class _EagerNTP:
            @staticmethod
            def timeout_predicate(peer):
                return True

        register_peer("NTP", "eager", lambda unit: _EagerNTP())
        try:
            report = run_fuzz(units, seed=1, episodes=6,
                              protocols=("NTP",),
                              backends=("reference", "eager"))
            assert report.divergences
            assert not report.matrix.all_green
            assert not report.clean
            assert report.matrix.divergent_cells
            runner = DifferentialRunner(units,
                                        backends=("reference", "eager"))
            smallest = shrink(report.divergences[0].episode, runner.diverges)
            assert runner.diverges(smallest)
            # Shrinking only simplifies params, never the episode identity.
            assert smallest.protocol == "NTP"
            assert smallest.seed == report.divergences[0].episode.seed
        finally:
            _PEER_FACTORIES.pop(("NTP", "eager"))


class TestOneOracleRunPerDistinctTrace:
    """Oracles are pure in (episode, trace), so the runner checks each
    distinct trace once and reports its verdict for every backend."""

    def test_always_flagging_oracle_reports_once_per_backend(self, units):
        calls = []

        def always_flags(episode, trace):
            calls.append(trace)
            return ["synthetic violation"]

        episode = TraceGenerator(seed=3, protocols=("IGMP",)).episodes(1)[0]
        register_oracle("IGMP", always_flags)
        try:
            divergences, violations, traces = DifferentialRunner(
                units).run_episode(episode)
        finally:
            ORACLES["IGMP"].remove(always_flags)
        assert not divergences
        synthetic = [v for v in violations
                     if v.message == "synthetic violation"]
        assert sorted(v.backend for v in synthetic) == sorted(
            EXECUTABLE_BACKENDS)
        assert len(synthetic) == 3
        # The three backends agreed, so the oracle ran on one trace.
        assert len(calls) == 1
        assert calls[0] == traces["reference"]

    def test_diverging_trace_gets_its_own_oracle_run(self, units):
        class _EagerNTP:
            @staticmethod
            def timeout_predicate(peer):
                return True

        seen = []

        def record(episode, trace):
            seen.append(trace)
            return []

        register_peer("NTP", "eager", lambda unit: _EagerNTP())
        register_oracle("NTP", record)
        try:
            runner = DifferentialRunner(
                units, backends=("reference", "python", "eager"))
            episodes = TraceGenerator(seed=1, protocols=("NTP",)).episodes(6)
            episode = next(e for e in episodes if runner.diverges(e))
            seen.clear()
            divergences, _violations, traces = runner.run_episode(episode)
        finally:
            ORACLES["NTP"].remove(record)
            _PEER_FACTORIES.pop(("NTP", "eager"))
        assert traces["reference"] == traces["python"]
        assert traces["eager"] != traces["reference"]
        assert {(d.backend_a, d.backend_b) for d in divergences} == {
            ("reference", "eager"), ("python", "eager")}
        # reference and python share one run; eager gets its own.
        assert len(seen) == 2
        assert seen[0] == traces["reference"]
        assert seen[1] == traces["eager"]


class TestOracles:
    def test_registered_oracle_runs_and_reports(self):
        episode = Episode(protocol="IGMP", family="query", seed=0, params={})

        def always_flags(ep, trace):
            return ["synthetic violation"]

        register_oracle("IGMP", always_flags)
        try:
            assert "synthetic violation" in check_trace(episode, {})
        finally:
            ORACLES["IGMP"].remove(always_flags)

    def test_bfd_state_oracle_flags_illegal_state(self):
        episode = Episode(protocol="BFD", family="packet-storm", seed=0,
                          params={})
        trace = {"steps": [{"snapshot": {"SessionState": 9,
                                         "RemoteSessionState": 1}}]}
        violations = check_trace(episode, trace)
        assert violations and "SessionState=9" in violations[0]

    def test_ntp_oracle_flags_unreset_timer(self):
        episode = Episode(protocol="NTP", family="timeout", seed=0, params={})
        trace = {"trajectory": [[3, 1, "dead"]], "emitted": []}
        violations = check_trace(episode, trace)
        assert violations and "reset" in violations[0]


class TestShrink:
    def test_shrinks_lists_and_scalars(self):
        episode = Episode(protocol="NTP", family="timeout", seed=0,
                          params={"count": 9, "items": [1, 2, 3, 4]})

        def still_fails(candidate):
            return candidate.params.get("count", 0) >= 3

        smallest = shrink(episode, still_fails)
        assert still_fails(smallest)
        assert smallest.params["count"] < 9
        assert smallest.params["items"] == []  # irrelevant list emptied

    def test_refuses_passing_episode(self):
        episode = Episode(protocol="NTP", family="timeout", seed=0, params={})
        with pytest.raises(ValueError):
            shrink(episode, lambda candidate: False)

    def test_case_file_round_trip(self, tmp_path):
        episode = TraceGenerator(seed=3).episodes(1)[0]
        path = save_case(episode, tmp_path, note="unit test")
        assert load_case(path) == episode
        payload = json.loads(path.read_text())
        assert payload["kind"] == "fuzz_case"
        assert payload["note"] == "unit test"

    def test_load_case_rejects_other_kinds(self, tmp_path):
        path = tmp_path / "not_a_case.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError):
            load_case(path)


class TestInteropMatrix:
    def test_records_and_scores_cells(self):
        matrix = InteropMatrix.for_backends(("a", "b", "c"))
        assert matrix.pairs == ("a|b", "a|c", "b|c")
        matrix.record("a|b", "NTP", "timeout", diverged=False)
        matrix.record("a|b", "NTP", "timeout", diverged=True)
        assert not matrix.all_green
        assert matrix.divergent_cells == [("a|b", "NTP", "timeout")]
        cell = matrix.cell("a|b", "NTP", "timeout")
        assert (cell.episodes, cell.divergences) == (2, 1)
        assert matrix.rows()[0][-1] == "DIVERGED"

    def test_unclean_report_serializes_its_findings(self):
        """What `repro fuzz --json` prints when a campaign finds a fault:
        each divergence and violation names its episode."""
        from repro.fuzz import Divergence, FuzzReport, Violation

        episode = Episode(protocol="NTP", family="timeout", seed=0, params={})
        report = FuzzReport(
            seed=0, backends=("reference", "python"), episodes=1,
            divergences=[Divergence(episode, "reference", "python",
                                    "[0].sent", 1, 2)],
            violations=[Violation(episode, "python", "sent nothing")])
        data = json.loads(json.dumps(report.to_dict()))
        assert not data["clean"]
        assert data["divergences"] == [{
            "episode": episode.to_dict(), "pair": "reference|python",
            "path": "[0].sent", "left": 1, "right": 2}]
        assert data["violations"] == [{
            "episode": episode.to_dict(), "backend": "python",
            "message": "sent nothing"}]


class TestServiceAndCli:
    def test_seed_zero_campaign_matches_pinned_digest(self):
        """The campaign ``scripts/ci.sh fuzz-gate`` runs: any change to
        any replayed trace moves its digest off the golden pin."""
        pin = json.loads((GOLDEN_DIR / "fuzz_digest.json").read_text())
        report = SageService().fuzz(seed=pin["seed"],
                                    episodes=pin["episodes"])
        assert report["clean"] is True
        assert report["traces_sha1"] == pin["traces_sha1"]

    def test_service_fuzz_endpoint(self):
        report = SageService().fuzz(seed=0, episodes=3, protocols=("IGMP",))
        assert report["clean"] is True
        assert report["episodes"] == 3
        assert report["matrix"]["pairs"] == [
            "reference|python", "reference|interp", "python|interp"]

    def test_service_fuzz_rejects_unknown_protocol(self):
        with pytest.raises(RequestError):
            SageService().fuzz(protocols=("SMTP",))

    def test_service_fuzz_rejects_unknown_family(self):
        with pytest.raises(RequestError):
            SageService().fuzz(families=("warp-speed",))

    def test_cli_fuzz_json_campaign(self, capsys):
        import io

        out = io.StringIO()
        code = cli_main(["fuzz", "--seed", "0", "--episodes", "2",
                         "--protocol", "IGMP", "--json"], out=out)
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["kind"] == "fuzz_report"
        assert payload["data"]["clean"] is True
        assert payload["data"]["cases"] == []

    def test_cli_replay_round_trip(self, tmp_path):
        import io

        episode = TraceGenerator(seed=0, protocols=("IGMP",)).episodes(1)[0]
        path = save_case(episode, tmp_path)
        out = io.StringIO()
        code = cli_main(["fuzz", "--replay", str(path), "--json"], out=out)
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["kind"] == "fuzz_replay"
        assert payload["data"]["clean"] is True
