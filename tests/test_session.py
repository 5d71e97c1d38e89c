"""DisambiguationSession, the decision journal, and the end-to-end
acceptance flow: ICMP flagged sentences resolved through journaled
resolutions reproduce the paper's resolved corpus byte-identically (the
golden C files), with every hop through JSON-serialized contracts and the
``python -m repro`` CLI."""

import io
import pathlib

import pytest

from repro.api import (
    DisambiguationSession,
    ProcessRequest,
    RequestError,
    SageService,
    SentenceNotFound,
    from_json,
    to_json,
)
from repro.api.cli import main as cli_main
from repro.ccg.semantics import signature
from repro.core import SentenceStatus
from repro.disambiguation import (
    DecisionJournal,
    Resolution,
    ResolutionError,
    resolution_for_rewrite,
)
from repro.rfc.corpus import sentence_key
from repro.rfc.registry import ProtocolRegistry, default_registry

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def fresh_session(protocol="ICMP", **kwargs):
    """A session over a journal-only registry (no bundled rewrites)."""
    registry = ProtocolRegistry(bundled_rewrites=False)
    return DisambiguationSession(protocol, registry=registry, **kwargs)


class TestResolutionRecords:
    def test_kinds_are_validated(self):
        with pytest.raises(ResolutionError):
            Resolution(kind="guess", original="x")
        with pytest.raises(ResolutionError):
            Resolution.rewrite("orig", "")  # rewrite needs revised text
        with pytest.raises(ResolutionError):
            Resolution.select_lf("orig", "")
        with pytest.raises(ResolutionError):
            Resolution.rewrite("orig", "new", category="bogus")

    def test_rewrite_round_trip_through_legacy_table(self):
        bundled = default_registry().load_rewrites()
        assert bundled
        for rewrite in bundled:
            lifted = resolution_for_rewrite(rewrite, protocol="ICMP")
            assert lifted.as_rewrite() == rewrite

    def test_journal_latest_wins(self):
        journal = DecisionJournal()
        journal.record(Resolution.annotate("The sentence."))
        journal.record(Resolution.rewrite("The sentence.", "Better text."))
        assert journal.by_key()[sentence_key("The sentence.")].kind == "rewrite"
        assert len(journal) == 2  # append-only: history is preserved

    def test_journal_persistence(self, tmp_path):
        path = tmp_path / "journal.json"
        journal = DecisionJournal(path=path)
        journal.record(Resolution.select_lf("Some sentence.", "@Is('a','b')"))
        reloaded = DecisionJournal.load(path)
        assert reloaded.resolutions == journal.resolutions
        assert reloaded.selections() == {
            sentence_key("Some sentence."): "@Is('a','b')"
        }

    def test_journal_text_is_pinned(self):
        # Key order and omit-when-empty: journals on disk stay readable
        # by, and byte-identical to, what earlier builds wrote.
        journal = DecisionJournal([
            Resolution.rewrite("Old.", "New.", category="unparsed",
                               protocol="ICMP"),
            Resolution.select_lf("S.", "@Is('a','b')", note="n"),
        ])
        assert journal.to_json() == (
            '{\n  "schema": 1,\n  "resolutions": [\n    {\n'
            '      "kind": "rewrite",\n      "original": "Old.",\n'
            '      "protocol": "ICMP",\n      "revised": "New.",\n'
            '      "category": "unparsed"\n    },\n    {\n'
            '      "kind": "select_lf",\n      "original": "S.",\n'
            '      "lf_signature": "@Is(\'a\',\'b\')",\n      "note": "n"\n'
            '    }\n  ]\n}\n'
        )

    def test_loading_a_missing_journal_is_empty_but_bound(self, tmp_path):
        journal = DecisionJournal.load(tmp_path / "new.json")
        assert len(journal) == 0
        journal.record(Resolution.annotate("x y z"))
        assert (tmp_path / "new.json").exists()

    def test_unknown_schema_is_rejected(self):
        with pytest.raises(ResolutionError):
            DecisionJournal.from_json('{"schema": 99, "resolutions": []}')


class TestSessionFlow:
    def test_flagged_enumeration_without_rewrites(self):
        session = fresh_session()
        flagged = session.flagged()
        assert len(flagged) == 8  # the paper's escalated ICMP sentences
        assert {report.status for report in flagged} <= {
            "unparsed", "ambiguous-lf", "ambiguous-ref"
        }
        # per-check provenance rides on every report
        for report in flagged:
            assert "Base" in report.check_counts
            assert "Final Selection" in report.check_counts

    def test_reports_expose_stable_survivors(self):
        session = fresh_session()
        ambiguous = [r for r in session.flagged()
                     if r.status == "ambiguous-lf"]
        assert ambiguous
        report = ambiguous[0]
        sigs = [survivor["signature"] for survivor in report.survivors]
        assert sigs == sorted(sigs)  # the Sem sort key ordering
        assert session.survivors(report.index) == sigs
        # deterministic across a completely fresh pipeline run
        assert fresh_session().survivors(report.index) == sigs

    def test_annotate_resolution_replays(self):
        session = fresh_session()
        report = session.pending()[0]
        before = len(session.pending())
        resolution = session.resolve(report.index, annotate=True, note="test")
        assert resolution.kind == "annotate"
        assert resolution.status_before == report.status
        assert len(session.pending()) == before - 1
        assert session.report(report.index).status == "non-actionable"

    def test_rewrite_resolution_category_defaults(self):
        session = fresh_session()
        unparsed = [r for r in session.flagged() if r.status == "unparsed"][0]
        resolution = session.resolve(
            unparsed.index,
            rewrite="The checksum field is set to 0.",
        )
        assert resolution.category == "unparsed"
        assert session.report(unparsed.index).status == "rewritten"

    def test_select_lf_resolution_forces_the_reading(self):
        session = fresh_session()
        ambiguous = [r for r in session.flagged()
                     if r.status == "ambiguous-lf"][0]
        sigs = session.survivors(ambiguous.index)
        assert len(sigs) > 1
        resolution = session.resolve(ambiguous.index, select_lf=1)
        assert resolution.lf_signature == sigs[1]
        result = session.run.results[ambiguous.index]
        # the chosen reading was routed to code generation
        assert result.logical_form is not None
        assert signature(result.logical_form) == sigs[1]
        assert result.status != SentenceStatus.AMBIGUOUS_LF

    def test_selections_do_not_apply_in_strict_mode(self):
        session = fresh_session(mode="strict")
        ambiguous = [r for r in session.flagged()
                     if r.status == "ambiguous-lf"][0]
        session.resolve(ambiguous.index, select_lf=0)
        assert session.report(ambiguous.index).status == "ambiguous-lf"
        # ...and the ineffective decision does not hide the sentence from
        # the operator's queue
        assert ambiguous.index in [r.index for r in session.pending()]

    def test_ineffective_selection_stays_pending(self):
        session = fresh_session()
        ambiguous = [r for r in session.flagged()
                     if r.status == "ambiguous-lf"][0]
        session.resolve(
            ambiguous.index,
            select_lf="@Bogus('signature','that','matches','nothing')",
        )
        assert session.report(ambiguous.index).status == "ambiguous-lf"
        assert ambiguous.index in [r.index for r in session.pending()]

    def test_resolutions_are_protocol_scoped(self):
        # The checksum-zeroing sentence appears verbatim in both the ICMP
        # and IGMP corpora; a decision made in an ICMP session must not
        # rewrite the IGMP corpus.
        registry = ProtocolRegistry(bundled_rewrites=False)
        shared = "For computing the checksum, the checksum field should be zero."
        service = SageService(registry=registry)
        igmp_before = service.process(ProcessRequest(protocol="IGMP")).status_counts

        session = service.session("ICMP")
        session.resolve(shared, annotate=True)
        assert session.report(shared).status == "non-actionable"
        igmp_after = service.process(ProcessRequest(protocol="IGMP")).status_counts
        assert igmp_after == igmp_before

        # a deliberately protocol-less resolution applies everywhere
        session.resolve(resolution=Resolution.annotate(shared))
        igmp_global = service.process(ProcessRequest(protocol="IGMP")).status_counts
        assert igmp_global != igmp_before

    def test_resolve_by_text_selector(self):
        session = fresh_session()
        report = session.flagged()[0]
        resolution = session.resolve(report.text, annotate=True)
        assert resolution.original == report.text

    def test_selector_errors(self):
        session = fresh_session()
        with pytest.raises(SentenceNotFound):
            session.report(10_000)
        with pytest.raises(SentenceNotFound):
            session.report("no such sentence anywhere")
        with pytest.raises(RequestError):
            session.resolve(0, rewrite="x", annotate=True)
        with pytest.raises(RequestError):
            session.resolve(0)

    def test_sessions_share_a_journal_through_the_service(self, tmp_path):
        registry = ProtocolRegistry(bundled_rewrites=False)
        journal = DecisionJournal(path=tmp_path / "shared.json")
        service = SageService(registry=registry, journal=journal)
        session = service.session("ICMP")
        assert session.journal is journal
        session.resolve(session.flagged()[0].index, annotate=True)
        # the service's own endpoints see the journaled decision
        response = service.process(ProcessRequest(protocol="ICMP"))
        assert response.status_counts.get("non-actionable", 0) > 0
        assert (tmp_path / "shared.json").exists()

    def test_selecting_the_encapsulation_reading_generates_it(self):
        """"X are transmitted as udp datagrams" keeps two readings; the
        operator's select_lf of @EncapsulatedIn is the path that reaches
        its handler and both text emitters."""
        registry = ProtocolRegistry()
        registry.register_protocol("TOYT", text=(
            "RFC: 9998\nTOY TRANSPORT\n\nToy Data Message\n\n"
            "   Description\n\n"
            "      Toy messages are transmitted as udp datagrams.\n"))
        session = DisambiguationSession("TOYT", registry=registry)
        [report] = session.flagged()
        assert report.status == "ambiguous-lf"
        chosen = "@EncapsulatedIn('toy_messages','udp_datagrams')"
        assert chosen in [s["signature"] for s in report.survivors]
        session.resolve(report.index, select_lf=chosen)
        assert session.flagged() == []
        [program] = session.run.code_unit.programs
        assert "encapsulate_udp(hdr);" in program.render_c()
        assert "ctx.encapsulate('udp')" in program.render_python()


class TestEndToEndGoldenReplay:
    """The acceptance flow: enumerate ICMP's flagged sentences, journal the
    paper's resolutions, and show a replayed fresh run reproduces the
    resolved corpus byte-identically — via JSON contracts and the CLI."""

    @pytest.fixture()
    def journaled(self, tmp_path):
        journal_path = tmp_path / "icmp_decisions.json"
        session = fresh_session(journal_path=journal_path)

        # The operator's queue: every flagged sentence, with provenance.
        flagged_keys = {report.key for report in session.flagged()}
        assert flagged_keys  # there is real work to do

        # The paper's decisions (Table 5/6), lifted from the legacy table
        # into journaled resolutions — each one serialized to JSON and back
        # before being applied, exercising the wire contract end to end.
        for rewrite in default_registry().load_rewrites():
            resolution = resolution_for_rewrite(rewrite, protocol="ICMP")
            session.resolve(resolution=from_json(to_json(resolution)))
        return session, journal_path

    def test_replay_reproduces_the_golden_c(self, journaled):
        session, _path = journaled
        golden = (GOLDEN_DIR / "icmp_revised.c").read_text()
        assert session.run.code_unit.render_c() + "\n" == golden
        # nothing is left for the operator
        assert session.flagged() == []
        assert session.run.by_status()["rewritten"] == 10

    def test_a_fresh_run_over_the_saved_journal_reproduces_it(self, journaled):
        _session, journal_path = journaled
        golden = (GOLDEN_DIR / "icmp_revised.c").read_text()
        # brand-new registry, brand-new session, only the journal carries
        # the decisions — the governance property.
        replayed = fresh_session(journal_path=journal_path)
        assert replayed.run.code_unit.render_c() + "\n" == golden

    def test_the_json_response_flow_matches_the_bundled_run(self, journaled):
        _session, journal_path = journaled
        registry = ProtocolRegistry(bundled_rewrites=False)
        service = SageService(registry=registry,
                              journal=DecisionJournal.load(journal_path))
        request_json = to_json(ProcessRequest(protocol="ICMP",
                                              artifacts=("c",)))
        response = from_json(to_json(service.process(request_json)))
        bundled = SageService(registry=ProtocolRegistry()).process(
            ProcessRequest(protocol="ICMP", artifacts=("c",))
        )
        assert response.status_counts == bundled.status_counts
        assert response.artifacts[0].fingerprint == bundled.artifacts[0].fingerprint
        assert response.artifacts[0].source == bundled.artifacts[0].source

    def test_the_cli_emits_the_golden_c_from_the_journal(self, journaled,
                                                         tmp_path):
        _session, journal_path = journaled
        target = tmp_path / "replayed_icmp.c"
        out = io.StringIO()
        code = cli_main([
            "emit", "ICMP", "--backend", "c",
            "--journal", str(journal_path), "--no-bundled-rewrites",
            "--output", str(target),
        ], out=out)
        assert code == 0
        assert target.read_text() == (GOLDEN_DIR / "icmp_revised.c").read_text()

    def test_strict_mode_still_matches_its_golden(self, journaled):
        # Annotations (like the bundled table's non-actionable entries)
        # apply in both modes; rewrites and selections are revised-mode
        # only.  A strict run over the same journal therefore reproduces
        # the strict golden byte-identically.
        _session, journal_path = journaled
        session = fresh_session(mode="strict", journal_path=journal_path)
        golden = (GOLDEN_DIR / "icmp_strict.c").read_text()
        assert session.run.code_unit.render_c() + "\n" == golden
