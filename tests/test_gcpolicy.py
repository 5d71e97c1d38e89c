"""The garbage-collector policy (DESIGN.md §10.5): one window for cold
batch work, frozen survivors, a release wherever memos are dropped."""

import gc
import json

import pytest

from repro.api.contracts import ProcessRequest, SweepRequest, to_json
from repro.api.service import SageService
from repro.ccg.chart import CCGChartParser
from repro.core import SageEngine
from repro.core.stages import ParseStage
from repro.disambiguation.checks import reset_winnow_state
from repro.gcpolicy import cold_batch_gc, release
from repro.parsing.indexed import reset_parser_state
from repro.rfc.registry import ProtocolRegistry
from repro.server.pool import run_endpoint

ALL_PROTOCOLS = ("ICMP", "IGMP", "NTP", "BFD")


def process_cold():
    """A process-cold state: every parser and winnow memo dropped."""
    reset_parser_state()
    reset_winnow_state()


def cold_sweep(mode="revised"):
    """A process-cold four-protocol batch on a fresh registry."""
    process_cold()
    engine = SageEngine(mode=mode, protocol_registry=ProtocolRegistry())
    return engine.process_corpora()


def reference_parse():
    """Cold ``parse_batch`` of every protocol through the reference chart
    parser (the ``parse --compare`` baseline side)."""
    process_cold()
    registry = ProtocolRegistry()
    stage = ParseStage(CCGChartParser(registry.lexicon()), registry.chunker(),
                       cache=registry.parse_cache())
    return {name: stage.run_batch(registry.load_corpus(name).sentences)
            for name in ALL_PROTOCOLS}


def fuzz_campaign():
    """The fuzz endpoint's cold compile plus a short campaign."""
    process_cold()
    return SageService(ProtocolRegistry()).fuzz(seed=0, episodes=5)


@pytest.fixture
def collections():
    """The generation of every collection started while the test runs."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    yield started
    gc.callbacks.remove(record)


class TestWindow:
    def test_window_restores_the_collector_as_found(self):
        assert gc.isenabled()
        with cold_batch_gc():
            assert not gc.isenabled()
            with cold_batch_gc():  # nested windows do nothing
                pass
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_window_restores_the_collector_when_the_body_raises(self):
        frozen = gc.get_freeze_count()
        with pytest.raises(RuntimeError):
            with cold_batch_gc():
                raise RuntimeError("mid-batch failure")
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen  # a failed batch freezes nothing

    def test_window_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        try:
            with cold_batch_gc():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestFreezeInvariant:
    @pytest.mark.parametrize("batch", [
        cold_sweep,
        lambda: cold_sweep("strict"),
        reference_parse,
        fuzz_campaign,
    ], ids=["revised", "strict", "reference-parse-batch", "fuzz"])
    def test_cold_batch_freezes_no_cyclic_garbage(self, batch):
        # What freezing a batch's survivors relies on: nothing frozen
        # dies in a cycle until memos are dropped.  Unfrozen garbage
        # (made after the window) is collected first, the normal way.
        assert batch()
        assert gc.get_freeze_count() > 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            release()  # outside a window this only unfreezes
            gc.collect()
            saved = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert saved == 0

    def test_reset_parser_state_unfreezes_everything(self):
        cold_sweep()
        assert gc.get_freeze_count() > 0
        reset_parser_state()
        assert gc.get_freeze_count() == 0


class TestOneFullCollection:
    def test_cold_op_runs_one_full_collection(self, collections, tmp_path):
        # One benchmark-style cold compile: memos reset, a fresh registry
        # over an empty store, every protocol.  The reset only unfreezes;
        # the window's entry collection is the op's one full collection.
        cold_sweep()  # leaves frozen survivors, as a previous op does
        collections.clear()
        process_cold()
        engine = SageEngine(protocol_registry=ProtocolRegistry(
            cache_dir=tmp_path))
        assert engine.process_corpora()
        assert collections.count(2) == 1

    def test_release_inside_a_window_collects(self, collections):
        with cold_batch_gc():
            collections.clear()
            release()
        assert collections == [2]


class TestNoLeak:
    def test_reset_and_cold_batch_cycles_do_not_leak(self):
        # Without the release at reset, each cycle pins the previous
        # registry's and memos' cycles in the frozen generation for good:
        # about 11k objects (1.6%) per cycle.  The first cycle is a
        # warm-up (intern tables survive resets and may still grow).
        cold_sweep()
        sizes = []
        for _ in range(3):
            cold_sweep()
            sizes.append(len(gc.get_objects()) + gc.get_freeze_count())
        assert max(sizes) <= min(sizes) * 1.01, sizes

    def test_server_style_requests_do_not_leak(self):
        # A server worker never resets its parser memos: it serves request
        # after request, and each cold run freezes whatever is alive at
        # its end, request-scoped objects included (a session builds an
        # engine per request).  Clearing the run memo makes every round
        # recompute its runs, as new decision tables do in a worker; an
        # engine that died in a cycle would pin ~100 objects per request.
        process_cold()
        service = SageService(ProtocolRegistry())

        def serve_mix():
            for endpoint, params in (
                    ("session", {"protocol": "ICMP"}),
                    ("session", {"protocol": "IGMP", "pending": True}),
                    ("parse", {"protocol": "BFD"}),
                    ("parse", {"protocol": "IGMP"})):
                status, _, body = run_endpoint(service, endpoint,
                                               params=params)
                assert status == 200, json.loads(body)
            for body in (ProcessRequest(protocol="ICMP"),
                         ProcessRequest(protocol="BFD", mode="strict"),
                         ProcessRequest(protocol="NTP")):
                status, _, _ = run_endpoint(service, "process",
                                            to_json(body).encode())
                assert status == 200
            status, _, _ = run_endpoint(
                service, "sweep", to_json(SweepRequest()).encode())
            assert status == 200

        serve_mix()  # warm-up: the stage caches fill here
        sizes = []
        for _ in range(3):
            service.registry.run_cache().clear()
            serve_mix()
            gc.collect()
            sizes.append(len(gc.get_objects()) + gc.get_freeze_count())
        assert max(sizes) - min(sizes) < 50, sizes


class TestWarmPathsSkipTheCollector:
    def test_run_memo_hit_never_touches_the_collector(self, collections):
        engine = SageEngine(mode="revised",
                            protocol_registry=ProtocolRegistry())
        engine.process_corpora()
        frozen = gc.get_freeze_count()
        gc.disable()  # only an explicit collection can start now
        try:
            collections.clear()
            engine.process_corpora()
            engine.process_corpus("ICMP")
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert collections == []
        assert gc.get_freeze_count() == frozen

    def test_cached_parse_batch_never_touches_the_collector(self, collections):
        service = SageService(ProtocolRegistry())
        service.parse_diagnostics("ICMP")
        frozen = gc.get_freeze_count()
        gc.disable()
        try:
            collections.clear()
            report = service.parse_diagnostics("ICMP")
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert report["parsed_from_cache"] == report["sentence_count"]
        assert collections == []
        assert gc.get_freeze_count() == frozen

    def test_cold_parse_batch_runs_no_automatic_collection(self, collections):
        process_cold()
        engine = SageEngine(protocol_registry=ProtocolRegistry())
        # Load and parse the corpus first: its allocations precede the
        # batch, and with no collection at the reset they may start a
        # young one.
        corpus = engine.protocol_registry.load_corpus("ICMP")
        _ = corpus.sentences
        collections.clear()
        parsed = engine.parse_batch(corpus)
        during = list(collections)
        assert not parsed[0].from_cache
        assert during == [2]  # the window's one explicit collection
