"""The pluggable parsing subsystem: trie lexicon, packed forest, parity.

Three layers of coverage:

* unit tests for the new lexicon indexes (first-word/phrase-length index,
  trie walk, entry dedup with a stable fingerprint) and the packed forest
  (enumeration order, derivation packing, the explicit pruning budget);
* the parity contract: the pipeline's ``indexed`` parser must produce the
  same logical forms — signature sets, statuses, golden generated C —
  as its oracle, the ``reference`` CKY chart, on every bundled corpus in
  both pipeline modes, plus hypothesis-driven random token streams;
* the cache-key contract: the parser name participates in every parse-cache
  key (no cross-parser contamination), and a lexicon edit invalidates
  both parsers' entries.

The chart parser is built here, ``CCGChartParser(registry.lexicon())``: no
option in the pipeline selects it.  A full-pipeline run over it swaps it
in on a fresh registry (``registry.parser = lambda: chart``).
"""

import gc
import json
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ProcessRequest,
    SageService,
    from_json,
    to_json,
)
from repro.cache import ContentCache
from repro.ccg.chart import CCGChartParser, ParseResult
from repro.ccg.lexicon import LexEntry, Lexicon, build_lexicon, core_entries
from repro.ccg.semantics import signature
from repro.core.engine import SageEngine
from repro.core.stages import ParseStage
from repro.gcpolicy import GC_COUNTERS
from repro.nlp import NounPhraseChunker
from repro.parsing import indexed as indexed_module
from repro.parsing import values as values_module
from repro.parsing import (
    PROFILE,
    IndexedChartParser,
    PruneBudget,
    reset_parser_state,
)
from repro.rfc.corpus import SpecSentence
from repro.rfc.registry import ProtocolRegistry, default_registry

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

PROTOCOLS = ("ICMP", "IGMP", "NTP", "BFD")
MODES = ("strict", "revised")


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def chunker(registry):
    return registry.chunker()


@pytest.fixture(scope="module")
def chart_registry():
    """A fresh registry whose pipeline parses with the reference chart."""
    registry = ProtocolRegistry()
    chart = CCGChartParser(registry.lexicon())
    registry.parser = lambda: chart
    return registry


@pytest.fixture(scope="module")
def reference(registry):
    return CCGChartParser(registry.lexicon())


@pytest.fixture(scope="module")
def indexed(registry):
    return registry.parser()


# -- lexicon indexes -----------------------------------------------------------

class TestLexiconIndexes:
    def test_phrase_lengths(self):
        lexicon = build_lexicon()
        assert lexicon.phrase_lengths("starting") == (2,)
        assert 1 in lexicon.phrase_lengths("is")
        assert lexicon.phrase_lengths("no-such-word") == ()

    def test_trie_matches_agree_with_lookup(self):
        lexicon = build_lexicon()
        words = ["set", "to", "zero", "starting", "with", "the", "type"]
        for start in range(len(words)):
            via_trie = {end: entries
                        for end, entries in lexicon.iter_matches(words, start)}
            for end in range(start + 1, min(start + 1 + lexicon.max_phrase_words,
                                            len(words) + 1)):
                direct = lexicon.lookup(words[start:end])
                if direct:
                    assert via_trie[end] == direct
                else:
                    assert end not in via_trie

    def test_trie_yields_shortest_first(self):
        lexicon = build_lexicon()
        ends = [end for end, _ in
                lexicon.iter_matches(["starting", "with", "the"], 0)]
        assert ends == sorted(ends)

    def test_add_deduplicates_identical_entries(self):
        lexicon = build_lexicon()
        before = len(lexicon.entries())
        fingerprint = lexicon.fingerprint()
        lexicon.extend(core_entries())  # every one already present
        assert len(lexicon.entries()) == before
        assert lexicon.fingerprint() == fingerprint

    def test_distinct_groups_are_not_deduplicated(self):
        lexicon = Lexicon()
        entry = core_entries()[0]
        lexicon.add(entry)
        other_group = LexEntry(entry.phrase, entry.category, entry.sem,
                               group="other", overgen=entry.overgen)
        lexicon.add(other_group)
        assert len(lexicon.entries()) == 2

    def test_new_entry_still_changes_fingerprint(self):
        lexicon = build_lexicon()
        fingerprint = lexicon.fingerprint()
        extra = LexEntry("frobnicates", core_entries()[0].category,
                         core_entries()[0].sem, group="test")
        lexicon.add(extra)
        assert lexicon.fingerprint() != fingerprint
        assert lexicon.lookup(["frobnicates"]) == [extra]


# -- the packed forest ---------------------------------------------------------

class TestParseForest:
    SENTENCE = "The checksum is zero and the code is one."

    def test_enumeration_order_matches_parse_result(self, indexed, chunker):
        tokens = chunker.chunk_text(self.SENTENCE)
        forest = indexed.parse_forest(tokens)
        result = indexed.parse(tokens)
        assert list(forest.logical_forms()) == result.logical_forms

    def test_enumeration_order_matches_reference(self, reference, indexed,
                                                 chunker):
        tokens = chunker.chunk_text(self.SENTENCE)
        forest = indexed.parse_forest(tokens)
        assert ([signature(form) for form in forest.logical_forms()]
                == [signature(form)
                    for form in reference.parse(tokens).logical_forms])

    def test_forest_packs_derivations(self, indexed, chunker):
        tokens = chunker.chunk_text(self.SENTENCE)
        forest = indexed.parse_forest(tokens)
        # Spurious ambiguity means strictly more derivations than items.
        assert forest.packed_derivations() > forest.item_count()
        assert any(item.derivation_count() > 1
                   for items in forest.cells.values() for item in items)

    def test_roots_are_grounded(self, indexed, chunker):
        forest = indexed.parse_forest(chunker.chunk_text(self.SENTENCE))
        assert forest.root_items()
        for item in forest.root_items():
            assert item.grounded

    def test_lazy_enumeration(self, indexed, chunker):
        forest = indexed.parse_forest(chunker.chunk_text(self.SENTENCE))
        generator = forest.logical_forms()
        first = next(generator)
        assert signature(first)  # generator yields without exhausting

    def test_unpruned_by_default(self, indexed, chunker):
        forest = indexed.parse_forest(chunker.chunk_text(self.SENTENCE))
        assert forest.dropped_items == 0
        assert not forest.pruned


class TestPruneBudget:
    SENTENCE = "The checksum is zero and the code is one."

    def test_budget_records_drops(self, registry, chunker):
        tight = IndexedChartParser(registry.lexicon(),
                                   budget=PruneBudget(max_cell_items=3))
        tokens = chunker.chunk_text(self.SENTENCE)
        forest = tight.parse_forest(tokens)
        assert forest.pruned
        assert forest.dropped_items > 0
        result = forest.to_result()
        assert result.pruned
        assert result.dropped_items == forest.dropped_items

    def test_reference_counts_drops_identically(self, registry, chunker):
        tokens = chunker.chunk_text(self.SENTENCE)
        tight_ref = CCGChartParser(registry.lexicon(), max_cell_items=3)
        tight_idx = IndexedChartParser(registry.lexicon(), max_cell_items=3)
        ref_result = tight_ref.parse(tokens)
        idx_result = tight_idx.parse(tokens)
        assert ref_result.pruned and idx_result.pruned
        assert ref_result.dropped_items == idx_result.dropped_items
        assert ref_result.logical_forms == idx_result.logical_forms

    def test_max_cell_items_constructor_equivalence(self, registry):
        parser = IndexedChartParser(registry.lexicon(), max_cell_items=7)
        assert parser.budget.max_cell_items == 7
        assert parser.max_cell_items == 7


# -- backend parity ------------------------------------------------------------

def _result_fingerprint(result: ParseResult) -> tuple:
    return (
        [signature(form) for form in result.logical_forms],
        result.unknown_words,
        result.token_count,
        result.cells_filled,
        result.dropped_items,
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_backend_parse_parity_per_corpus(registry, chunker, reference,
                                         indexed, protocol):
    """Raw parser parity: identical LF lists (signatures AND provenance-
    sensitive equality), unknown words, and chart statistics."""
    for spec in registry.load_corpus(protocol).sentences:
        tokens = chunker.chunk_text(spec.text)
        ref_result = reference.parse(tokens)
        idx_result = indexed.parse(tokens)
        assert _result_fingerprint(ref_result) == _result_fingerprint(idx_result)
        assert ref_result.logical_forms == idx_result.logical_forms
        assert ref_result.backend == "reference"
        assert idx_result.backend == "indexed"


@pytest.fixture(scope="module")
def runs_by_backend(chart_registry):
    """mode → parser name → {protocol: SageRun}, all four corpora.  Each
    parser runs over its own fresh registry, so the run memo can never
    hand one side the other's run."""
    registries = {"reference": chart_registry, "indexed": ProtocolRegistry()}
    runs = {}
    for mode in MODES:
        runs[mode] = {}
        for name, registry in registries.items():
            engine = SageEngine(mode=mode, protocol_registry=registry)
            assert engine.parser.name == name
            runs[mode][name] = engine.process_corpora()
    return runs


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_backend_pipeline_parity(runs_by_backend, mode, protocol):
    """Full-pipeline parity: statuses, survivor signature sets, pruned
    flags, and generated code agree between the backends."""
    ref_run = runs_by_backend[mode]["reference"][protocol]
    idx_run = runs_by_backend[mode]["indexed"][protocol]
    assert [str(r.status) for r in ref_run.results] == [
        str(r.status) for r in idx_run.results
    ]
    for ref_result, idx_result in zip(ref_run.results, idx_run.results):
        ref_sigs = ([signature(f) for f in ref_result.trace.survivors]
                    if ref_result.trace else [])
        idx_sigs = ([signature(f) for f in idx_result.trace.survivors]
                    if idx_result.trace else [])
        assert ref_sigs == idx_sigs
        assert ref_result.pruned == idx_result.pruned
        assert ref_result.subject_supplied == idx_result.subject_supplied
    assert ref_run.code_unit.render_c() == idx_run.code_unit.render_c()


@pytest.mark.parametrize("mode", MODES)
def test_backend_golden_icmp(runs_by_backend, mode):
    """Both backends reproduce the golden ICMP C byte-for-byte."""
    golden = (GOLDEN_DIR / f"icmp_{mode}.c").read_text()
    for backend in ("reference", "indexed"):
        rendered = runs_by_backend[mode][backend]["ICMP"].code_unit.render_c()
        assert rendered + "\n" == golden or rendered == golden


WORD_POOL = [
    "the", "checksum", "is", "zero", "code", "if", "and", "of", "gateway",
    "set", "to", "one", "message", "discarded", "echo", "reply", "data",
    "field", "or", "not", "host", "address", "source", "may", "be", "sent",
]


class TestBackendPropertyParity:
    @given(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_random_token_streams(self, chunker, reference, indexed, words):
        tokens = chunker.chunk_text(" ".join(words) + ".")
        ref_result = reference.parse(tokens)
        idx_result = indexed.parse(tokens)
        assert _result_fingerprint(ref_result) == _result_fingerprint(idx_result)

    @given(st.sampled_from(PROTOCOLS), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_sampled_corpus_sentences(self, registry, reference, indexed,
                                      protocol, seed):
        sentences = registry.load_corpus(protocol).sentences
        spec = sentences[seed % len(sentences)]
        tokens = registry.chunker().chunk_text(spec.text)
        ref_result = reference.parse(tokens)
        idx_result = indexed.parse(tokens)
        assert _result_fingerprint(ref_result) == _result_fingerprint(idx_result)


# -- parse stage and cache keys ------------------------------------------------

class TestBackendCacheKeys:
    SPEC = SpecSentence(text="The checksum is zero.", protocol="ICMP",
                        message="echo", field="checksum", kind="field")

    def _stage(self, parser, cache: ContentCache):
        return ParseStage(parser, default_registry().chunker(), cache=cache)

    def test_fingerprint_carries_backend_name(self, reference, indexed):
        cache = ContentCache()
        reference_stage = self._stage(reference, cache)
        indexed_stage = self._stage(indexed, cache)
        assert reference_stage.fingerprint().startswith("reference:")
        assert indexed_stage.fingerprint().startswith("indexed:")
        assert (reference_stage.fingerprint().split(":", 1)[1]
                == indexed_stage.fingerprint().split(":", 1)[1])

    def test_no_cross_backend_contamination(self, reference, indexed):
        cache = ContentCache()
        reference_stage = self._stage(reference, cache)
        indexed_stage = self._stage(indexed, cache)
        first = reference_stage.run(self.SPEC)
        assert not first.from_cache
        # The other backend must NOT be served the reference's entry.
        second = indexed_stage.run(self.SPEC)
        assert not second.from_cache
        assert len(cache) == 2
        # Each backend hits its own entry on repeat.
        assert reference_stage.run(self.SPEC).from_cache
        assert indexed_stage.run(self.SPEC).from_cache
        assert reference_stage.run(self.SPEC).result.backend == "reference"
        assert indexed_stage.run(self.SPEC).result.backend == "indexed"

    def test_lexicon_edit_invalidates_both_backends(self):
        cache = ContentCache()
        lexicon = build_lexicon()
        reference_stage = ParseStage(CCGChartParser(lexicon),
                                    default_registry().chunker(), cache=cache)
        indexed_stage = ParseStage(IndexedChartParser(lexicon),
                                   default_registry().chunker(), cache=cache)
        reference_stage.run(self.SPEC)
        indexed_stage.run(self.SPEC)
        assert len(cache) == 2
        # Edit the shared lexicon: both stages must miss (fresh keys), and
        # the stale entries must not be served to either backend.
        lexicon.add(LexEntry("zorble", core_entries()[0].category,
                             core_entries()[0].sem, group="test"))
        assert not reference_stage.run(self.SPEC).from_cache
        assert not indexed_stage.run(self.SPEC).from_cache
        assert len(cache) == 4

    def test_lexicon_edit_changes_indexed_parse(self):
        """The indexed backend's process-global lexical cache must key on
        lexicon content: an edit affecting a word *in* the sentence has to
        reach the next parse, in lockstep with a fresh reference parse."""
        chunker = default_registry().chunker()
        tokens = chunker.chunk_text("The gateway is frobbed.")
        lexicon = build_lexicon()
        indexed_parser = IndexedChartParser(lexicon)
        before = indexed_parser.parse(tokens)
        # Give "frobbed" a passive-verb reading; a word *in* the sentence,
        # so a stale lexical-span cache would hide it.
        template = lexicon.lookup(["reversed"])[0]
        lexicon.add(LexEntry("frobbed", template.category, template.sem,
                             group="test"))
        after = indexed_parser.parse(tokens)
        assert (_result_fingerprint(after) != _result_fingerprint(before))
        reference_after = CCGChartParser(lexicon).parse(tokens)
        assert _result_fingerprint(after) == _result_fingerprint(reference_after)


# -- engine / registry threading ----------------------------------------------

class TestEngineBackendThreading:
    def test_parse_batch_backend_override(self, chart_registry):
        engine = SageEngine(protocol_registry=chart_registry)
        parsed = engine.parse_batch("IGMP")
        assert parsed
        assert all(item.result.backend == "reference" for item in parsed)
        again = engine.parse_batch("IGMP")
        assert all(item.from_cache for item in again)

    def test_pruned_surfaces_on_sentence_results(self, chart_registry):
        # RFC 5880's densest sentence genuinely overflows the default
        # 2000-item cell budget — the historical silent truncation, now an
        # honest flag, identical under both parsers.
        for registry in (chart_registry, default_registry()):
            engine = SageEngine(protocol_registry=registry)
            run = engine.process_corpus("BFD")
            assert any(result.pruned for result in run.results)


# -- api surface ---------------------------------------------------------------

class TestApiBackendSelection:
    def test_process_request_round_trip(self):
        request = ProcessRequest(protocol="ICMP", mode="strict")
        assert from_json(to_json(request)) == request
        # A stale client's parser_backend key decodes to the same request.
        stale = json.loads(to_json(request))
        stale["data"]["parser_backend"] = "reference"
        assert from_json(json.dumps(stale)) == request

    def test_service_backend_parity(self, chart_registry):
        by_backend = {
            name: SageService(registry).process(ProcessRequest(
                protocol="IGMP"))
            for name, registry in (("reference", chart_registry),
                                   ("indexed", default_registry()))
        }
        assert (by_backend["reference"].status_counts
                == by_backend["indexed"].status_counts)
        assert ([r.status for r in by_backend["reference"].sentences]
                == [r.status for r in by_backend["indexed"].sentences])

    def test_parse_diagnostics(self):
        service = SageService()
        report = service.parse_diagnostics("NTP")
        assert report["protocol"] == "NTP"
        assert report["parser_backend"] == "indexed"
        assert report["sentence_count"] == len(report["sentences"])
        assert report["sentences_per_s"] > 0
        for sentence in report["sentences"]:
            assert set(sentence) >= {"index", "text", "lf_count",
                                     "lf_set_sha1", "pruned"}

    def test_diagnostics_parity_across_backends(self, chart_registry):
        sha_sets = {
            name: [s["lf_set_sha1"] for s in SageService(
                registry).parse_diagnostics("IGMP")["sentences"]]
            for name, registry in (("reference", chart_registry),
                                   ("indexed", default_registry()))
        }
        assert sha_sets["reference"] == sha_sets["indexed"]

    def test_pruned_in_sentence_report_round_trip(self):
        service = SageService()
        response = service.process(ProcessRequest(protocol="BFD"))
        pruned_reports = [r for r in response.sentences if r.pruned]
        assert pruned_reports
        rebuilt = from_json(to_json(response))
        assert [r.pruned for r in rebuilt.sentences] == [
            r.pruned for r in response.sentences
        ]


# -- agenda exploration, span memo, deferred construction, profiling -----------

class TestBudgetContract:
    """A budget below one item per cell is a contradiction and must fail at
    construction, never parse to a silently empty forest."""

    def test_zero_budget_fails_loudly(self):
        with pytest.raises(ValueError, match="max_cell_items"):
            PruneBudget(max_cell_items=0)

    def test_negative_budget_fails_loudly(self):
        with pytest.raises(ValueError, match="max_cell_items"):
            PruneBudget(max_cell_items=-3)

    def test_zero_max_cell_items_parser_fails(self, registry):
        with pytest.raises(ValueError, match="max_cell_items"):
            IndexedChartParser(registry.lexicon(), max_cell_items=0)

    def test_drops_survive_span_memo_replay(self, registry, chunker):
        """The counted drops are part of the span memo's stored value: a
        second parser replaying memoized cells must charge exactly the
        drops the combining parse counted."""
        tokens = chunker.chunk_text(
            "The checksum is zero and the code is one.")
        budget = PruneBudget(max_cell_items=3)
        first = IndexedChartParser(registry.lexicon(), budget=budget)
        combined = first.parse_forest(tokens)
        assert combined.pruned and combined.dropped_items > 0
        replayed = IndexedChartParser(
            registry.lexicon(), budget=budget).parse_forest(tokens)
        assert replayed.dropped_items == combined.dropped_items
        assert (_result_fingerprint(replayed.to_result())
                == _result_fingerprint(combined.to_result()))


class TestBfdOverflowSentence:
    """The known BFD chart-overflow sentence keeps its accurate pruned
    accounting through the agenda rewrite, all the way up to the API's
    SentenceReport."""

    def test_sentence_report_pruned_stays_accurate(self, registry, chunker):
        service = SageService(registry=registry)
        response = service.process(ProcessRequest(protocol="BFD"))
        pruned = [r for r in response.sentences if r.pruned]
        assert pruned, "the BFD overflow sentence must stay flagged"
        assert any("demand mode" in r.text.lower() for r in pruned)
        # The report's flag is the forest's counted-drop fact, not a guess:
        # re-deriving the forest reproduces a positive, identical drop
        # count for every flagged sentence.
        parser = IndexedChartParser(registry.lexicon())
        for report in pruned:
            forest = parser.parse_forest(chunker.chunk_text(report.text))
            assert forest.pruned and forest.dropped_items > 0

    SENTENCE = ("If bfd.RemoteDemandMode is 1, bfd.SessionState is up, and "
                "bfd.RemoteSessionState is up, demand mode is active on the "
                "remote system and the system must cease the periodic "
                "transmission of bfd control packets.")

    def test_overflow_forest_is_pinned(self, registry, chunker):
        """The largest chart of the bundled corpora, pinned count for count:
        items, packed derivations, counted drops, cells and readings, and
        the root cell the budget truncates."""
        forest = IndexedChartParser(registry.lexicon()).parse_forest(
            chunker.chunk_text(self.SENTENCE))
        assert forest.item_count() == 12715
        assert forest.packed_derivations() == 30754
        assert forest.dropped_items == 2150
        assert forest.cells_filled == 435
        assert len(list(forest.logical_forms())) == 480
        root = Counter(str(item.category)
                       for item in forest.cells[(0, forest.length)])
        assert root == {"S\\S": 848, "S/S": 672, "S": 480}


class TestGenerationEviction:
    """A process cycling through more lexicons than the caches keep
    generations for evicts the oldest lexical and span generations (and
    with them the apply memo); a parse under an evicted lexicon must equal
    a cold one."""

    SENTENCE = "The checksum is zero and the code is one."

    @staticmethod
    def _forest_fingerprint(forest) -> tuple:
        return ({span: [(item.catid, item.sid) for item in items]
                 for span, items in forest.cells.items()},
                forest.dropped_items,
                [signature(form) for form in forest.logical_forms()])

    def test_reparse_after_eviction_matches_cold(self, chunker):
        tokens = chunker.chunk_text(self.SENTENCE)
        lexicons = [build_lexicon() for _ in range(5)]
        for number, lexicon in enumerate(lexicons[1:], 1):
            entry = lexicon.entries()[0]
            lexicon.add(LexEntry(phrase=f"zorpliness{number}",
                                 category=entry.category, sem=entry.sem))
        first = lexicons[0].fingerprint()
        assert len({lexicon.fingerprint() for lexicon in lexicons}) == 5
        reset_parser_state()
        for lexicon in lexicons:
            IndexedChartParser(lexicon).parse_forest(tokens)
        assert first not in indexed_module._LEXICAL_CACHE
        assert all(key[0] != first for key in indexed_module._SPAN_MEMO)
        before = PROFILE.counts()
        evicted = IndexedChartParser(lexicons[0]).parse_forest(tokens)
        delta = PROFILE.delta(before)
        assert delta["lexical_cache_misses"] > 0
        assert delta["span_memo_hits"] == 0
        reset_parser_state()
        cold = IndexedChartParser(lexicons[0]).parse_forest(tokens)
        assert (self._forest_fingerprint(evicted)
                == self._forest_fingerprint(cold))


class TestSpanMemoInvariance:
    """Cross-sentence span reuse is an optimization, never a semantic
    change: batch-parsing a shuffled corpus with the memo enabled equals
    per-sentence parsing with the memo disabled."""

    _baseline_cache: dict = {}

    @classmethod
    def _memoless_fingerprint(cls, registry, chunker, text):
        if text not in cls._baseline_cache:
            parser = IndexedChartParser(registry.lexicon(),
                                        reuse_spans=False)
            cls._baseline_cache[text] = _result_fingerprint(
                parser.parse(chunker.chunk_text(text)))
        return cls._baseline_cache[text]

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=5, deadline=None)
    def test_shuffled_batch_matches_memoless(self, seed):
        registry = default_registry()
        chunker = registry.chunker()
        sentences = [spec.text
                     for spec in registry.load_corpus("ICMP").sentences]
        random.Random(seed).shuffle(sentences)
        batch_parser = IndexedChartParser(registry.lexicon())
        for text in sentences:
            got = _result_fingerprint(
                batch_parser.parse(chunker.chunk_text(text)))
            assert got == self._memoless_fingerprint(registry, chunker, text)


class TestDeferredTermConstruction:
    """Combined items are inserted from structural ids alone; their terms
    materialize lazily and must match the ids they were inserted under."""

    SENTENCE = ("If the code is zero, the checksum is zero and "
                "the code is one.")

    def test_parse_defers_term_construction(self, registry, chunker):
        parser = IndexedChartParser(registry.lexicon(), reuse_spans=False)
        forest = parser.parse_forest(chunker.chunk_text(self.SENTENCE))
        deferred = [item
                    for items in forest.cells.values()
                    for item in items if item.ntriple is None]
        assert deferred, "combination must not build terms eagerly"

    def test_forced_terms_match_structural_ids(self, registry, chunker):
        """The structural production engine and the term producer must
        agree item-for-item: forcing any deferred item yields a triple
        whose sid and groundedness equal the ones it was inserted (and
        deduplicated) under."""
        parser = IndexedChartParser(registry.lexicon(), reuse_spans=False)
        forest = parser.parse_forest(chunker.chunk_text(self.SENTENCE))
        checked = 0
        for items in forest.cells.values():
            for item in items:
                triple = item.triple()
                assert triple[1] == item.sid
                assert triple[2] == item.grounded
                checked += 1
        assert checked > 50  # a real chart, not a degenerate one


class TestProfileCounters:
    SENTENCE = "The checksum is zero and the code is one."

    def test_counters_accumulate_per_parse(self, registry, chunker):
        tokens = chunker.chunk_text(self.SENTENCE)
        parser = IndexedChartParser(registry.lexicon())
        before = PROFILE.counts()
        parser.parse_forest(tokens)
        delta = PROFILE.delta(before)
        assert delta["parses"] == 1
        assert delta["agenda_pops"] > 0
        # Every popped target is either answered by the span memo or
        # combined fresh — no third path.  (A hit on a memoized *empty*
        # span seeds nothing, so seeded counts a subset of the hits.)
        assert (delta["cells_visited"] + delta["span_memo_hits"]
                == delta["agenda_pops"])
        assert delta["cells_seeded"] <= delta["span_memo_hits"]
        assert delta["deferred_items"] >= delta["forced_items"] >= 0

    def test_identical_reparse_is_pure_span_reuse(self, registry, chunker):
        tokens = chunker.chunk_text(self.SENTENCE)
        IndexedChartParser(registry.lexicon()).parse_forest(tokens)  # warm
        before = PROFILE.counts()
        IndexedChartParser(registry.lexicon()).parse_forest(tokens)
        delta = PROFILE.delta(before)
        assert delta["span_memo_hits"] == delta["agenda_pops"] > 0
        assert delta["span_memo_misses"] == 0
        assert delta["span_reuse_rate"] == 1.0

    #: Module-level dicts a reset keeps on purpose: the intern tables
    #: (sids are process-global identities live items may still hold) and
    #: the neutral-variable triples and binder environments built on them.
    RESET_SURVIVORS = {"_INTERN", "_KEY_OF", "_NEUTRALS", "_PARAM_ENVS"}

    def test_reset_parser_state_recools_every_memo(self, registry, chunker):
        tokens = chunker.chunk_text(self.SENTENCE)
        parser = IndexedChartParser(registry.lexicon())
        reset_parser_state()
        warm = parser.parse_forest(tokens)  # warm every memo from cold
        assert values_module._SID_FACTS
        assert indexed_module._COMPOSED_CATEGORY
        reset_parser_state()
        # A memo the reset missed would make a "cold" run look faster
        # than it is: every other module-level dict must come back empty.
        survivors = [
            f"{module.__name__}.{name}"
            for module in (values_module, indexed_module)
            for name, value in vars(module).items()
            if isinstance(value, dict) and value
            and not name.startswith("__")
            and name not in self.RESET_SURVIVORS
        ]
        assert survivors == []
        before = PROFILE.counts()
        cold = parser.parse_forest(tokens)
        delta = PROFILE.delta(before)
        # A genuinely cold parse: nothing answered from the span memo,
        # every combined span paid for fresh — and the output is
        # unaffected by the reset (sids survive; only memos dropped).
        assert delta["span_memo_hits"] == 0
        assert delta["span_memo_misses"] == delta["agenda_pops"] > 0
        assert _result_fingerprint(cold.to_result()) == _result_fingerprint(
            warm.to_result()
        )

    def test_profile_in_parse_diagnostics(self, registry):
        service = SageService(registry=registry)
        report = service.parse_diagnostics("IGMP")
        profile = report["profile"]
        assert set(profile) > {"parses", "agenda_pops", "span_reuse_rate",
                               "deferred_items", "budget_drops"}
        assert all(isinstance(value, (int, float))
                   for value in profile.values())
        assert set(GC_COUNTERS) <= set(profile)

    def test_gc_counters_in_parse_diagnostics(self):
        # A fresh registry's parse cache is empty, so the batch runs in
        # the GC window: no automatic collection, survivors frozen.  The
        # first cache probe and the window's own entry allocate a few
        # objects before the window disables the collector; start from an
        # empty young generation so whether those trip an automatic
        # collection does not depend on what earlier tests allocated.
        gc.collect()
        service = SageService(registry=ProtocolRegistry())
        profile = service.parse_diagnostics("IGMP")["profile"]
        assert profile["gc_frozen"] > 0
        assert (profile["gc_collections_gen0"],
                profile["gc_collections_gen1"]) == (0, 0)
