"""The staged engine: stage contracts, parse caching, batch runs."""

import pytest

from repro.ccg.lexicon import build_lexicon
from repro.core import SageEngine, role_of
from repro.core.stages import ParseStage
from repro.nlp.chunker import ChunkerConfig, NounPhraseChunker
from repro.nlp.tokenizer import KIND_NOUN_PHRASE, Token
from repro.rfc.corpus import Rewrite, SpecSentence, sentence_key
from repro.cache import ContentCache
from repro.rfc.registry import ProtocolRegistry, default_registry

ALL_PROTOCOLS = ("ICMP", "IGMP", "NTP", "BFD")
BOTH_MODES = ("strict", "revised")


def run_fingerprint(run):
    """Everything the acceptance criterion compares: statuses, codes, unit."""
    return (
        [r.status for r in run.results],
        [
            [(c.sentence, c.status, c.role, str(c.ops), str(c.goal_message))
             for c in r.codes]
            for r in run.results
        ],
        run.code_unit.render_python(),
        run.code_unit.render_c(),
    )


# -- construction and substrate views ------------------------------------------

class TestEngineConstruction:
    def test_engine_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SageEngine(mode="lenient")


# -- process_corpora ------------------------------------------------------------

class TestProcessCorpora:
    def test_sequential_matches_per_corpus_runs(self):
        engine = SageEngine(mode="revised")
        runs = engine.process_corpora()
        assert list(runs) == list(ALL_PROTOCOLS)
        for name in ALL_PROTOCOLS:
            single = engine.process_corpus(name)
            assert run_fingerprint(runs[name]) == run_fingerprint(single)

    def test_parallel_matches_sequential(self):
        # ``parallel`` is an accepted, ignored keyword: the benchmark
        # harness (perfbench/workloads.py) passes ``parallel=False``.
        engine = SageEngine(mode="revised")
        sequential = engine.process_corpora()
        parallel = engine.process_corpora(parallel=False)
        assert list(parallel) == list(sequential)
        for name, run in sequential.items():
            assert run_fingerprint(parallel[name]) == run_fingerprint(run)

    def test_protocol_names_case_insensitive(self):
        runs = SageEngine().process_corpora(["icmp"])
        assert list(runs) == ["ICMP"]


# -- the shared parse cache -----------------------------------------------------

class TestParseCache:
    def test_warm_rerun_skips_reparsing(self):
        registry = ProtocolRegistry()
        engine = SageEngine(mode="revised", protocol_registry=registry)
        cache = registry.parse_cache()
        first = engine.process_corpus("ICMP")
        misses_after_first = cache.stats()["misses"]
        assert misses_after_first > 0
        second = engine.process_corpus("ICMP")
        assert cache.stats()["misses"] == misses_after_first
        assert run_fingerprint(first) == run_fingerprint(second)

    def test_cache_shared_across_modes_and_instances(self):
        registry = ProtocolRegistry()
        SageEngine(mode="strict", protocol_registry=registry).process_corpus("IGMP")
        cache = registry.parse_cache()
        misses = cache.stats()["misses"]
        # A *different* engine in the *other* mode reuses the parses —
        # IGMP has no rewrites, so revised mode parses nothing new.
        SageEngine(mode="revised", protocol_registry=registry).process_corpus("IGMP")
        assert cache.stats()["misses"] == misses

    def test_cache_is_content_addressed_by_substrate(self):
        registry = default_registry()
        full = ParseStage(registry.parser(), registry.chunker(),
                          cache=ContentCache())
        spec = SpecSentence(text="The checksum is zero.", protocol="ICMP",
                            message="Echo or Echo Reply Message",
                            field="checksum", kind="field")
        full.run(spec)
        # Same text under a different grammar must be a different key.
        degraded = ParseStage(
            registry.parser(),
            NounPhraseChunker(dictionary=registry.dictionary(),
                              config=ChunkerConfig(use_dictionary=False)),
            cache=full.cache,
        )
        assert full.fingerprint() != degraded.fingerprint()
        assert full.cache_key(spec) != degraded.cache_key(spec)

    def test_lexicon_mutation_moves_stage_to_new_keys(self):
        from repro.ccg.chart import CCGChartParser

        lexicon = build_lexicon()
        registry = default_registry()
        stage = ParseStage(CCGChartParser(lexicon), registry.chunker(),
                           cache=ContentCache())
        spec = SpecSentence(text="The checksum is zero.", protocol="ICMP",
                            message="Echo Message", field="checksum",
                            kind="field")
        before = stage.cache_key(spec)
        assert stage.run(spec).result.logical_forms
        entry = lexicon.entries()[0]
        lexicon.add(entry.__class__(
            phrase="zorpliness", category=entry.category, sem=entry.sem,
        ))
        # The stage must not serve the pre-mutation parse from the cache.
        after = stage.cache_key(spec)
        assert before != after
        assert not stage.run(spec).from_cache

    def test_lexicon_fingerprint_tracks_content(self):
        first = build_lexicon()
        second = build_lexicon()
        assert first.fingerprint() == second.fingerprint()
        entry = first.entries()[0]
        first.add(entry.__class__(
            phrase="zorpliness", category=entry.category, sem=entry.sem,
        ))
        assert first.fingerprint() != second.fingerprint()

    def test_registry_invalidate_clears_parse_cache(self):
        registry = ProtocolRegistry()
        SageEngine(protocol_registry=registry).process_corpus("NTP")
        cache = registry.parse_cache()
        assert len(cache) > 0
        registry.invalidate()
        assert len(cache) == 0
        assert registry.parse_cache() is cache


# -- the whole-run memo ---------------------------------------------------------

def stage_lookups(registry):
    """Parse- plus winnow-cache lookups so far (hits and misses)."""
    return sum(stats["hits"] + stats["misses"]
               for stats in (registry.parse_cache().stats(),
                             registry.winnow_cache().stats()))


class TestRunMemo:
    def test_repeat_run_touches_no_stage(self):
        registry = ProtocolRegistry()
        engine = SageEngine(mode="revised", protocol_registry=registry)
        first = engine.process_corpus("ICMP")
        lookups = stage_lookups(registry)
        assert engine.process_corpus("ICMP") is first
        assert stage_lookups(registry) == lookups
        assert registry.run_cache().stats() == {"size": 1, "hits": 1,
                                                "misses": 1}

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_memoized_runs_match_uncached_runs(self, mode):
        registry = ProtocolRegistry()
        memo = SageEngine(mode=mode, protocol_registry=registry)
        # The reference side: each run's first compute over a second,
        # fresh registry, whose memo and stage caches start empty.
        uncached = SageEngine(mode=mode, protocol_registry=ProtocolRegistry())
        for name in ALL_PROTOCOLS:
            memo.process_corpus(name)
            served = memo.process_corpus(name)
            assert (run_fingerprint(served)
                    == run_fingerprint(uncached.process_corpus(name)))
        stats = uncached.protocol_registry.run_cache().stats()
        assert (stats["hits"], stats["misses"]) == (0, len(ALL_PROTOCOLS))

    def test_engines_share_runs_by_content_not_by_mode(self):
        registry = ProtocolRegistry()
        revised = SageEngine(mode="revised", protocol_registry=registry)
        run = revised.process_corpus("BFD")
        again = SageEngine(mode="revised", protocol_registry=registry)
        assert again.process_corpus("BFD") is run
        strict = SageEngine(mode="strict", protocol_registry=registry)
        assert strict.process_corpus("BFD") is not run

    def test_decision_tables_are_part_of_the_key(self):
        registry = ProtocolRegistry()
        engine = SageEngine(mode="revised", protocol_registry=registry)
        with_rewrites = engine.process_corpus("ICMP")
        bundled = engine.rewrites
        engine.rewrites = {}
        without = engine.process_corpus("ICMP")
        assert without is not with_rewrites
        assert "rewritten" not in without.by_status()
        engine.rewrites = dict(bundled)  # equal content, new object
        assert engine.process_corpus("ICMP") is with_rewrites

    def test_journaled_resolution_is_replayed(self):
        from repro.api import SageService

        registry = ProtocolRegistry()
        service = SageService(registry=registry)
        before = service.run("ICMP", mode="strict")
        session = service.session("ICMP", mode="strict")
        flagged = session.flagged()[0]
        session.resolve(flagged.index, annotate=True)
        after = service.run("ICMP", mode="strict")
        assert after is not before
        assert after.results[flagged.index].status == "non-actionable"

    def test_grammar_and_suite_changes_miss(self):
        from repro.lf.predicates import FUNCTION

        registry = ProtocolRegistry()
        engine = SageEngine(mode="revised", protocol_registry=registry)
        first = engine.process_corpus("NTP")
        lexicon = registry.lexicon()
        entry = lexicon.entries()[0]
        lexicon.add(entry.__class__(
            phrase="zorpliness", category=entry.category, sem=entry.sem,
        ))
        regrammared = engine.process_corpus("NTP")
        assert regrammared is not first
        registry.check_suite().type_check.classes.register("frobnicate",
                                                           FUNCTION)
        assert engine.process_corpus("NTP") is not regrammared

    def test_engines_follow_the_registry_across_invalidate(self):
        registry = ProtocolRegistry()
        engine = SageEngine(protocol_registry=registry)
        lexicon = registry.lexicon()
        entry = lexicon.entries()[0]
        lexicon.add(entry.__class__(
            phrase="zorpliness", category=entry.category, sem=entry.sem,
        ))
        registry.invalidate()
        # The run key describes the rebuilt substrate, so the engine built
        # before the invalidate must compute over it too.
        run = engine.process_corpus("IGMP")
        assert engine.lexicon is registry.lexicon()
        assert engine.suite is registry.check_suite()
        assert SageEngine(protocol_registry=registry).process_corpus(
            "IGMP") is run

    def test_clearing_a_stage_cache_retires_memoized_runs(self):
        registry = ProtocolRegistry()
        engine = SageEngine(protocol_registry=registry)
        first = engine.process_corpus("IGMP")
        registry.winnow_cache().clear()
        second = engine.process_corpus("IGMP")
        assert second is not first
        assert registry.winnow_cache().stats()["misses"] > 0
        assert run_fingerprint(second) == run_fingerprint(first)
        registry.invalidate()
        assert len(registry.run_cache()) == 0

    def test_private_handlers_and_hand_built_corpora_bypass_the_memo(self):
        # Every engine now runs the bundled handlers, so a corpus without
        # a content fingerprint is the one run the memo cannot address.
        from repro.rfc.corpus import Corpus

        registry = ProtocolRegistry()
        corpus = registry.load_corpus("IGMP")
        engine = SageEngine(protocol_registry=registry)
        assert engine.run_key(corpus) is not None
        by_hand = Corpus(protocol="IGMP", document=corpus.document,
                         sentences=list(corpus.sentences))
        assert engine.run_key(by_hand) is None
        engine.process_corpus(by_hand)
        assert len(registry.run_cache()) == 0

    def test_batch_counts_each_memo_lookup_once(self, tmp_path):
        registry = ProtocolRegistry(cache_dir=tmp_path)
        store = registry.cache_store()
        run_reads = []
        read = store.get

        def counted(namespace, key):
            if namespace == "run":
                run_reads.append(key)
            return read(namespace, key)

        store.get = counted
        engine = SageEngine(mode="revised", protocol_registry=registry)
        first = engine.process_corpora()
        assert len(run_reads) == 4  # one store read per missed run
        again = engine.process_corpora()
        assert all(again[name] is first[name] for name in ALL_PROTOCOLS)
        assert len(run_reads) == 4  # memory hits never reach the store
        stats = registry.run_cache().stats()
        assert (stats["hits"], stats["misses"]) == (4, 4)


# -- the role marker fix (word boundaries) --------------------------------------

class TestRoleOf:
    def test_whole_word_markers_match(self):
        assert role_of("The sender zeroes this field.") == "sender"
        assert role_of("The receiver returns it.") == "receiver"
        assert role_of("The replying IP module sends it back.") == "receiver"
        assert role_of("The Echoer returns the data.") == "receiver"

    def test_substrings_of_unrelated_words_do_not_match(self):
        assert role_of("The senders of this datagram vary.") == ""
        assert role_of("The receivers may differ.") == ""
        assert role_of("Multiplying the value is wrong.") == ""
        assert role_of("A replyingly-phrased sentence.") == ""

    def test_punctuation_still_bounds_words(self):
        assert role_of("Returned by the sender.") == "sender"
        assert role_of("(sender)") == "sender"


# -- subject-supply re-parse variants (§4.1) -----------------------------------

class TestSupplyVariants:
    def spec(self, text, field="sequence_number"):
        return SpecSentence(text=text, protocol="ICMP", message="Echo Message",
                            field=field, kind="field")

    def tokens(self, *texts):
        return [Token(t, KIND_NOUN_PHRASE if t[0].isupper() else "word", i)
                for i, t in enumerate(texts)]

    def test_first_variant_prefixes_field_as_subject(self):
        tokens = self.tokens("identifies", "the", "octet")
        variants = list(ParseStage.supply_variants(self.spec("x"), tokens))
        first = variants[0]
        assert first[0].text == "sequence number"  # underscores become spaces
        assert first[0].kind == KIND_NOUN_PHRASE
        assert first[1].text == "is"
        assert [t.text for t in first[2:]] == ["identifies", "the", "octet"]

    def test_comma_variant_splices_after_first_comma_only(self):
        tokens = self.tokens("if", "code", ",", "zero", ",", "maybe")
        variants = list(ParseStage.supply_variants(self.spec("x"), tokens))
        assert len(variants) == 2
        spliced = [t.text for t in variants[1]]
        assert spliced == ["if", "code", ",", "sequence number", "zero", ",", "maybe"]

    def test_no_comma_yields_single_variant(self):
        tokens = self.tokens("identifies", "the", "octet")
        variants = list(ParseStage.supply_variants(self.spec("x"), tokens))
        assert len(variants) == 1

    def test_engine_marks_subject_supplied_parses(self):
        engine = SageEngine(mode="strict")
        spec = self.spec("Identifies the data.", field="identifier")
        result, supplied = engine.parse_sentence(spec)
        assert supplied
        assert result.logical_forms
        # The fragment alone does not parse; the field supplied the subject.
        bare = self.spec("Identifies the data.", field="")
        bare_result, bare_supplied = engine.parse_sentence(bare)
        assert not bare_supplied
        assert not bare_result.logical_forms


# -- rewrite recursion / sub-result aggregation --------------------------------

class TestSubResults:
    OUTER = "Frobnicate the gateway zorply."
    MIDDLE = "Blorp the checksum zorply."

    def engine_with_rewrites(self):
        engine = SageEngine(mode="revised")
        # Replace (not mutate) the shared rewrite index with a private one.
        engine.rewrites = {
            sentence_key(self.OUTER): Rewrite(
                original=self.OUTER,
                revised=self.MIDDLE + " The code is zero.",
                category="unparsed",
            ),
            sentence_key(self.MIDDLE): Rewrite(
                original=self.MIDDLE,
                revised="The checksum is zero.",
                category="unparsed",
            ),
        }
        return engine

    def spec(self):
        return SpecSentence(text=self.OUTER, protocol="ICMP",
                            message="Echo or Echo Reply Message",
                            field="checksum", kind="field")

    def test_nested_rewrites_recurse_and_aggregate_codes(self):
        result = self.engine_with_rewrites().process_sentence(self.spec())
        assert result.status == "rewritten"
        assert [sub.spec.text for sub in result.sub_results] == [
            self.MIDDLE, "The code is zero.",
        ]
        middle, tail = result.sub_results
        # Depth 2: the first revised sentence is itself rewritten.
        assert middle.status == "rewritten"
        assert [s.spec.text for s in middle.sub_results] == ["The checksum is zero."]
        assert middle.sub_results[0].status == "ok"
        assert tail.status == "ok"
        # Codes bubble up through every level of the recursion.
        assert [c.sentence for c in result.codes] == [
            "The checksum is zero.", "The code is zero.",
        ]
        assert all(c.status == "ok" and c.ops for c in result.codes)

    def test_strict_mode_flags_instead_of_recursing(self):
        engine = self.engine_with_rewrites()
        engine.mode = "strict"
        result = engine.process_sentence(self.spec())
        assert result.status == "unparsed"
        assert result.sub_results == []
        assert result.codes == []
        assert result.rewrite is not None

    def test_sub_specs_inherit_structural_context(self):
        result = self.engine_with_rewrites().process_sentence(self.spec())
        for sub in result.sub_results:
            assert sub.spec.protocol == "ICMP"
            assert sub.spec.message == "Echo or Echo Reply Message"
            assert sub.spec.field == "checksum"
            assert sub.spec.kind == "field"
