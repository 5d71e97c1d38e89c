"""The staged engine: stage contracts, parse caching, facade parity, batch runs."""

import pytest

from repro.ccg.lexicon import build_lexicon
from repro.core import Sage, SageEngine, role_of
from repro.core.stages import ParseStage
from repro.nlp.chunker import ChunkerConfig, NounPhraseChunker
from repro.nlp.tokenizer import KIND_NOUN_PHRASE, Token
from repro.rfc.corpus import Rewrite, SpecSentence, sentence_key
from repro.rfc.registry import ParseCache, ProtocolRegistry, default_registry

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


# -- facade / engine parity (the tentpole's compatibility guarantee) -----------

class TestFacadeParity:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_sage_and_engine_identical(self, protocol, mode):
        facade_run = Sage(mode=mode).process_corpus(protocol)
        engine_run = SageEngine(mode=mode).process_corpus(protocol)
        assert run_fingerprint(facade_run) == run_fingerprint(engine_run)

    def test_facade_exposes_engine_and_substrate(self):
        sage = Sage(mode="strict")
        assert sage.mode == "strict"
        assert sage.engine.mode == "strict"
        assert sage.lexicon is sage.engine.lexicon
        assert sage.parser is sage.engine.parser
        assert sage.chunker is sage.engine.chunker
        assert sage.suite is sage.engine.suite
        assert sage.registry is sage.engine.generate_stage.handlers

    def test_engine_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SageEngine(mode="lenient")

    def test_facade_attributes_stay_writable(self):
        # Pre-engine these were plain instance attributes; assignment must
        # keep working through the facade.
        sage = Sage(mode="strict")
        sage.mode = "revised"
        assert sage.engine.mode == "revised"
        with pytest.raises(ValueError):
            sage.mode = "lenient"
        sage.rewrites = {}
        assert sage.engine.rewrites == {}
        from repro.disambiguation.checks import CheckSuite

        suite = CheckSuite.default()
        sage.suite = suite
        assert sage.engine.winnow_stage.suite is suite
        chunker = NounPhraseChunker()
        sage.chunker = chunker
        assert sage.engine.chunker is chunker
        lexicon = build_lexicon()
        sage.lexicon = lexicon
        assert sage.lexicon is lexicon
        assert sage.parser.lexicon is lexicon

    def test_generate_stage_rejects_conflicting_args(self):
        from repro.codegen.context import ContextResolver
        from repro.codegen.handlers import HandlerRegistry
        from repro.core import GenerateStage

        with pytest.raises(ValueError):
            GenerateStage(handlers=HandlerRegistry(),
                          resolver=ContextResolver())


# -- process_corpora ------------------------------------------------------------

class TestProcessCorpora:
    def test_sequential_matches_per_corpus_runs(self):
        engine = SageEngine(mode="revised")
        runs = engine.process_corpora(parallel=False)
        assert list(runs) == list(ALL_PROTOCOLS)
        for name in ALL_PROTOCOLS:
            single = engine.process_corpus(name)
            assert run_fingerprint(runs[name]) == run_fingerprint(single)

    def test_parallel_matches_sequential(self):
        # ``parallel`` is kept as an accepted, ignored keyword.
        engine = SageEngine(mode="revised")
        sequential = engine.process_corpora(parallel=False)
        parallel = engine.process_corpora(parallel=True)
        assert list(parallel) == list(sequential)
        for name, run in sequential.items():
            assert run_fingerprint(parallel[name]) == run_fingerprint(run)

    def test_protocol_names_case_insensitive(self):
        runs = SageEngine().process_corpora(["icmp"], parallel=False)
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
                          cache=ParseCache())
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
                           cache=ParseCache())
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

    def test_engine_can_opt_out_of_caching(self):
        registry = ProtocolRegistry()
        engine = SageEngine(protocol_registry=registry, parse_cache=False)
        engine.process_corpus("IGMP")
        assert engine.parse_cache is None
        assert len(registry.parse_cache()) == 0


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
