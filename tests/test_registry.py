"""Tests for the cached protocol registry (repro.rfc.registry)."""

import pytest

from repro.core import SageEngine
from repro.rfc import icmp_corpus, load_corpus
from repro.rfc.registry import (
    BUNDLED_PROTOCOLS,
    ProtocolRegistry,
    UnknownProtocolError,
    default_registry,
)

# A minimal fifth protocol: one message section, a diagram, and sentences
# the existing lexicon already parses end to end.
TOY_RFC = """\
RFC: 9999
TOY PROTOCOL

Introduction

   The toy protocol is used by hosts.

Toy Probe Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   TOY Fields:

   Type

      7

   Code

      0

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the message starting with the type field.
      For computing the checksum, the checksum field should be zero.
"""


@pytest.fixture
def registry():
    """A private registry so tests never dirty the process-wide default."""
    return ProtocolRegistry()


class TestRegistration:
    def test_bundled_protocols_present(self, registry):
        assert set(registry.protocols()) == {"ICMP", "IGMP", "NTP", "BFD"}
        assert len(BUNDLED_PROTOCOLS) == 4

    def test_lookup_is_case_insensitive(self, registry):
        assert registry.load_corpus("icmp") is registry.load_corpus("ICMP")

    def test_unknown_protocol_raises_clear_error(self, registry):
        with pytest.raises(UnknownProtocolError) as excinfo:
            registry.load_corpus("OSPF")
        message = str(excinfo.value)
        assert "OSPF" in message
        assert "ICMP" in message  # the error names what IS registered
        assert isinstance(excinfo.value, KeyError)

    def test_duplicate_registration_rejected_without_replace(self, registry):
        with pytest.raises(ValueError):
            registry.register_protocol("ICMP", "rfc792_icmp.txt")
        registry.register_protocol("ICMP", "rfc792_icmp.txt", replace=True)

    def test_registration_requires_a_source(self, registry):
        with pytest.raises(ValueError):
            registry.register_protocol("EMPTY")

    def test_module_level_registration_uses_the_default_registry(self):
        from repro.rfc import register_protocol

        register_protocol("TOY", text=TOY_RFC)
        try:
            assert load_corpus("TOY").protocol == "TOY"
        finally:
            default_registry().unregister_protocol("TOY")
        assert "TOY" not in default_registry().protocols()

    def test_package_dir_lists_its_lazy_exports(self):
        import repro.rfc

        assert {"load_corpus", "register_protocol"} <= set(dir(repro.rfc))


class TestMemoization:
    def test_corpus_is_memoized(self, registry):
        assert registry.load_corpus("ICMP") is registry.load_corpus("ICMP")

    def test_dictionary_lexicon_parser_chunker_memoized(self, registry):
        assert registry.dictionary() is registry.dictionary()
        assert registry.lexicon() is registry.lexicon()
        assert registry.parser() is registry.parser()
        assert registry.chunker() is registry.chunker()
        assert registry.rewrites() is registry.rewrites()
        # The parser really wraps the memoized lexicon.
        assert registry.parser().lexicon is registry.lexicon()
        assert registry.parser().name == "indexed"

    def test_invalidate_one_protocol(self, registry):
        first = registry.load_corpus("ICMP")
        untouched = registry.load_corpus("BFD")
        registry.invalidate("ICMP")
        assert registry.load_corpus("ICMP") is not first
        assert registry.load_corpus("BFD") is untouched

    def test_invalidate_unknown_protocol_raises(self, registry):
        with pytest.raises(UnknownProtocolError):
            registry.invalidate("OSPF")

    def test_clear_drops_everything_but_keeps_registrations(self, registry):
        corpus = registry.load_corpus("ICMP")
        lexicon = registry.lexicon()
        registry.invalidate()
        assert set(registry.protocols()) == {"ICMP", "IGMP", "NTP", "BFD"}
        assert registry.load_corpus("ICMP") is not corpus
        assert registry.lexicon() is not lexicon

    def test_legacy_wrappers_hit_the_default_registry_cache(self):
        assert icmp_corpus() is load_corpus("ICMP")
        assert icmp_corpus() is default_registry().load_corpus("ICMP")


class TestSageIntegration:
    def test_default_sages_share_substrate(self):
        first = SageEngine()
        second = SageEngine()
        assert first.parser is second.parser
        assert first.lexicon is second.lexicon
        assert first.chunker is second.chunker
        assert first.suite is second.suite
        assert first.rewrites is second.rewrites

    def test_registry_owns_the_check_suite(self, registry):
        from repro.lf.predicates import FUNCTION

        suite = registry.check_suite()
        assert registry.check_suite() is suite
        assert SageEngine(protocol_registry=registry).suite is suite
        assert registry.substrate_pristine()
        assert registry.substrate_key() == ()
        suite.type_check.classes.register("frobnicate", FUNCTION)
        assert not registry.substrate_pristine()
        assert suite.fingerprint() in registry.substrate_key()
        registry.invalidate()
        assert registry.check_suite() is not suite
        assert registry.substrate_key() != ()  # the caches were cleared

    def test_process_corpus_accepts_protocol_names(self, registry):
        run = SageEngine(protocol_registry=registry).process_corpus("ICMP")
        assert run.corpus is registry.load_corpus("ICMP")
        assert len(run.results) == 87


class TestFifthProtocol:
    def test_synthetic_protocol_end_to_end(self, registry):
        registry.register_protocol(
            "TOY", text=TOY_RFC, description="synthetic fifth protocol"
        )
        assert "TOY" in registry.protocols()

        corpus = registry.load_corpus("TOY")
        assert corpus.protocol == "TOY"
        section = corpus.document.section_titled("Toy Probe Message")
        assert section is not None
        assert section.diagram.layout.field_names() == ["type", "code", "checksum"]

        run = SageEngine(mode="revised",
                         protocol_registry=registry).process_corpus("TOY")
        assert run.flagged() == []
        program = run.code_unit.program_named("toy_toy_probe_receiver")
        assert program is not None
        rendered = program.render_python()
        assert "ctx.set_field('toy', 'type', 7)" in rendered
        assert "ctx.compute_checksum('toy', 'checksum'" in rendered

    def test_unregister_removes_protocol(self, registry):
        registry.register_protocol("TOY", text=TOY_RFC)
        registry.load_corpus("TOY")
        registry.unregister_protocol("TOY")
        with pytest.raises(UnknownProtocolError):
            registry.load_corpus("TOY")


class TestCorpusParsesOnFirstRead:
    """A loaded corpus is fingerprinted at once and parsed on first read."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """Every ``parse_rfc_text`` call a corpus makes, by source text."""
        from repro.rfc import preprocess

        calls, parse = [], preprocess.parse_rfc_text

        def counted(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(preprocess, "parse_rfc_text", counted)
        return calls

    @pytest.mark.parametrize("name", [*(entry[0] for entry in BUNDLED_PROTOCOLS),
                                      "TOY"])
    def test_content_and_fingerprint_match_a_direct_parse(self, registry,
                                                          parses, name):
        from hashlib import sha1

        from repro.rfc.corpus import extract_sentences
        from repro.rfc.preprocess import parse_rfc_text

        registry.register_protocol("TOY", text=TOY_RFC)
        text = registry.spec(name).read_text()
        corpus = registry.load_corpus(name)
        assert corpus.fingerprint == sha1(
            f"{name}\0{text}".encode("utf-8")).hexdigest()
        assert parses == []
        document = parse_rfc_text(text)
        assert corpus.document == document
        assert corpus.sentences == extract_sentences(document, name)
        assert corpus.sentences is corpus.sentences
        assert registry.load_corpus(name) is corpus
        assert parses == [text, text]  # the corpus's one parse, then ours

    def test_a_hand_built_corpus_is_never_memoized(self, registry, parses):
        from repro.rfc.corpus import Corpus

        loaded = registry.load_corpus("IGMP")
        document, sentences = loaded.document, list(loaded.sentences)
        by_hand = Corpus(protocol="IGMP", document=document,
                         sentences=sentences)
        assert by_hand.document is document and by_hand.sentences is sentences
        assert by_hand.fingerprint == ""
        assert by_hand == loaded and by_hand != Corpus("ICMP", document,
                                                       sentences)
        assert SageEngine(protocol_registry=registry).run_key(by_hand) is None
        assert len(parses) == 1  # the loaded corpus's own

    def test_concurrent_first_reads_share_one_parse(self, parses, monkeypatch):
        import threading
        import time

        from repro.rfc import preprocess
        from repro.rfc.corpus import corpus_from_text

        counted = preprocess.parse_rfc_text

        def slow(text):
            time.sleep(0.05)  # keep the first reader inside the parse
            return counted(text)

        monkeypatch.setattr(preprocess, "parse_rfc_text", slow)
        corpus = corpus_from_text(TOY_RFC, "TOY")
        barrier, seen = threading.Barrier(2), []

        def read():
            barrier.wait(timeout=30)
            seen.append(corpus.sentences)

        threads = [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(seen) == 2 and seen[0] is seen[1] and seen[0]
        assert parses == [TOY_RFC]
