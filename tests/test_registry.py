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
