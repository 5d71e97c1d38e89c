"""The three pipeline stages, as independently usable objects (Figure 1).

The paper's pipeline is parse → disambiguate → generate.  This module gives
each box its own object with an explicit contract, so stages can be driven,
tested, swapped, and cached independently of the :class:`~repro.core.engine.
SageEngine` that composes them:

* :class:`ParseStage` — NP-chunk + CCG-parse one sentence, with the §4.1
  subject-supply retry and an optional content-addressed cache (keyed on
  sentence text + the lexicon/chunker fingerprint, so a cache shared across
  engines and modes never crosses grammars);
* :class:`WinnowStage` — apply the §4.2 check suite to the parsed logical
  forms, producing a :class:`~repro.disambiguation.winnow.WinnowTrace`;
* :class:`GenerateStage` — resolve the sentence context (Table 4), route
  the surviving logical form through the handler registry, and assemble the
  per-sentence ops into the typed codegen IR (a
  :class:`~repro.codegen.ir.Program` of per-message builder functions).

Stage objects are stateless apart from their substrate (parser, suite,
handlers): calling ``run`` twice with the same input yields the same output,
which is what makes the stage caches here and the engine's run memo safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha1
import re

from ..cache.persistent import ContentCache
from ..ccg.chart import CCGChartParser, ParseResult
from ..ccg.semantics import Sem, signature
from ..codegen.context import (
    AmbiguousReference,
    SentenceContext,
    UnknownReference,
)
from ..codegen.handlers import HandlerRegistry, HandlerResult, NonActionable
from ..codegen.ir import Program, SentenceCode, build_function, builder_role
from ..codegen.ops import SetField, Value
from ..disambiguation.checks import CheckSuite
from ..disambiguation.profile import PROFILE as WINNOW_PROFILE
from ..disambiguation.winnow import WinnowTrace, winnow
from ..gcpolicy import cold_batch_gc
from ..nlp.chunker import NounPhraseChunker
from ..nlp.tokenizer import KIND_NOUN_PHRASE, Token
from ..rfc.corpus import SpecSentence

_ROLE_MARKERS = {
    "sender": "sender",
    "receiver": "receiver",
    "echoer": "receiver",
    "replier": "receiver",
    "replying": "receiver",
}

# Word-boundary patterns: a marker must match a whole word, not a substring
# of an unrelated token ("sender" must not fire inside "senders" or
# "sendering"-style words).
_ROLE_PATTERNS = tuple(
    (re.compile(rf"\b{re.escape(marker)}\b"), role)
    for marker, role in _ROLE_MARKERS.items()
)


def role_of(text: str) -> str:
    """The sender/receiver role a sentence's wording implies (Table 4)."""
    lowered = text.lower()
    for pattern, role in _ROLE_PATTERNS:
        if pattern.search(lowered):
            return role
    return ""


@dataclass
class ParsedSentence:
    """The parse stage's output for one sentence."""

    spec: SpecSentence
    result: ParseResult
    subject_supplied: bool = False
    from_cache: bool = False

    @property
    def logical_forms(self) -> list[Sem]:
        return self.result.logical_forms

    @property
    def pruned(self) -> bool:
        """True when the backend's cell budget truncated this parse."""
        return self.result.pruned


class ParseStage:
    """NP-chunk + CCG-parse, with subject-supply retry and caching.

    The stage runs one parser over one chunker: the pipeline's
    (``registry.parser()``, the indexed parser) or its parity oracle, the
    plain CKY chart (:class:`~repro.ccg.chart.CCGChartParser`);
    ``registry.chunker()`` supplies the shared chunker.

    The cache key is ``(parser.name:fingerprint, sentence_text, field)``:
    the parser name keeps different parser implementations' entries apart
    (never cross-served), the fingerprint hashes the lexicon entries and
    the chunker's dictionary and configuration, and ``field`` participates
    because the §4.1 retry splices the header-field name into the token
    stream.  Cached values are the ``(ParseResult, subject_supplied)``
    pair, stored as shared read-only objects.

    The cache is polymorphic: the registry hands this stage a plain
    in-memory :class:`~repro.cache.persistent.ContentCache`, or — when a cache
    directory is configured — a :class:`~repro.cache.persistent.
    PersistentParseCache` whose ``put`` also publishes the entry (the
    materialized forest result with full provenance, ``schema:1b``-encoded)
    to the shared on-disk store, and whose ``get`` falls through to it.
    The stage itself is oblivious; the same keys address both layers.
    """

    def __init__(self, parser: CCGChartParser, chunker: NounPhraseChunker,
                 cache: ContentCache | None = None) -> None:
        self.parser = parser
        self.chunker = chunker
        self.cache = cache
        self._chunker_fingerprint: str | None = None

    def fingerprint(self) -> str:
        """The combined backend + lexicon + chunker content identity.

        The backend name comes first: two backends never share cache
        entries, even over identical grammars (their ``ParseResult``
        metadata differs), and a backend swap is automatically a cache
        miss.  The lexicon part is re-read every call —
        ``Lexicon.fingerprint`` is self-invalidating on mutation, so
        entries added after construction move this stage to fresh cache
        keys instead of serving stale-grammar parses.  The chunker part is
        hashed once: dictionary and config objects are documented
        read-only after construction.
        """
        if self._chunker_fingerprint is None:
            self._chunker_fingerprint = self.chunker.fingerprint()
        return (self.parser.name + ":"
                + self.parser.lexicon.fingerprint() + ":"
                + self._chunker_fingerprint)

    def substrate_fingerprint(self) -> str:
        """The grammar-only content identity: lexicon + chunker, no backend.

        The winnow-result cache keys on this instead of ``fingerprint()``:
        winnowing consumes logical forms, which every backend over the same
        grammar is gated to produce identically (the parity suite), so a
        backend swap must *hit* the winnow cache even though it misses the
        parse cache.
        """
        if self._chunker_fingerprint is None:
            self._chunker_fingerprint = self.chunker.fingerprint()
        return (self.parser.lexicon.fingerprint() + ":"
                + self._chunker_fingerprint)

    def cache_key(self, spec: SpecSentence) -> tuple:
        return (self.fingerprint(), spec.text, spec.field)

    def run(self, spec: SpecSentence) -> ParsedSentence:
        """Parse one sentence, serving repeats from the shared cache."""
        parsed = self._cached(spec)
        return self._computed(spec) if parsed is None else parsed

    def run_batch(self, specs) -> list[ParsedSentence]:
        """Parse a whole corpus (any iterable of specs) through this one
        backend instance, serving repeats from the shared cache.

        The batch surface exists so sweeps, benchmarks, and diagnostics
        drive one warm backend over many sentences without re-resolving
        the stage per sentence; see ``SageEngine.parse_batch`` for the
        engine-level corpus entry point.  Under the ``indexed`` backend a
        batch additionally reuses packed-forest subtrees *across*
        sentences through the span-signature memo (keyed by the lexicon
        fingerprint — RFC prose repeats field clauses and directive
        phrasing heavily), so corpus order parses strictly faster than
        the same sentences parsed in isolation; the reuse is gated to be
        output-invariant.  ``repro.parsing.profile`` counters (span
        reuse, memo hit rates, budget drops) accumulate across the batch
        and are surfaced by ``SageService.parse_diagnostics`` and
        ``python -m repro parse --profile``.

        From the first cache miss on, the batch runs inside one
        :func:`~repro.gcpolicy.cold_batch_gc` window; a batch the cache
        serves whole never touches the garbage collector.
        """
        specs = list(specs)
        parsed = []
        for index, spec in enumerate(specs):
            hit = self._cached(spec)
            if hit is None:
                with cold_batch_gc():
                    parsed.append(self._computed(spec))
                    parsed.extend(self.run(later)
                                  for later in specs[index + 1:])
                break
            parsed.append(hit)
        return parsed

    def _cached(self, spec: SpecSentence) -> ParsedSentence | None:
        """``spec``'s cached parse (one counted lookup), or None."""
        if self.cache is None:
            return None
        hit = self.cache.get(self.cache_key(spec))
        if hit is None:
            return None
        result, supplied = hit
        return ParsedSentence(spec=spec, result=result,
                              subject_supplied=supplied, from_cache=True)

    def _computed(self, spec: SpecSentence) -> ParsedSentence:
        """Parse ``spec`` and cache the outcome."""
        result, supplied = self._parse(spec)
        if self.cache is not None:
            self.cache.put(self.cache_key(spec), (result, supplied))
        return ParsedSentence(spec=spec, result=result,
                              subject_supplied=supplied)

    def parse_text(self, text: str) -> ParseResult:
        """Parse bare text (no spec, no subject-supply retry), cached.

        The ablation experiments count base logical forms over raw
        sentences; routing them through the stage lets them share the
        pipeline's cache under the same fingerprint scheme."""
        spec = SpecSentence(text=text, protocol="", message="", field="",
                            kind="intro")
        return self.run(spec).result

    def _parse(self, spec: SpecSentence) -> tuple[ParseResult, bool]:
        tokens = self.chunker.chunk_text(spec.text)
        result = self.parser.parse(tokens)
        if result.logical_forms or not spec.field:
            return result, False
        for variant in self.supply_variants(spec, tokens):
            retry = self.parser.parse(variant)
            if retry.logical_forms:
                return retry, True
        return result, False

    @staticmethod
    def supply_variants(spec: SpecSentence, tokens: list[Token]):
        """Subject-supply re-parses (§4.1): the field name as subject.

        Yields (1) the sentence with ``<field> is`` prefixed, for verb-led
        fragments like "identifies the octet ..."; (2) the field name
        spliced after the first comma, for conditional fragments like
        "If code = 0, identifies ...".
        """
        field_np = Token(spec.field.replace("_", " "), KIND_NOUN_PHRASE, 0)
        yield [field_np, Token("is", "word", 0)] + tokens
        for index, token in enumerate(tokens):
            if token.text == ",":
                yield tokens[: index + 1] + [field_np] + tokens[index + 1:]
                break


class WinnowStage:
    """Apply the §4.2 disambiguation checks to a sentence's parses.

    With a cache attached, the whole :class:`WinnowTrace` is served by
    content address instead of re-running the checks.  The key is

    ``(suite fingerprint, grammar substrate fingerprint, field, sentence,
    LF-set digest)``

    — every input the trace depends on and nothing else.  The suite part
    self-invalidates when any check's rules change (see
    :meth:`~repro.disambiguation.checks.CheckSuite.fingerprint`); the
    substrate part is the *backend-free* grammar identity from
    :meth:`ParseStage.substrate_fingerprint`, so both parsers hit
    the same winnow entries; the LF digest hashes the provenance-free
    structural signatures of the parsed forms, guarding against any route
    (resolution rewrites, hand-built forms) that changes the LF set under
    an unchanged sentence.  Like the parse cache, the attached cache may be
    the plain in-memory :class:`~repro.cache.persistent.ContentCache` or
    the persistent variant that falls through to the shared on-disk store.
    """

    def __init__(self, suite: CheckSuite | None = None,
                 cache: ContentCache | None = None,
                 substrate_fingerprint=None) -> None:
        self.suite = suite or CheckSuite.default()
        self.cache = cache
        #: Zero-arg callable giving the grammar substrate fingerprint
        #: (usually ``ParseStage.substrate_fingerprint``); "" when absent.
        self._substrate_fingerprint = substrate_fingerprint

    def suite_fingerprint(self) -> str:
        """The current suite's content digest (cached by the suite)."""
        return self.suite.fingerprint()

    def cache_key(self, parsed: ParsedSentence) -> tuple:
        digest = sha1("\x1e".join(
            signature(form) for form in parsed.logical_forms
        ).encode("utf-8")).hexdigest()
        substrate = (self._substrate_fingerprint()
                     if self._substrate_fingerprint is not None else "")
        return (self.suite_fingerprint(), substrate, parsed.spec.field,
                parsed.spec.text, digest)

    def run(self, parsed: ParsedSentence) -> WinnowTrace:
        if self.cache is None:
            return winnow(parsed.spec.text, parsed.logical_forms, self.suite)
        key = self.cache_key(parsed)
        hit = self.cache.get(key)
        if hit is not None:
            WINNOW_PROFILE.stage_cache_hits += 1
            return hit
        WINNOW_PROFILE.stage_cache_misses += 1
        trace = winnow(parsed.spec.text, parsed.logical_forms, self.suite)
        self.cache.put(key, trace)
        return trace


class GenerateStage:
    """Resolve sentence context and compile a logical form to ops.

    ``generate`` raises the handler layer's exceptions (`NonActionable`,
    `AmbiguousReference`, `UnknownReference`) untranslated — mapping them to
    sentence statuses is the engine's job, keeping this stage reusable for
    single-form experiments like the quickstart example.
    """

    def __init__(self) -> None:
        self.handlers = HandlerRegistry()

    def context_for(self, spec: SpecSentence) -> SentenceContext:
        """The Table 4 context dictionary — built once per sentence."""
        return SentenceContext(
            protocol=spec.field_group or spec.protocol,
            message=spec.message,
            field=spec.field,
            role=role_of(spec.text),
        )

    def generate(self, form: Sem, context: SentenceContext) -> HandlerResult:
        return self.handlers.generate(form, context)

    def all_non_actionable(self, forms: list[Sem],
                           context: SentenceContext) -> bool:
        """True when every surviving LF fails code generation outright.

        Such sentences are descriptive prose; their residual LF multiplicity
        is not an ambiguity a human needs to resolve (§5.2's iterative
        discovery tags them @AdvComment).
        """
        for form in forms:
            try:
                self.generate(form, context)
                return False
            except (NonActionable, UnknownReference):
                continue
            except AmbiguousReference:
                return False
        return True

    def assemble(self, corpus, codes_by_section: dict[str, list[SentenceCode]],
                 sender_built: frozenset[str] | None = None) -> Program:
        """Assemble sentence ops into the typed IR: one
        :class:`~repro.codegen.ir.Function` per (message, role), with the
        struct declarations from the header diagrams.

        ``codes_by_section`` maps a section title to the
        :class:`~repro.codegen.ir.SentenceCode` records its sentences
        produced; ``sender_built`` is the registry's role metadata for the
        protocol.  Colliding builder names raise
        :class:`~repro.codegen.ir.FunctionNameCollision` (two messages must
        never silently merge into one function).
        """
        program = Program(protocol=corpus.protocol)
        struct_parts = []
        for section in corpus.document.message_sections:
            if section.diagram is not None:
                struct_parts.append(section.diagram.layout.to_c_struct())
            type_values = section.type_values()
            code_field = section.field_named("code")
            code_value = code_field.fixed_value if code_field else None
            code_is_enumerated = bool(
                code_field and len(code_field.values) > 1
            )
            for message_name in section.message_names:
                function = build_function(
                    protocol=corpus.protocol,
                    message_name=message_name,
                    role=builder_role(message_name, sender_built),
                    sentence_codes=codes_by_section.get(section.title, []),
                    type_value=type_values.get(message_name),
                    code_value=code_value,
                )
                if code_is_enumerated:
                    # "0 = net unreachable; 1 = ..." — the scenario picks
                    # which enumerated code applies at run time.
                    function.ops.insert(
                        1, SetField(corpus.protocol.lower(), "code",
                                    Value.param("code"))
                    )
                program.add(function)
        program.struct_c = "\n\n".join(dict.fromkeys(struct_parts))
        return program
