"""Quickstart: one sentence through the full SAGE pipeline, stage by stage.

Drives the three pipeline stage objects directly — the same objects a
:class:`~repro.core.SageEngine` composes: the parse stage (NP chunking +
CCG, with the shared registry parse cache), the winnow stage (§4.2 checks),
and the generate stage (Table 4 context + handler dispatch), compiling the
surviving logical form to both C and Python — then the same pipeline again
as one :class:`~repro.api.SageService` request/response round trip.

The parse stage runs the pipeline's parser, ``registry.parser()`` (the
category-indexed chart over a packed forest).  Its parity oracle, the
plain CKY chart, is ``repro.ccg.chart.CCGChartParser(registry.lexicon())``
and yields identical logical forms; ``python -m repro parse ICMP
--compare`` runs both, and parity is CI-gated (DESIGN.md §8).

Run:  python examples/quickstart.py
"""

from repro.api import ProcessRequest, SageService, to_json
from repro.ccg.semantics import signature
from repro.codegen import CEmitter, PyEmitter
from repro.core import GenerateStage, ParseStage, WinnowStage
from repro.rfc.corpus import SpecSentence
from repro.rfc.registry import default_registry

SENTENCE = "For computing the checksum, the checksum field should be zero."


def main() -> None:
    print(f"sentence: {SENTENCE}\n")

    spec = SpecSentence(
        text=SENTENCE, protocol="ICMP",
        message="Echo or Echo Reply Message", field="checksum", kind="field",
    )

    # 1+2. The parse stage: noun-phrase labeling (the spaCy-equivalent
    # pass) then CCG parsing, against the memoized registry substrate and
    # the shared content-addressed parse cache.
    registry = default_registry()
    parse = ParseStage(registry.parser(), registry.chunker(),
                       cache=registry.parse_cache())
    tokens = parse.chunker.chunk_text(SENTENCE)
    print("tokens:  ", " | ".join(token.text for token in tokens), "\n")
    parsed = parse.run(spec)
    print(f"CCG produced {parsed.result.count} logical forms "
          f"(cache key fingerprint {parse.fingerprint()[:12]}…):")
    for form in parsed.logical_forms:
        print("   ", signature(form))

    # 3. The winnow stage (the five §4.2 checks).
    trace = WinnowStage().run(parsed)
    print("\ncounts after each check:", trace.counts)
    survivor = trace.survivors[0]
    print("surviving logical form: ", signature(survivor), "\n")

    # 4. The generate stage: context resolution + handler dispatch, then
    # both emitter backends.
    generate = GenerateStage()
    context = generate.context_for(spec)
    handled = generate.generate(survivor, context)
    print("C backend:")
    for line in CEmitter().emit(handled.ops, depth=1):
        print(line)
    print("\nPython backend:")
    for line in PyEmitter().emit(handled.ops, depth=1):
        print(line)

    # The cache remembers: a re-parse of the same sentence is a dict hit.
    again = parse.run(spec)
    print(f"\nre-parse served from cache: {again.from_cache} "
          f"({registry.parse_cache().stats()})")

    # 5. The same pipeline as a service call: one request object in, one
    # JSON-round-trippable response out (what `python -m repro process
    # ICMP --json` prints).
    service = SageService(registry=registry)
    response = service.process(ProcessRequest(protocol="ICMP",
                                              include_sentences=False,
                                              artifacts=("c",)))
    artifact = response.artifacts[0]
    print(f"\nservice response: {response.status_counts} "
          f"({len(to_json(response))} bytes as JSON)")
    print(f"C artifact: {len(artifact.source.splitlines())} lines, "
          f"IR sha1 {artifact.fingerprint[:12]}…")


if __name__ == "__main__":
    main()
