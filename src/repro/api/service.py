"""The service front door: one object, every pipeline entry point.

:class:`SageService` wraps a :class:`~repro.core.engine.SageEngine` pair
(one per mode, sharing the registry's memoized substrate and parse cache)
behind request/response contracts:

* :meth:`process` — one protocol, one :class:`~repro.api.contracts.
  ProcessRequest` in (object, dict, or JSON envelope), one
  :class:`~repro.api.contracts.ProcessResponse` out;
* :meth:`sweep` — the batch endpoint: every requested protocol in one
  call, in process;
* :meth:`artifact` — compiled-artifact retrieval by backend, fingerprinted
  and self-contained (see :class:`~repro.api.contracts.GeneratedArtifact`);
* :meth:`session` — open the interactive
  :class:`~repro.api.session.DisambiguationSession` on a protocol.

Failures surface as structured :class:`~repro.api.errors.ApiError`
subclasses, never registry ``KeyError`` leaks — the transports (the
``python -m repro`` CLI and the HTTP server in :mod:`repro.server`) map
them 1:1 onto error payloads.

:func:`parse_report` renders one batch parse of a corpus through one parse
stage; :meth:`SageService.parse_diagnostics` and ``parse --compare`` both
report through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..codegen.backends import BACKENDS, backend_names
from ..core.results import SageRun, run_key_for
from ..rfc.registry import ProtocolRegistry
from .contracts import (
    GeneratedArtifact,
    ProcessRequest,
    ProcessResponse,
    SweepRequest,
    SweepResponse,
    _check_mode,
    code_unit_of,
    from_envelope,
    from_json,
    request_payload,
)
from .errors import ApiError, ProtocolNotFound, RequestError

if TYPE_CHECKING:
    from ..core.engine import SageEngine
    from ..core.stages import ParseStage
    from ..rfc.corpus import Corpus
    from .session import DisambiguationSession


def _coerce_request(request, request_type, **kwargs):
    """Accept a request object, a plain field dict, a ``schema:1``
    envelope (as JSON text or an already-parsed dict), or kwargs."""
    if request is None:
        request = kwargs
    elif kwargs:
        raise RequestError(
            f"pass either a {request_type.__name__} or keyword arguments, "
            "not both"
        )
    if isinstance(request, str):
        request = request_payload(from_json, request)
    elif isinstance(request, dict):
        if "schema" not in request:
            return request_type.from_dict(request)
        request = request_payload(from_envelope, request)
    if not isinstance(request, request_type):
        raise RequestError(
            f"expected a {request_type.__name__} payload, got "
            f"{type(request).__name__}"
        )
    return request


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to build the service the CLI and every server
    worker run.

    It carries *paths* and flags, never live objects: each forked server
    worker builds a service of its own from it, on its first request.
    """

    cache_dir: str | None = None
    journal_path: str | None = None
    bundled_rewrites: bool = True

    def build_service(self) -> "SageService":
        """With nothing to customize, a service over the shared default
        registry (no store); else a new registry over ``cache_dir``
        replaying the journal.  A bad journal is a :class:`RequestError`."""
        registry = journal = None
        if self.cache_dir or self.journal_path or not self.bundled_rewrites:
            registry = ProtocolRegistry(bundled_rewrites=self.bundled_rewrites,
                                        cache_dir=self.cache_dir)
        if self.journal_path:
            from ..disambiguation.resolution import DecisionJournal

            try:
                journal = DecisionJournal.load(self.journal_path)
            except (OSError, ValueError) as exc:  # ResolutionError included
                raise RequestError(
                    f"cannot read journal {self.journal_path}: {exc}"
                ) from exc
        return SageService(registry=registry, journal=journal)


def parse_report(stage: ParseStage, corpus: Corpus) -> dict:
    """Batch-parse ``corpus`` through ``stage`` and report per-sentence
    diagnostics.

    Returns a JSON-safe dict: the parser's name, wall-clock timing and
    throughput, parse-cache hit counts, per-sentence LF counts / unknown
    words / pruned flags, and — under ``"profile"`` — the
    :mod:`repro.parsing.profile` counter delta for exactly this batch
    (agenda pops, span/production/apply memo hit rates, deferred-item
    counts, budget drops) plus :data:`repro.gcpolicy.GC_COUNTERS`
    (objects frozen after the batch, collections per generation in it).
    No winnowing or code generation runs — this is the parsing subsystem
    in isolation.
    """
    import hashlib
    import time

    from ..ccg.semantics import signature
    from ..gcpolicy import gc_counts, gc_delta
    from ..parsing.profile import PROFILE

    specs = corpus.sentences  # the RFC text parses here, outside the timers
    counters_before = PROFILE.counts()
    gc_before = gc_counts()
    started = time.perf_counter()
    parsed = stage.run_batch(specs)
    elapsed = time.perf_counter() - started
    profile = {**PROFILE.delta(counters_before), **gc_delta(gc_before)}
    sentences = []
    for index, item in enumerate(parsed):
        sigs = sorted(signature(form) for form in item.result.logical_forms)
        sentences.append({
            "index": index,
            "text": item.spec.text,
            "lf_count": item.result.count,
            # Content hash of the sorted LF signature set: two parsers
            # parse identically iff these match sentence for sentence
            # (what `parse --compare` checks).
            "lf_set_sha1": hashlib.sha1(
                "\n".join(sigs).encode("utf-8")
            ).hexdigest(),
            "unknown_words": list(item.result.unknown_words),
            "subject_supplied": item.subject_supplied,
            "pruned": item.pruned,
            "dropped_items": item.result.dropped_items,
            "from_cache": item.from_cache,
        })
    return {
        "protocol": corpus.protocol,
        "parser_backend": stage.parser.name,
        "sentence_count": len(parsed),
        "elapsed_s": elapsed,
        "sentences_per_s": (len(parsed) / elapsed) if elapsed else 0.0,
        "parsed_from_cache": sum(1 for item in parsed if item.from_cache),
        "unparsed": sum(1 for item in parsed if item.result.count == 0),
        "pruned_sentences": sum(1 for item in parsed if item.pruned),
        "profile": profile,
        "sentences": sentences,
    }


class SageService:
    """The versioned public pipeline service over one protocol registry."""

    def __init__(self, registry: ProtocolRegistry | None = None,
                 journal=None) -> None:
        if registry is None:
            from ..rfc.registry import default_registry

            registry = default_registry()
        self.registry = registry
        if journal is not None:
            registry.attach_journal(journal)
        self._engines: dict[str, SageEngine] = {}

    # -- engines ----------------------------------------------------------------
    def engine(self, mode: str = "revised") -> SageEngine:
        """The service's engine for ``mode``, built once per mode;
        decisions are refreshed on every request so journal updates
        always apply."""
        mode = _check_mode(mode)
        engine = self._engines.get(mode)
        if engine is None:
            from ..core.engine import SageEngine

            engine = SageEngine(mode=mode, protocol_registry=self.registry)
            self._engines[mode] = engine
        engine.refresh_decisions()
        return engine

    def _load_corpus(self, protocol: str):
        try:
            return self.registry.load_corpus(protocol)
        except KeyError:
            raise ProtocolNotFound(protocol, self.registry.protocols()) from None

    # -- endpoints --------------------------------------------------------------
    def run(self, protocol: str, mode: str = "revised") -> SageRun:
        """The raw pipeline run (power users; everything else wraps this).

        One counted run-memo lookup under :func:`~repro.core.results.
        run_key_for` — the key the engine computes, here from names and
        tables alone, so a warm request reads one run entry and builds no
        engine, lexicon, parser, chunker or check suite.  A miss goes to
        the engine's :meth:`~repro.core.engine.SageEngine.compute`, which
        memoizes the run under the same key."""
        corpus = self._load_corpus(protocol)
        mode = _check_mode(mode)
        registry = self.registry
        key = run_key_for(registry, corpus, mode,
                          registry.rewrites(), registry.selections())
        run = registry.run_cache().get(key)
        if run is None:
            run = self.engine(mode).compute(corpus, key)
        return run

    def process(self, request: ProcessRequest | dict | str | None = None,
                **kwargs) -> ProcessResponse:
        """One protocol through the pipeline, as a wire response."""
        request = _coerce_request(request, ProcessRequest, **kwargs)
        self._check_artifacts(request.artifacts)
        run = self.run(request.protocol, request.mode)
        return ProcessResponse.from_run(
            run, request.mode,
            include_sentences=request.include_sentences,
            artifacts=request.artifacts,
        )

    def sweep(self, request: SweepRequest | dict | str | None = None,
              **kwargs) -> SweepResponse:
        """The batch endpoint: many protocols in one call."""
        request = _coerce_request(request, SweepRequest, **kwargs)
        self._check_artifacts(request.artifacts)
        names = ([name.upper() for name in request.protocols]
                 or self.registry.protocols())
        for name in names:
            self._load_corpus(name)  # fail structured before the sweep
        runs = {name: self.run(name, request.mode) for name in names}
        responses = {
            name: ProcessResponse.from_run(
                run, request.mode,
                include_sentences=request.include_sentences,
                artifacts=request.artifacts,
            )
            for name, run in runs.items()
        }
        return SweepResponse(
            mode=request.mode,
            protocols=list(runs),
            responses=responses,
        )

    def artifact(self, protocol: str, backend: str = "c",
                 mode: str = "revised") -> GeneratedArtifact:
        """The compiled artifact for one protocol under one backend."""
        self._check_artifacts((backend,))  # fail fast, before the run
        run = self.run(protocol, mode)
        return GeneratedArtifact.from_program(code_unit_of(run),
                                              backend=backend, mode=mode)

    def session(self, protocol: str, mode: str = "revised",
                **kwargs) -> DisambiguationSession:
        """Open the interactive disambiguation surface on ``protocol``."""
        from .session import DisambiguationSession

        return DisambiguationSession(protocol, mode=mode,
                                     registry=self.registry, **kwargs)

    def parse_diagnostics(self, protocol: str) -> dict:
        """Batch-parse one corpus through the pipeline's parser and report
        per-sentence diagnostics (the ``python -m repro parse`` payload,
        see :func:`parse_report`).  The parse cache serves repeats."""
        corpus = self._load_corpus(protocol)
        return parse_report(self.engine().current_parse_stage(), corpus)

    def winnow_diagnostics(self, protocol: str) -> dict:
        """Parse + winnow one corpus and report per-sentence winnow
        diagnostics (the ``python -m repro winnow`` payload).

        Parsing runs first (cache-served when warm) and is *excluded* from
        the timing: ``elapsed_s`` brackets exactly the winnow stage, so
        this is the §4.2 check suite in isolation.  Returns a JSON-safe
        dict: per-sentence stage counts and survivor digests, wall-clock
        throughput, the winnow-result cache stats, and — under
        ``"profile"`` — the :mod:`repro.disambiguation.profile` counter
        delta for exactly this batch (canonical-sid and check-memo hit
        rates, per-form cache hits, stage-cache hits).  No
        code generation runs.
        """
        import hashlib
        import time

        from ..ccg.semantics import signature
        from ..disambiguation.profile import PROFILE

        corpus = self._load_corpus(protocol)
        engine = self.engine()
        parsed = engine.parse_batch(corpus)
        counters_before = PROFILE.counts()
        started = time.perf_counter()
        traces = [engine.winnow_stage.run(item) for item in parsed]
        elapsed = time.perf_counter() - started
        profile = PROFILE.delta(counters_before)
        sentences = []
        for index, (item, trace) in enumerate(zip(parsed, traces)):
            survivor_sigs = [signature(form) for form in trace.survivors]
            sentences.append({
                "index": index,
                "text": item.spec.text,
                "counts": dict(trace.counts),
                "base_count": trace.base_count,
                "final_count": trace.final_count,
                "ambiguous": trace.ambiguous_after_winnowing,
                # Content hash of the ordered survivor signatures: two
                # winnow paths (cold checks vs warm cache, either parser)
                # agree iff these match sentence for sentence.
                "survivors_sha1": hashlib.sha1(
                    "\n".join(survivor_sigs).encode("utf-8")
                ).hexdigest(),
            })
        cache = engine.winnow_stage.cache
        return {
            "protocol": corpus.protocol,
            "sentence_count": len(parsed),
            "elapsed_s": elapsed,
            "sentences_per_s": (len(parsed) / elapsed) if elapsed else 0.0,
            "ambiguous_after_winnowing": sum(
                1 for trace in traces if trace.ambiguous_after_winnowing
            ),
            "winnow_cache": cache.stats() if cache is not None else None,
            "profile": profile,
            "sentences": sentences,
        }

    def fuzz(self, seed: int = 0, episodes: int = 50,
             protocols: tuple[str, ...] = (),
             families: tuple[str, ...] = (),
             backends: tuple[str, ...] = (),
             mode: str = "revised") -> dict:
        """Run one seeded differential-fuzz campaign and report the matrix.

        Generates ``episodes`` deterministic scenarios (see
        :mod:`repro.fuzz.generator`), replays each against every
        executable backend — the hand-written reference plus the
        generated exec-Python and interpreter implementations — and
        returns the :class:`~repro.fuzz.runner.FuzzReport` as a JSON-safe
        dict: divergences, oracle violations, the interop matrix, the
        emitted-C fingerprint lock, and the run's trace digest
        (byte-identical for identical seeds).
        """
        from ..fuzz import EXECUTABLE_BACKENDS, PROTOCOLS, run_fuzz

        mode = _check_mode(mode)
        fuzzed = tuple(name.upper() for name in protocols) or PROTOCOLS
        for name in fuzzed:
            if name not in PROTOCOLS:
                raise RequestError(
                    f"unknown fuzz protocol {name!r}: fuzzed protocols are "
                    f"{', '.join(PROTOCOLS)}"
                )
        engine = self.engine(mode)
        runs = engine.process_corpora(list(fuzzed))
        units = {name: code_unit_of(run) for name, run in runs.items()}
        try:
            report = run_fuzz(
                units, seed=seed, episodes=episodes, protocols=fuzzed,
                families=tuple(families),
                backends=tuple(backends) or EXECUTABLE_BACKENDS,
            )
        except (KeyError, ValueError) as exc:
            # TraceGenerator/DifferentialRunner validate family and
            # backend names with KeyError/ValueError; surface those as
            # structured request failures, not tracebacks.
            raise RequestError(str(exc).strip("'\"")) from exc
        return report.to_dict()

    # -- validation -------------------------------------------------------------
    @staticmethod
    def _check_artifacts(backends: tuple[str, ...]) -> None:
        for backend in backends:
            if backend not in BACKENDS:
                from .errors import BackendNotFound

                raise BackendNotFound(backend, backend_names())


__all__ = ["SageService", "ApiError", "parse_report"]
