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
subclasses, never registry ``KeyError`` leaks — the transport layer (the
``python -m repro`` CLI today, an HTTP shim tomorrow) maps them 1:1 onto
error payloads.
"""

from __future__ import annotations

from ..codegen.ir import backend_names
from ..core.engine import SageEngine, SageRun
from ..rfc.registry import ProtocolRegistry, UnknownProtocolError
from .contracts import (
    GeneratedArtifact,
    ProcessRequest,
    ProcessResponse,
    SweepRequest,
    SweepResponse,
    _check_mode,
    from_json,
)
from .errors import ApiError, ProtocolNotFound, RequestError
from .session import DisambiguationSession


def _coerce_request(request, request_type, **kwargs):
    """Accept a request object, a plain dict, a JSON envelope, or kwargs."""
    if request is None:
        return request_type.from_dict(kwargs) if kwargs else request_type.from_dict({})
    if kwargs:
        raise RequestError(
            f"pass either a {request_type.__name__} or keyword arguments, "
            "not both"
        )
    if isinstance(request, request_type):
        return request
    if isinstance(request, str):
        decoded = from_json(request)
        if not isinstance(decoded, request_type):
            raise RequestError(
                f"expected a {request_type.__name__} payload, got "
                f"{type(decoded).__name__}"
            )
        return decoded
    if isinstance(request, dict):
        return request_type.from_dict(request)
    raise RequestError(
        f"cannot interpret {type(request).__name__} as a "
        f"{request_type.__name__}"
    )


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
        self._engines: dict[tuple[str, str], SageEngine] = {}

    # -- engines ----------------------------------------------------------------
    def engine(self, mode: str = "revised",
               parser_backend: str = "") -> SageEngine:
        """The service's engine for ``(mode, parser_backend)`` (built
        once, decisions refreshed on every request so journal updates
        always apply).  An empty ``parser_backend`` defers to each
        protocol's registered preference; engines share the registry's
        parse cache either way, whose keys carry the backend id."""
        mode = _check_mode(mode)
        if parser_backend:
            self._check_parser_backend(parser_backend)
        key = (mode, parser_backend)
        engine = self._engines.get(key)
        if engine is None:
            engine = SageEngine(mode=mode, protocol_registry=self.registry,
                                parser_backend=parser_backend or None)
            self._engines[key] = engine
        engine.refresh_decisions()
        return engine

    def _load_corpus(self, protocol: str):
        try:
            return self.registry.load_corpus(protocol)
        except KeyError:
            raise ProtocolNotFound(protocol, self.registry.protocols()) from None

    # -- endpoints --------------------------------------------------------------
    def run(self, protocol: str, mode: str = "revised",
            parser_backend: str = "") -> SageRun:
        """The raw pipeline run (power users; everything else wraps this)."""
        return self.engine(mode, parser_backend).process_corpus(
            self._load_corpus(protocol)
        )

    def process(self, request: ProcessRequest | dict | str | None = None,
                **kwargs) -> ProcessResponse:
        """One protocol through the pipeline, as a wire response."""
        request = _coerce_request(request, ProcessRequest, **kwargs)
        self._check_artifacts(request.artifacts)
        run = self.run(request.protocol, request.mode, request.parser_backend)
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
        engine = self.engine(request.mode, request.parser_backend)
        names = [name.upper() for name in request.protocols] or None
        if names:
            for name in names:
                self._load_corpus(name)  # fail structured before the sweep
        try:
            runs = engine.process_corpora(names)
        except UnknownProtocolError as exc:
            raise ProtocolNotFound(exc.name, exc.known) from None
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
        return GeneratedArtifact.from_program(run.code_unit, backend=backend,
                                              mode=mode)

    def session(self, protocol: str, mode: str = "revised",
                **kwargs) -> DisambiguationSession:
        """Open the interactive disambiguation surface on ``protocol``."""
        return DisambiguationSession(protocol, mode=mode,
                                     registry=self.registry, **kwargs)

    def parse_diagnostics(self, protocol: str, parser_backend: str = "",
                          mode: str = "revised") -> dict:
        """Batch-parse one corpus through one backend and report per-
        sentence diagnostics (the ``python -m repro parse`` payload).

        Returns a JSON-safe dict: backend identity, wall-clock timing and
        throughput, parse-cache hit counts, per-sentence LF counts /
        unknown words / pruned flags, and — under ``"profile"`` — the
        :mod:`repro.parsing.profile` counter delta for exactly this batch
        (agenda pops, span/production/apply memo hit rates, deferred-item
        counts, budget drops).  No winnowing or code generation runs —
        this is the parsing subsystem in isolation.
        """
        import hashlib
        import time

        from ..ccg.semantics import signature
        from ..parsing.profile import PROFILE, profile_delta

        if parser_backend:
            self._check_parser_backend(parser_backend)
        corpus = self._load_corpus(protocol)
        engine = self.engine(mode, parser_backend)
        counters_before = PROFILE.counts()
        started = time.perf_counter()
        parsed = engine.parse_batch(corpus,
                                    parser_backend=parser_backend or None)
        elapsed = time.perf_counter() - started
        profile = profile_delta(counters_before, PROFILE.counts())
        backend = (parser_backend
                   or self.registry.parser_backend_for(corpus.protocol))
        sentences = []
        for index, item in enumerate(parsed):
            sigs = sorted(signature(form)
                          for form in item.result.logical_forms)
            sentences.append({
                "index": index,
                "text": item.spec.text,
                "lf_count": item.result.count,
                # Content hash of the sorted LF signature set: two
                # backends parse identically iff these match sentence
                # for sentence (what `parse --compare` checks).
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
            "parser_backend": backend,
            "sentence_count": len(parsed),
            "elapsed_s": elapsed,
            "sentences_per_s": (len(parsed) / elapsed) if elapsed else 0.0,
            "parsed_from_cache": sum(1 for item in parsed if item.from_cache),
            "unparsed": sum(1 for item in parsed if item.result.count == 0),
            "pruned_sentences": sum(1 for item in parsed if item.pruned),
            "profile": profile,
            "sentences": sentences,
        }

    def winnow_diagnostics(self, protocol: str, parser_backend: str = "",
                           mode: str = "revised") -> dict:
        """Parse + winnow one corpus and report per-sentence winnow
        diagnostics (the ``python -m repro winnow`` payload).

        Parsing runs first (cache-served when warm) and is *excluded* from
        the timing: ``elapsed_s`` brackets exactly the winnow stage, so
        this is the §4.2 check suite in isolation.  Returns a JSON-safe
        dict: per-sentence stage counts and survivor digests, wall-clock
        throughput, the winnow-result cache stats, and — under
        ``"profile"`` — the :mod:`repro.disambiguation.profile` counter
        delta for exactly this batch (canonical-sid and check-memo hit
        rates, per-form cache hits, stage-cache hits, oracle calls).  No
        code generation runs.
        """
        import hashlib
        import time

        from ..ccg.semantics import signature
        from ..disambiguation.profile import PROFILE, profile_delta

        if parser_backend:
            self._check_parser_backend(parser_backend)
        corpus = self._load_corpus(protocol)
        engine = self.engine(mode, parser_backend)
        parsed = engine.parse_batch(corpus,
                                    parser_backend=parser_backend or None)
        counters_before = PROFILE.counts()
        started = time.perf_counter()
        traces = [engine.winnow_stage.run(item) for item in parsed]
        elapsed = time.perf_counter() - started
        profile = profile_delta(counters_before, PROFILE.counts())
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
                # winnow paths (cold checks vs warm cache, any backend)
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
        units = {name: run.code_unit for name, run in runs.items()}
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
    def _check_parser_backend(name: str) -> None:
        from ..parsing import parser_backend_names

        if name not in parser_backend_names():
            from .errors import ParserBackendNotFound

            raise ParserBackendNotFound(name, parser_backend_names())

    @staticmethod
    def _check_artifacts(backends: tuple[str, ...]) -> None:
        from .errors import BackendNotFound

        known = backend_names()
        # The registry lazily imports the bundled backends on first use;
        # resolve through the ir helper so "c"/"python"/"interp" always
        # validate even before anything rendered.
        if not known:
            from ..codegen.ir import _ensure_default_backends

            _ensure_default_backends()
            known = backend_names()
        for backend in backends:
            if backend not in known:
                raise BackendNotFound(backend, known)


__all__ = ["SageService", "ApiError"]
