"""The serializable wire contracts of the service layer.

Every pipeline result — :class:`~repro.core.engine.SageRun`,
:class:`~repro.disambiguation.winnow.WinnowTrace`, the codegen
:class:`~repro.codegen.ir.Program` (``CodeUnit``), per-sentence results,
operator :class:`~repro.disambiguation.resolution.Resolution` records — and
every request/response dataclass here round-trips through JSON under one
schema-versioned envelope::

    {"schema": 1, "kind": "sage_run", "data": {...}}

:func:`to_json` / :func:`from_json` are the two entry points; both are
total over the contract types and raise structured
:class:`~repro.api.errors.ContractError`/:class:`~repro.api.errors.
SchemaVersionError` instead of tracebacks on bad payloads.  Round-tripping
is lossless (``from_json(to_json(x)) == x``, property-locked in
``tests/test_api_contracts.py``); corpora inside a ``SageRun`` serialize by
registry reference (the protocol name), so deserialization rehydrates the
same memoized :class:`~repro.rfc.corpus.Corpus` object.

Codegen artifacts additionally carry the IR content SHA-1; rebuilding them
verifies the fingerprint, so a stored artifact is tamper-evident
(:class:`~repro.codegen.ir.FingerprintMismatch`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

from ..ccg.semantics import App, Call, Const, Lam, Sem, Var, signature
from ..codegen.ir import (
    FingerprintMismatch,
    IRError,
    Program,
    backend_names,
    program_from_dict,
    program_to_dict,
    sentence_code_from_dict,
    sentence_code_to_dict,
)
from ..core.engine import (
    FLAGGED_STATUSES,
    SageRun,
    SentenceResult,
    SentenceStatus,
)
from ..disambiguation.resolution import (
    DecisionJournal,
    Resolution,
    ResolutionError,
)
from ..disambiguation.winnow import WinnowTrace
from ..rfc.corpus import Rewrite, SpecSentence, sentence_key
from .errors import ContractError, ProtocolNotFound, SchemaVersionError

#: The wire schema this build writes and reads.
SCHEMA_VERSION = 1


# -- logical forms -------------------------------------------------------------

def sem_to_dict(term: Sem) -> dict:
    """One semantic term as a JSON-safe dict (provenance included)."""
    if isinstance(term, Const):
        record: dict = {"t": "const", "value": term.value}
        if term.span is not None:
            record["span"] = list(term.span)
        return record
    if isinstance(term, Var):
        return {"t": "var", "name": term.name}
    if isinstance(term, Lam):
        return {"t": "lam", "param": term.param, "body": sem_to_dict(term.body)}
    if isinstance(term, App):
        return {"t": "app", "fn": sem_to_dict(term.fn),
                "arg": sem_to_dict(term.arg)}
    if isinstance(term, Call):
        record = {"t": "call", "pred": term.pred,
                  "args": [sem_to_dict(arg) for arg in term.args]}
        if term.trigger is not None:
            record["trigger"] = term.trigger
        if term.flags:
            record["flags"] = sorted(term.flags)
        return record
    raise ContractError(f"cannot serialize semantic term {type(term).__name__}")


_EMPTY_FLAGS = frozenset()


def sem_from_dict(record: dict) -> Sem:
    # Decode hot path: a bulk payload carries tens of thousands of term
    # nodes, and the frozen dataclasses' __init__ routes every field
    # through object.__setattr__.  The classes have no __post_init__ and
    # no slots, so __new__ + direct __dict__ fill builds the identical
    # object at a fraction of the cost.  Required keys use direct
    # subscripts (the enclosing try turns a missing one into the
    # structured error); "call" leads because it dominates real payloads.
    if type(record) is not dict:
        if isinstance(record, Sem):
            return record  # already decoded by the from_json parse hook
        raise ContractError(
            f"expected a semantic term record, got {type(record).__name__}"
        )
    try:
        tag = record["t"]
        if tag == "call":
            term = Call.__new__(Call)
            data = term.__dict__
            data["pred"] = record["pred"]
            raw_args = record.get("args")
            if raw_args:
                # Call arguments are overwhelmingly Const/Var leaves;
                # decoding them inline skips a recursive call per argument.
                args = []
                for arg in raw_args:
                    arg_tag = arg["t"]
                    if arg_tag == "const":
                        sub = Const.__new__(Const)
                        sub_data = sub.__dict__
                        sub_data["value"] = arg["value"]
                        span = arg.get("span")
                        sub_data["span"] = tuple(span) if span else None
                    elif arg_tag == "var":
                        sub = Var.__new__(Var)
                        sub.__dict__["name"] = arg["name"]
                    else:
                        sub = sem_from_dict(arg)
                    args.append(sub)
                data["args"] = tuple(args)
            else:
                data["args"] = ()
            data["trigger"] = record.get("trigger")
            flags = record.get("flags")
            data["flags"] = frozenset(flags) if flags else _EMPTY_FLAGS
            return term
        if tag == "const":
            term = Const.__new__(Const)
            data = term.__dict__
            data["value"] = record["value"]
            span = record.get("span")
            data["span"] = tuple(span) if span else None
            return term
        if tag == "var":
            term = Var.__new__(Var)
            term.__dict__["name"] = record["name"]
            return term
        if tag == "lam":
            term = Lam.__new__(Lam)
            data = term.__dict__
            data["param"] = record["param"]
            data["body"] = sem_from_dict(record["body"])
            return term
        if tag == "app":
            term = App.__new__(App)
            data = term.__dict__
            data["fn"] = sem_from_dict(record["fn"])
            data["arg"] = sem_from_dict(record["arg"])
            return term
    except (KeyError, TypeError) as exc:
        raise ContractError(
            f"malformed semantic term record: {exc!r}"
        ) from exc
    raise ContractError(f"unknown semantic term tag {tag!r}")


def _sem_parse_hook(record: dict):
    """``json.loads`` object_hook converting semantic-term records to
    :class:`Sem` objects *during* the C-level parse.

    The hook fires bottom-up — by the time a ``call`` record reaches it,
    its ``args`` entries are already Sem objects — so :func:`from_json`
    skips the recursive dict walk entirely, which is what makes decode
    faster than encode for LF-heavy payloads.  Anything that is not a
    well-formed term record passes through unchanged and the ordinary
    decoders reject it with their structured errors; a stray non-term
    dict that happens to carry a ``"t"`` key is left alone unless it also
    carries the full field set of a term.
    """
    tag = record.get("t")
    if tag == "call":
        pred = record.get("pred")
        if type(pred) is not str:
            return record
        args = record.get("args")
        if args:
            for item in args:
                if not isinstance(item, Sem):
                    return record
            args = tuple(args)
        else:
            args = ()
        trigger = record.get("trigger")
        if trigger is not None and type(trigger) is not int:
            return record
        term = Call.__new__(Call)
        data = term.__dict__
        data["pred"] = pred
        data["args"] = args
        data["trigger"] = trigger
        flags = record.get("flags")
        data["flags"] = frozenset(flags) if flags else _EMPTY_FLAGS
        return term
    if tag == "const":
        if "value" not in record:
            return record
        span = record.get("span")
        if span is not None and type(span) is not list:
            return record
        term = Const.__new__(Const)
        data = term.__dict__
        data["value"] = record["value"]
        data["span"] = tuple(span) if span else None
        return term
    if tag == "var":
        name = record.get("name")
        if type(name) is not str:
            return record
        term = Var.__new__(Var)
        term.__dict__["name"] = name
        return term
    if tag == "lam":
        param = record.get("param")
        body = record.get("body")
        if type(param) is not str or not isinstance(body, Sem):
            return record
        term = Lam.__new__(Lam)
        data = term.__dict__
        data["param"] = param
        data["body"] = body
        return term
    if tag == "app":
        fn = record.get("fn")
        arg = record.get("arg")
        if not isinstance(fn, Sem) or not isinstance(arg, Sem):
            return record
        term = App.__new__(App)
        data = term.__dict__
        data["fn"] = fn
        data["arg"] = arg
        return term
    return record


# -- winnow traces -------------------------------------------------------------

def trace_to_dict(trace: WinnowTrace, sem_encode=sem_to_dict) -> dict:
    return {
        "sentence": trace.sentence,
        "counts": dict(trace.counts),
        "survivors": [sem_encode(form) for form in trace.survivors],
        "base_forms": [sem_encode(form) for form in trace.base_forms],
    }


def trace_from_dict(record: dict) -> WinnowTrace:
    # JSON already delivers the counts as ints; a plain dict copy beats
    # the per-stage int() churn this used to pay.
    return WinnowTrace(
        sentence=record["sentence"],
        counts=dict(record.get("counts", {})),
        survivors=[sem_from_dict(form) for form in record.get("survivors", [])],
        base_forms=[sem_from_dict(form) for form in record.get("base_forms", [])],
    )


# -- corpus records ------------------------------------------------------------

def spec_to_dict(spec: SpecSentence) -> dict:
    record: dict = {"text": spec.text, "protocol": spec.protocol,
                    "message": spec.message, "kind": spec.kind}
    if spec.field:
        record["field"] = spec.field
    if spec.field_group:
        record["field_group"] = spec.field_group
    return record


def spec_from_dict(record: dict) -> SpecSentence:
    return SpecSentence(
        text=record["text"], protocol=record.get("protocol", ""),
        message=record.get("message", ""), field=record.get("field", ""),
        kind=record.get("kind", "intro"),
        field_group=record.get("field_group", ""),
    )


def rewrite_to_dict(rewrite: Rewrite) -> dict:
    record: dict = {"original": rewrite.original, "revised": rewrite.revised,
                    "category": rewrite.category}
    if rewrite.note:
        record["note"] = rewrite.note
    return record


def rewrite_from_dict(record: dict) -> Rewrite:
    return Rewrite(original=record["original"],
                   revised=record.get("revised", ""),
                   category=record["category"], note=record.get("note", ""))


# -- sentence results and runs -------------------------------------------------

def result_to_dict(result: SentenceResult, sem_encode=sem_to_dict) -> dict:
    record: dict = {
        "spec": spec_to_dict(result.spec),
        "status": str(result.status),
    }
    if result.trace is not None:
        record["trace"] = trace_to_dict(result.trace, sem_encode)
    if result.logical_form is not None:
        record["logical_form"] = sem_encode(result.logical_form)
    if result.codes:
        record["codes"] = [sentence_code_to_dict(code) for code in result.codes]
    if result.rewrite is not None:
        record["rewrite"] = rewrite_to_dict(result.rewrite)
    if result.sub_results:
        record["sub_results"] = [result_to_dict(sub, sem_encode)
                                 for sub in result.sub_results]
    if result.subject_supplied:
        record["subject_supplied"] = True
    if result.pruned:
        record["pruned"] = True
    if result.reason:
        record["reason"] = result.reason
    return record


def result_from_dict(record: dict) -> SentenceResult:
    trace = record.get("trace")
    logical_form = record.get("logical_form")
    rewrite = record.get("rewrite")
    return SentenceResult(
        spec=spec_from_dict(record["spec"]),
        status=SentenceStatus.coerce(record["status"]),
        trace=trace_from_dict(trace) if trace is not None else None,
        logical_form=(sem_from_dict(logical_form)
                      if logical_form is not None else None),
        codes=[sentence_code_from_dict(code)
               for code in record.get("codes", [])],
        rewrite=rewrite_from_dict(rewrite) if rewrite is not None else None,
        sub_results=[result_from_dict(sub)
                     for sub in record.get("sub_results", [])],
        subject_supplied=record.get("subject_supplied", False),
        pruned=record.get("pruned", False),
        reason=record.get("reason", ""),
    )


def _registry(registry):
    if registry is None:
        from ..rfc.registry import default_registry

        return default_registry()
    return registry


def run_to_dict(run: SageRun, registry=None, sem_encode=sem_to_dict) -> dict:
    """A full run.  The corpus serializes by registry reference — the
    protocol name — so the payload stays compact and deserialization
    rehydrates the same memoized corpus object."""
    registry = _registry(registry)
    try:
        registry.spec(run.corpus.protocol)
    except KeyError:
        raise ContractError(
            f"corpus {run.corpus.protocol!r} is not registered: SageRun "
            "serialization references corpora by registered protocol name"
        ) from None
    return {
        "protocol": run.corpus.protocol,
        "results": [result_to_dict(result, sem_encode)
                    for result in run.results],
        "code_unit": program_to_dict(run.code_unit),
    }


def run_from_dict(record: dict, registry=None) -> SageRun:
    registry = _registry(registry)
    name = record["protocol"]
    try:
        corpus = registry.load_corpus(name)
    except KeyError:
        raise ProtocolNotFound(name, registry.protocols()) from None
    try:
        code_unit = program_from_dict(record["code_unit"])
    except FingerprintMismatch:
        raise
    except IRError as exc:
        raise ContractError(f"bad code_unit payload: {exc}") from exc
    return SageRun(
        corpus=corpus,
        results=[result_from_dict(result)
                 for result in record.get("results", [])],
        code_unit=code_unit,
    )


# -- request / response dataclasses --------------------------------------------

_MODES = ("strict", "revised")


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        from .errors import RequestError

        raise RequestError(f"unknown mode {mode!r}: expected one of "
                           f"{', '.join(_MODES)}")
    return mode


@dataclass(frozen=True)
class ProcessRequest:
    """Run one protocol through the pipeline."""

    protocol: str
    mode: str = "revised"
    #: Include the per-sentence reports in the response.
    include_sentences: bool = True
    #: Text backends to render into response artifacts (e.g. ("c",)).
    artifacts: tuple[str, ...] = ()
    #: Parser backend override ("" = the protocol's registered preference,
    #: falling back to the process default).
    parser_backend: str = ""

    def to_dict(self) -> dict:
        record: dict = {"protocol": self.protocol, "mode": self.mode}
        if not self.include_sentences:
            record["include_sentences"] = False
        if self.artifacts:
            record["artifacts"] = list(self.artifacts)
        if self.parser_backend:
            record["parser_backend"] = self.parser_backend
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "ProcessRequest":
        if "protocol" not in record:
            from .errors import RequestError

            raise RequestError("process request needs a protocol")
        return cls(
            protocol=record["protocol"],
            mode=_check_mode(record.get("mode", "revised")),
            include_sentences=record.get("include_sentences", True),
            artifacts=tuple(record.get("artifacts", ())),
            parser_backend=record.get("parser_backend", ""),
        )


@dataclass(frozen=True)
class SweepRequest:
    """Run many protocols (default: every registered one) in one batch."""

    protocols: tuple[str, ...] = ()  # () = all registered
    mode: str = "revised"
    #: Accepted and ignored: sweeps run in process.  Kept so ``schema:1``
    #: request round-trips stay stable.
    parallel: bool = True
    include_sentences: bool = False
    artifacts: tuple[str, ...] = ()
    #: Parser backend override ("" = per-protocol registered preference).
    parser_backend: str = ""

    def to_dict(self) -> dict:
        record: dict = {"mode": self.mode}
        if self.protocols:
            record["protocols"] = list(self.protocols)
        if not self.parallel:
            record["parallel"] = False
        if self.include_sentences:
            record["include_sentences"] = True
        if self.artifacts:
            record["artifacts"] = list(self.artifacts)
        if self.parser_backend:
            record["parser_backend"] = self.parser_backend
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "SweepRequest":
        return cls(
            protocols=tuple(record.get("protocols", ())),
            mode=_check_mode(record.get("mode", "revised")),
            parallel=record.get("parallel", True),
            include_sentences=record.get("include_sentences", False),
            artifacts=tuple(record.get("artifacts", ())),
            parser_backend=record.get("parser_backend", ""),
        )


@dataclass
class SentenceReport:
    """One sentence, as the operator sees it in a disambiguation session:
    status, winnow provenance (the LF count after every check), and the
    surviving readings by stable signature."""

    index: int
    text: str
    protocol: str
    message: str
    field: str
    kind: str
    status: str
    reason: str = ""
    subject_supplied: bool = False
    #: True when the parser's cell budget truncated the sentence's chart:
    #: the winnow provenance below may be incomplete.
    pruned: bool = False
    base_lf_count: int = 0
    final_lf_count: int = 0
    #: LF count after each winnow stage, in check order (Figure 5's x-axis).
    check_counts: dict = dataclass_field(default_factory=dict)
    #: Surviving readings: ``{"signature": ...}`` in stable sort order.
    survivors: list = dataclass_field(default_factory=list)
    rewrite: dict | None = None
    sub_statuses: list = dataclass_field(default_factory=list)

    @property
    def key(self) -> str:
        """Whitespace-insensitive sentence identity (resolve addressing)."""
        return sentence_key(self.text)

    @property
    def flagged(self) -> bool:
        return SentenceStatus.coerce(self.status) in FLAGGED_STATUSES

    @classmethod
    def from_result(cls, result: SentenceResult, index: int) -> "SentenceReport":
        trace = result.trace
        return cls(
            index=index,
            text=result.spec.text,
            protocol=result.spec.protocol,
            message=result.spec.message,
            field=result.spec.field,
            kind=result.spec.kind,
            status=str(result.status),
            reason=result.reason,
            subject_supplied=result.subject_supplied,
            pruned=result.pruned,
            base_lf_count=result.base_lf_count,
            final_lf_count=result.final_lf_count,
            check_counts=dict(trace.counts) if trace is not None else {},
            survivors=[{"signature": signature(form)}
                       for form in (trace.survivors if trace else [])],
            rewrite=(rewrite_to_dict(result.rewrite)
                     if result.rewrite is not None else None),
            sub_statuses=[str(sub.status) for sub in result.sub_results],
        )

    def to_dict(self) -> dict:
        record: dict = {
            "index": self.index, "text": self.text,
            "protocol": self.protocol, "message": self.message,
            "field": self.field, "kind": self.kind, "status": self.status,
        }
        if self.reason:
            record["reason"] = self.reason
        if self.subject_supplied:
            record["subject_supplied"] = True
        if self.pruned:
            record["pruned"] = True
        record["base_lf_count"] = self.base_lf_count
        record["final_lf_count"] = self.final_lf_count
        if self.check_counts:
            record["check_counts"] = dict(self.check_counts)
        if self.survivors:
            record["survivors"] = list(self.survivors)
        if self.rewrite is not None:
            record["rewrite"] = self.rewrite
        if self.sub_statuses:
            record["sub_statuses"] = list(self.sub_statuses)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "SentenceReport":
        return cls(
            index=record["index"], text=record["text"],
            protocol=record.get("protocol", ""),
            message=record.get("message", ""),
            field=record.get("field", ""), kind=record.get("kind", ""),
            status=record["status"], reason=record.get("reason", ""),
            subject_supplied=record.get("subject_supplied", False),
            pruned=record.get("pruned", False),
            base_lf_count=record.get("base_lf_count", 0),
            final_lf_count=record.get("final_lf_count", 0),
            check_counts=dict(record.get("check_counts", {})),
            survivors=list(record.get("survivors", [])),
            rewrite=record.get("rewrite"),
            sub_statuses=list(record.get("sub_statuses", [])),
        )


@dataclass
class GeneratedArtifact:
    """A compiled-artifact record: the rendered source of one backend plus
    the self-contained IR and its content SHA-1.

    The IR makes the artifact executable anywhere (rebuild the program,
    compile under any executable backend); the fingerprint makes it
    tamper-evident (rebuilding verifies the recorded SHA-1 against the
    reconstructed IR).
    """

    protocol: str
    backend: str
    mode: str
    fingerprint: str
    functions: list = dataclass_field(default_factory=list)
    source: str = ""  # the named backend's text rendering ("" if non-text)
    program: dict = dataclass_field(default_factory=dict)  # serialized IR

    @classmethod
    def from_program(cls, program: Program, backend: str = "c",
                     mode: str = "revised") -> "GeneratedArtifact":
        from ..codegen.ir import _backend as resolve_backend

        try:
            backend_class = resolve_backend(backend)
        except KeyError:
            from .errors import BackendNotFound

            raise BackendNotFound(backend, backend_names()) from None
        source = ""
        if backend_class.emits_text:
            if backend == "c":
                source = program.render_c()
            elif backend == "python":
                source = program.render_python()
            else:
                source = backend_class().emit_program(program)
        return cls(
            protocol=program.protocol, backend=backend, mode=mode,
            fingerprint=program.fingerprint(),
            functions=[fn.name for fn in program.programs],
            source=source, program=program_to_dict(program),
        )

    def to_program(self, verify: bool = True) -> Program:
        """Rebuild the typed IR (fingerprint-verified by default)."""
        if not self.program:
            raise ContractError("artifact carries no IR payload")
        rebuilt = program_from_dict(self.program, verify=verify)
        if verify and self.fingerprint and rebuilt.fingerprint() != self.fingerprint:
            raise FingerprintMismatch(
                f"artifact {self.protocol}/{self.backend}",
                self.fingerprint, rebuilt.fingerprint(),
            )
        return rebuilt

    def to_dict(self) -> dict:
        record: dict = {
            "protocol": self.protocol, "backend": self.backend,
            "mode": self.mode, "fingerprint": self.fingerprint,
            "functions": list(self.functions),
        }
        if self.source:
            record["source"] = self.source
        if self.program:
            record["program"] = self.program
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "GeneratedArtifact":
        return cls(
            protocol=record["protocol"], backend=record["backend"],
            mode=record.get("mode", "revised"),
            fingerprint=record.get("fingerprint", ""),
            functions=list(record.get("functions", [])),
            source=record.get("source", ""),
            program=record.get("program", {}),
        )


@dataclass
class ProcessResponse:
    """Everything one pipeline run produced, as a wire payload."""

    protocol: str
    mode: str
    sentence_count: int
    status_counts: dict = dataclass_field(default_factory=dict)
    flagged_count: int = 0
    sentences: list = dataclass_field(default_factory=list)  # SentenceReport
    artifacts: list = dataclass_field(default_factory=list)  # GeneratedArtifact

    @classmethod
    def from_run(cls, run: SageRun, mode: str,
                 include_sentences: bool = True,
                 artifacts: tuple[str, ...] = ()) -> "ProcessResponse":
        reports = [SentenceReport.from_result(result, index)
                   for index, result in enumerate(run.results)]
        return cls(
            protocol=run.corpus.protocol,
            mode=mode,
            sentence_count=len(run.results),
            status_counts={str(status): count
                           for status, count in run.by_status().items()},
            flagged_count=len(run.flagged()),
            sentences=reports if include_sentences else [],
            artifacts=[GeneratedArtifact.from_program(run.code_unit, backend,
                                                      mode=mode)
                       for backend in artifacts],
        )

    def flagged(self) -> list[SentenceReport]:
        return [report for report in self.sentences if report.flagged]

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol, "mode": self.mode,
            "sentence_count": self.sentence_count,
            "status_counts": dict(self.status_counts),
            "flagged_count": self.flagged_count,
            "sentences": [report.to_dict() for report in self.sentences],
            "artifacts": [artifact.to_dict() for artifact in self.artifacts],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ProcessResponse":
        return cls(
            protocol=record["protocol"], mode=record["mode"],
            sentence_count=record.get("sentence_count", 0),
            status_counts=dict(record.get("status_counts", {})),
            flagged_count=record.get("flagged_count", 0),
            sentences=[SentenceReport.from_dict(report)
                       for report in record.get("sentences", [])],
            artifacts=[GeneratedArtifact.from_dict(artifact)
                       for artifact in record.get("artifacts", [])],
        )


@dataclass
class SweepResponse:
    """One batch run over many protocols."""

    mode: str
    protocols: list = dataclass_field(default_factory=list)
    responses: dict = dataclass_field(default_factory=dict)  # name → ProcessResponse
    #: Always 0: sweeps run in process.  Kept on the wire so sweep bodies
    #: stay byte-identical for clients that read it.
    parallel_workers: int = 0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "protocols": list(self.protocols),
            "parallel_workers": self.parallel_workers,
            "responses": {name: response.to_dict()
                          for name, response in self.responses.items()},
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SweepResponse":
        return cls(
            mode=record["mode"], protocols=list(record.get("protocols", [])),
            parallel_workers=record.get("parallel_workers", 0),
            responses={name: ProcessResponse.from_dict(response)
                       for name, response in record.get("responses", {}).items()},
        )


# -- the envelope --------------------------------------------------------------

#: kind tag → (type, encode, decode).  Decode callables take (data, registry).
_CONTRACTS: dict[str, tuple] = {}


def _register(kind: str, type_, encode, decode) -> None:
    _CONTRACTS[kind] = (type_, encode, decode)


_register("sage_run", SageRun,
          lambda run, registry: run_to_dict(run, registry),
          lambda data, registry: run_from_dict(data, registry))
_register("sentence_result", SentenceResult,
          lambda result, registry: result_to_dict(result),
          lambda data, registry: result_from_dict(data))
_register("winnow_trace", WinnowTrace,
          lambda trace, registry: trace_to_dict(trace),
          lambda data, registry: trace_from_dict(data))
_register("code_unit", Program,
          lambda program, registry: program_to_dict(program),
          lambda data, registry: program_from_dict(data))
_register("resolution", Resolution,
          lambda resolution, registry: resolution.to_dict(),
          lambda data, registry: Resolution.from_dict(data))
_register("spec_sentence", SpecSentence,
          lambda spec, registry: spec_to_dict(spec),
          lambda data, registry: spec_from_dict(data))
_register("rewrite", Rewrite,
          lambda rewrite, registry: rewrite_to_dict(rewrite),
          lambda data, registry: rewrite_from_dict(data))
_register("process_request", ProcessRequest,
          lambda request, registry: request.to_dict(),
          lambda data, registry: ProcessRequest.from_dict(data))
_register("sweep_request", SweepRequest,
          lambda request, registry: request.to_dict(),
          lambda data, registry: SweepRequest.from_dict(data))
_register("process_response", ProcessResponse,
          lambda response, registry: response.to_dict(),
          lambda data, registry: ProcessResponse.from_dict(data))
_register("sweep_response", SweepResponse,
          lambda response, registry: response.to_dict(),
          lambda data, registry: SweepResponse.from_dict(data))
_register("sentence_report", SentenceReport,
          lambda report, registry: report.to_dict(),
          lambda data, registry: SentenceReport.from_dict(data))
_register("generated_artifact", GeneratedArtifact,
          lambda artifact, registry: artifact.to_dict(),
          lambda data, registry: GeneratedArtifact.from_dict(data))


def kind_of(obj) -> str:
    """The envelope kind tag for a contract object."""
    for kind, (type_, _encode, _decode) in _CONTRACTS.items():
        if type(obj) is type_:
            return kind
    # Subclass fallback (e.g. a Program alias like CodeUnit).
    for kind, (type_, _encode, _decode) in _CONTRACTS.items():
        if isinstance(obj, type_):
            return kind
    raise ContractError(
        f"no wire contract for {type(obj).__name__}; serializable kinds are "
        f"{', '.join(sorted(_CONTRACTS))}"
    )


def to_envelope(obj, registry=None) -> dict:
    kind = kind_of(obj)
    _type, encode, _decode = _CONTRACTS[kind]
    return {"schema": SCHEMA_VERSION, "kind": kind,
            "data": encode(obj, registry)}


def _sem_raw(term: Sem) -> Sem:
    """Identity sem encoder: leave terms raw for the JSON default hook."""
    return term


def _sem_json_default(obj):
    """``json.dumps`` default hook: one Sem node as its wire dict, children
    left raw for the serializer itself to recurse into.

    Encoding this way — instead of pre-building the whole nested dict tree
    with :func:`sem_to_dict` and having ``dumps`` re-walk it — visits every
    term node once, which roughly halves serialization time on LF-heavy
    payloads (a bulk run carries tens of thousands of term nodes).  Key
    order matches :func:`sem_to_dict` exactly, so the output bytes are
    identical to the eager path's.
    """
    if isinstance(obj, Const):
        if obj.span is not None:
            return {"t": "const", "value": obj.value, "span": list(obj.span)}
        return {"t": "const", "value": obj.value}
    if isinstance(obj, Call):
        record = {"t": "call", "pred": obj.pred, "args": list(obj.args)}
        if obj.trigger is not None:
            record["trigger"] = obj.trigger
        if obj.flags:
            record["flags"] = sorted(obj.flags)
        return record
    if isinstance(obj, Var):
        return {"t": "var", "name": obj.name}
    if isinstance(obj, Lam):
        return {"t": "lam", "param": obj.param, "body": obj.body}
    if isinstance(obj, App):
        return {"t": "app", "fn": obj.fn, "arg": obj.arg}
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable"
    )


#: Kinds that embed logical forms get a lazy encoder for :func:`to_json`:
#: Sems stay raw in the envelope and serialize through the default hook.
_LAZY_ENCODERS = {
    "sage_run": lambda run, registry: run_to_dict(run, registry,
                                                  sem_encode=_sem_raw),
    "sentence_result": lambda result, registry: result_to_dict(
        result, sem_encode=_sem_raw),
    "winnow_trace": lambda trace, registry: trace_to_dict(
        trace, sem_encode=_sem_raw),
}


def to_json(obj, registry=None, indent: int | None = None) -> str:
    """Serialize any contract object under the schema-versioned envelope.

    LF-bearing kinds serialize in a single ``json.dumps`` pass with a
    default hook instead of pre-building per-node dicts (see
    :func:`_sem_json_default`); output bytes are identical either way.
    """
    kind = kind_of(obj)
    _type, encode, _decode = _CONTRACTS[kind]
    lazy = _LAZY_ENCODERS.get(kind)
    data = lazy(obj, registry) if lazy is not None else encode(obj, registry)
    envelope = {"schema": SCHEMA_VERSION, "kind": kind, "data": data}
    return json.dumps(envelope, indent=indent, default=_sem_json_default)


def from_envelope(payload: dict, registry=None):
    if not isinstance(payload, dict):
        raise ContractError(
            f"expected an envelope object, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaVersionError(schema, SCHEMA_VERSION)
    kind = payload.get("kind")
    if kind not in _CONTRACTS:
        raise ContractError(
            f"unknown payload kind {kind!r}; readable kinds are "
            f"{', '.join(sorted(_CONTRACTS))}"
        )
    _type, _encode, decode = _CONTRACTS[kind]
    data = payload.get("data")
    if not isinstance(data, dict):
        raise ContractError(f"envelope {kind!r} carries no data object")
    try:
        return decode(data, registry)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ResolutionError):
            raise ContractError(str(exc)) from exc
        raise ContractError(f"malformed {kind} payload: {exc!r}") from exc


def from_json(text: str, registry=None):
    """Deserialize any contract payload produced by :func:`to_json`.

    Logical forms decode inside the JSON parse itself (see
    :func:`_sem_parse_hook`); the envelope decoders accept the resulting
    pre-built Sem objects and plain dicts alike."""
    try:
        payload = json.loads(text, object_hook=_sem_parse_hook)
    except json.JSONDecodeError as exc:
        raise ContractError(f"payload is not JSON: {exc}") from exc
    return from_envelope(payload, registry)


def journal_to_json(journal: DecisionJournal) -> str:
    """Convenience passthrough (the journal carries its own schema)."""
    return journal.to_json()
