"""The serializable wire contracts of the service layer.

Every pipeline result — :class:`~repro.core.results.SageRun`,
:class:`~repro.disambiguation.winnow.WinnowTrace`, the codegen
:class:`~repro.codegen.ir.Program` (kind ``code_unit``), per-sentence
results, operator :class:`~repro.disambiguation.resolution.Resolution`
records — and every request/response dataclass here round-trips through
JSON under one schema-versioned envelope::

    {"schema": 1, "kind": "sage_run", "data": {...}}

:func:`to_json` / :func:`from_json` are the two entry points; both are
total over the contract types and raise structured
:class:`~repro.api.errors.ContractError`/:class:`~repro.api.errors.
SchemaVersionError` instead of tracebacks on bad payloads.  Round-tripping
is lossless (``from_json(to_json(x)) == x``, property-locked in
``tests/test_api_contracts.py``); corpora inside a ``SageRun`` serialize by
registry reference (the protocol name), so deserialization rehydrates the
same memoized :class:`~repro.rfc.corpus.Corpus` object.

Each kind's wire shape is one field table below (:mod:`repro.api.schema`);
the same table drives the JSON dict form here and the ``schema:1b`` binary
form in :mod:`repro.api.binenc`, and :data:`KINDS`, the envelope registry,
is derived from the tables.

Codegen artifacts additionally carry the IR content SHA-1; rebuilding them
verifies the fingerprint, so a stored artifact is tamper-evident
(:class:`~repro.codegen.ir.FingerprintMismatch`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from functools import partial

from ..ccg.semantics import signature
from ..codegen import ops as ir_ops
from ..codegen.ir import (
    CONDITION_KINDS,
    VALUE_KINDS,
    FingerprintMismatch,
    Function,
    IRError,
    Program,
    SentenceCode,
    backend_names,
    get_backend,
)
from ..core.results import (
    FLAGGED_STATUSES,
    SageRun,
    SentenceResult,
    SentenceStatus,
)
from ..disambiguation.winnow import WinnowTrace
from ..rfc.corpus import Rewrite, SpecSentence, sentence_key
from .errors import (
    ApiError,
    ContractError,
    ProtocolNotFound,
    RequestError,
    SchemaVersionError,
)
from .schema import (
    BOOL,
    SEM,
    SELF,
    STR,
    UINT,
    Field,
    JsonValue,
    ListOf,
    MapOf,
    Record,
    Scalar,
    Tagged,
    sem_decoder,
    sem_from_dict,  # re-exported: the eager Sem codec
    sem_node_record,
    sem_to_dict,  # re-exported: the eager Sem codec
)

#: The wire schema this build writes and reads.
SCHEMA_VERSION = 1

_MODES = ("strict", "revised")
MODE = Scalar(str, _MODES)


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise RequestError(f"unknown mode {mode!r}: expected one of "
                           f"{', '.join(_MODES)}")
    return mode


class _Contract:
    """``to_dict``/``from_dict`` for the request/response dataclasses, read
    off their field tables (:data:`KINDS`)."""

    def to_dict(self) -> dict:
        return codec_of(self).enc(self, None)

    @classmethod
    def from_dict(cls, record: dict):
        return _BY_TYPE[cls].dec(record, None)


# -- request / response dataclasses --------------------------------------------

@dataclass(frozen=True)
class ProcessRequest(_Contract):
    """Run one protocol through the pipeline."""

    protocol: str
    mode: str = "revised"
    #: Include the per-sentence reports in the response.
    include_sentences: bool = True
    #: Text backends to render into response artifacts (e.g. ("c",)).
    artifacts: tuple[str, ...] = ()
    #: Parser backend name ("" = the default, ``indexed``).
    parser_backend: str = ""


@dataclass(frozen=True)
class SweepRequest(_Contract):
    """Run many protocols (default: every registered one) in one batch."""

    protocols: tuple[str, ...] = ()  # () = all registered
    mode: str = "revised"
    #: Accepted and ignored: sweeps run in process.  Kept so ``schema:1``
    #: request round-trips stay stable.
    parallel: bool = True
    include_sentences: bool = False
    artifacts: tuple[str, ...] = ()
    #: Parser backend name ("" = the default, ``indexed``).
    parser_backend: str = ""


@dataclass
class SentenceReport(_Contract):
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
            rewrite=(REWRITE.enc(result.rewrite, None)
                     if result.rewrite is not None else None),
            sub_statuses=[str(sub.status) for sub in result.sub_results],
        )


@dataclass
class GeneratedArtifact(_Contract):
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
        try:
            backend_class = get_backend(backend)
        except KeyError:
            from .errors import BackendNotFound

            raise BackendNotFound(backend, backend_names()) from None
        source = (backend_class().emit_program(program)
                  if backend_class.emits_text else "")
        return cls(
            protocol=program.protocol, backend=backend, mode=mode,
            fingerprint=program.fingerprint(),
            functions=[fn.name for fn in program.programs],
            source=source, program=CODE_UNIT.enc(program, None),
        )

    def to_program(self) -> Program:
        """Rebuild the typed IR, fingerprint-verified."""
        if not self.program:
            raise ContractError("artifact carries no IR payload")
        rebuilt = decoding("code_unit",
                           lambda: CODE_UNIT.dec(self.program, None))
        return _verified(self.fingerprint, rebuilt,
                         f"artifact {self.protocol}/{self.backend}")


@dataclass
class ProcessResponse(_Contract):
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
        reports = ([SentenceReport.from_result(result, index)
                    for index, result in enumerate(run.results)]
                   if include_sentences else [])
        return cls(
            protocol=run.corpus.protocol,
            mode=mode,
            sentence_count=len(run.results),
            status_counts={str(status): count
                           for status, count in run.by_status().items()},
            flagged_count=len(run.flagged()),
            sentences=reports,
            artifacts=[GeneratedArtifact.from_program(run.code_unit, backend,
                                                      mode=mode)
                       for backend in artifacts],
        )

    def flagged(self) -> list[SentenceReport]:
        return [report for report in self.sentences if report.flagged]


@dataclass
class SweepResponse(_Contract):
    """One batch run over many protocols."""

    mode: str
    protocols: list = dataclass_field(default_factory=list)
    responses: dict = dataclass_field(default_factory=dict)  # name → ProcessResponse
    #: Always 0: sweeps run in process.  Kept on the wire so sweep bodies
    #: stay byte-identical for clients that read it.
    parallel_workers: int = 0


# -- codecs over pipeline types ------------------------------------------------

def _registry(registry):
    if registry is None:
        from ..rfc.registry import default_registry

        return default_registry()
    return registry


class _CorpusRef(JsonValue):
    """A corpus by registry reference — the protocol name — so payloads
    stay compact and decoding rehydrates the same memoized corpus."""

    def __init__(self) -> None:
        super().__init__(str, to_json=str)

    def enc(self, corpus, reg):
        try:
            _registry(reg).spec(corpus.protocol)
        except KeyError:
            raise ContractError(
                f"corpus {corpus.protocol!r} is not registered: SageRun "
                "serialization references corpora by registered protocol name"
            ) from None
        return corpus.protocol

    def dec(self, raw, reg):
        registry = _registry(reg)
        name = super().dec(raw, reg)
        try:
            return registry.load_corpus(name)
        except KeyError:
            raise ProtocolNotFound(name, registry.protocols()) from None


#: A sentence status: its string on the wire, the enum member (or the raw
#: string of an ad-hoc status) in memory.
STATUS = JsonValue(str, str, SentenceStatus.coerce)


def _verified(fingerprint: str, built, what: str):
    """``built``, after checking its content SHA-1 against the recorded
    one: a stored artifact is tamper-evident end to end."""
    if fingerprint and fingerprint != built.fingerprint():
        raise FingerprintMismatch(what, fingerprint, built.fingerprint())
    return built


def _function(fingerprint: str, **fields) -> Function:
    function = Function(**fields)
    return _verified(fingerprint, function, f"function {function.name}")


def _program(fingerprint: str, programs: list, **fields) -> Program:
    program = Program(**fields)
    for function in programs:
        program.add(function)  # collision-guarded, as at assembly
    return _verified(fingerprint, program, f"program {program.protocol}")


# -- the field tables ----------------------------------------------------------
# JSON key order is table order; ``binary`` gives schema:1b's order where it
# differs, and tagged tables are written field by field in schema:1b (the
# rest go through the generic value codec as their JSON dict).

SPEC = Record("spec_sentence", SpecSentence, [
    Field("text", STR),
    Field("protocol", STR, ""),
    Field("message", STR, ""),
    Field("kind", STR, "intro"),
    Field("field", STR, "", omit=True),
    Field("field_group", STR, "", omit=True),
], tag=35, binary=("text", "protocol", "message", "field", "kind",
                   "field_group"))

REWRITE = Record("rewrite", Rewrite, [
    Field("original", STR),
    Field("revised", STR, ""),
    Field("category", STR),
    Field("note", STR, "", omit=True),
], tag=36)

# Survivors are (by construction) members of the base-form list, so
# writing base forms first makes the survivors a run of back-references.
TRACE = Record("winnow_trace", WinnowTrace, [
    Field("sentence", STR),
    Field("counts", MapOf(UINT), {}),
    Field("survivors", ListOf(SEM), []),
    Field("base_forms", ListOf(SEM), []),
], tag=34, binary=("sentence", "counts", "base_forms", "survivors"))

# The codegen IR.  A value or condition is an object with only its
# non-default fields; an op is its table's fields under an "op" key naming
# its type.

VALUE = Record("value", ir_ops.Value, [
    Field("kind", Scalar(str, tuple(sorted(VALUE_KINDS)))),
    Field("const", UINT, 0, omit=True),
    Field("name", STR, "", omit=True),
    Field("protocol", STR, "", omit=True),
])

CONDITION = Record("condition", ir_ops.Condition, [
    Field("kind", Scalar(str, tuple(sorted(CONDITION_KINDS)))),
    Field("protocol", STR, "", omit=True),
    Field("name", STR, "", omit=True),
    Field("value", UINT, 0, omit=True),
    Field("other", STR, "", omit=True),
    Field("modes", ListOf(STR, tuple), (), omit=True),
    Field("negated", BOOL, False, omit=True),
])


def _op(cls, *fields: Field) -> Record:
    """An op type's table: its own fields, then the advice tag of every op."""
    return Record(cls.__name__, cls,
                  [*fields, Field("advice_before", STR, None, omit=True)])


def _strs(*keys: str) -> list[Field]:
    return [Field(key, STR) for key in keys]


_OP_LIST = ListOf(None)  # ops: the item, the OP union, is set below

OP = Tagged("op", [
    _op(ir_ops.SetField, *_strs("protocol", "name"), Field("value", VALUE),
        Field("optional", BOOL, False, omit=True)),
    _op(ir_ops.SwapFields, *_strs("protocol_a", "field_a", "protocol_b",
                                  "field_b")),
    _op(ir_ops.CopyData),
    _op(ir_ops.QuoteDatagram),
    _op(ir_ops.ComputeChecksum, *_strs("protocol", "name", "function"),
        Field("range_start", STR, "type", omit=True),
        Field("range_end", STR, "end", omit=True)),
    _op(ir_ops.PadData),
    _op(ir_ops.Conditional, Field("condition", CONDITION),
        Field("body", _OP_LIST, [])),
    _op(ir_ops.SetStateVar, *_strs("name"), Field("value", VALUE)),
    _op(ir_ops.CallProcedure, *_strs("name")),
    _op(ir_ops.Send, *_strs("message"),
        Field("destination", STR, "", omit=True)),
    _op(ir_ops.Encapsulate, Field("outer", STR, "udp", omit=True)),
    _op(ir_ops.SelectSession, Field("discriminator_field", STR,
                                    "your_discriminator", omit=True)),
    _op(ir_ops.Discard, Field("reason", STR, "", omit=True)),
    _op(ir_ops.CeaseTransmission, Field("what", STR,
                                        "periodic_transmission", omit=True)),
    _op(ir_ops.Comment, *_strs("text")),
], unknown="unknown serialized op")
_OP_LIST.item = OP

#: An op list (a SentenceCode's or Function's): a JSON array of ops,
#: written in schema:1b as that array under the generic value codec.
OPS = JsonValue(list, partial(_OP_LIST.enc, reg=None),
                partial(_OP_LIST.dec, reg=None))

SENTENCE_CODE = Record("sentence_code", SentenceCode, [
    Field("sentence", STR),
    Field("ops", OPS, [], omit=True),
    Field("goal_message", STR, "", omit=True),
    Field("role", STR, "", omit=True),
    Field("status", STR, "ok", omit=True),
    Field("reason", STR, "", omit=True),
], tag=37, binary=("sentence", "status", "goal_message", "role", "reason",
                   "ops"))

RESULT = Record("sentence_result", SentenceResult, [
    Field("spec", SPEC),
    Field("status", STATUS),
    Field("trace", TRACE, None, omit=True),
    Field("logical_form", SEM, None, omit=True),
    Field("codes", ListOf(SENTENCE_CODE), [], omit=True),
    Field("rewrite", REWRITE, None, omit=True),
    Field("sub_results", ListOf(SELF), [], omit=True),
    Field("subject_supplied", BOOL, False, omit=True),
    Field("pruned", BOOL, False, omit=True),
    Field("reason", STR, "", omit=True),
], tag=33, binary=("spec", "status", "reason", "trace", "logical_form",
                   "rewrite", "codes", "sub_results"),
   aux=("trace", "logical_form", "rewrite", "subject_supplied", "pruned"))

FUNCTION = Record("function", Function, [
    Field("protocol", STR),
    Field("message_name", STR),
    Field("role", STR),
    Field("ops", OPS, []),
    Field("fingerprint", STR, "", attr=Function.fingerprint),
    Field("name_override", STR, "", omit=True),
], make=_function)

CODE_UNIT = Record("code_unit", Program, [
    Field("protocol", STR),
    Field("struct_c", STR, ""),
    Field("functions", ListOf(FUNCTION), [], attr="programs"),
    Field("fingerprint", STR, "", attr=Program.fingerprint),
], make=_program)

SAGE_RUN = Record("sage_run", SageRun, [
    Field("protocol", _CorpusRef(), attr="corpus"),
    Field("results", ListOf(RESULT), []),
    Field("code_unit", CODE_UNIT),
], tag=32)

PROCESS_REQUEST = Record("process_request", ProcessRequest, [
    Field("protocol", STR),
    Field("mode", MODE, "revised"),
    Field("include_sentences", BOOL, True, omit=True),
    Field("artifacts", ListOf(STR, tuple), (), omit=True),
    Field("parser_backend", STR, "", omit=True),
], error=RequestError)

SWEEP_REQUEST = Record("sweep_request", SweepRequest, [
    Field("mode", MODE, "revised"),
    Field("protocols", ListOf(STR, tuple), (), omit=True),
    Field("parallel", BOOL, True, omit=True),
    Field("include_sentences", BOOL, False, omit=True),
    Field("artifacts", ListOf(STR, tuple), (), omit=True),
    Field("parser_backend", STR, "", omit=True),
], error=RequestError)

SENTENCE_REPORT = Record("sentence_report", SentenceReport, [
    Field("index", UINT),
    Field("text", STR),
    *(Field(name, STR, "") for name in ("protocol", "message", "field", "kind")),
    Field("status", STR),
    Field("reason", STR, "", omit=True),
    Field("subject_supplied", BOOL, False, omit=True),
    Field("pruned", BOOL, False, omit=True),
    Field("base_lf_count", UINT, 0),
    Field("final_lf_count", UINT, 0),
    Field("check_counts", MapOf(UINT), {}, omit=True),
    Field("survivors", ListOf(JsonValue(dict)), [], omit=True),
    Field("rewrite", JsonValue(dict), None, omit=True),
    Field("sub_statuses", ListOf(STR), [], omit=True),
])

GENERATED_ARTIFACT = Record("generated_artifact", GeneratedArtifact, [
    Field("protocol", STR),
    Field("backend", STR),
    Field("mode", STR, "revised"),
    Field("fingerprint", STR, ""),
    Field("functions", ListOf(STR), []),
    Field("source", STR, "", omit=True),
    Field("program", JsonValue(dict), {}, omit=True),
])

PROCESS_RESPONSE = Record("process_response", ProcessResponse, [
    Field("protocol", STR),
    Field("mode", STR),
    Field("sentence_count", UINT, 0),
    Field("status_counts", MapOf(UINT), {}),
    Field("flagged_count", UINT, 0),
    Field("sentences", ListOf(SENTENCE_REPORT), []),
    Field("artifacts", ListOf(GENERATED_ARTIFACT), []),
])

SWEEP_RESPONSE = Record("sweep_response", SweepResponse, [
    Field("mode", STR),
    Field("protocols", ListOf(STR), []),
    Field("parallel_workers", UINT, 0),
    Field("responses", MapOf(PROCESS_RESPONSE), {}),
])


# -- the envelope --------------------------------------------------------------

#: kind tag → field table.  The ``resolution`` table lives beside its type
#: in :mod:`repro.disambiguation.resolution` and joins on the first lookup
#: that misses (:func:`_lookup`), so an answer that carries no resolution
#: never loads that module.
KINDS = {codec.kind: codec for codec in (
    SAGE_RUN, RESULT, TRACE, CODE_UNIT, SPEC, REWRITE,
    PROCESS_REQUEST, SWEEP_REQUEST, PROCESS_RESPONSE, SWEEP_RESPONSE,
    SENTENCE_REPORT, GENERATED_ARTIFACT,
)}
_BY_TYPE = {codec.cls: codec for codec in KINDS.values()}


def _lookup(table: dict, key):
    """``table.get(key)``, reading in the ``resolution`` table on a miss."""
    codec = table.get(key)
    if codec is None:
        from ..disambiguation.resolution import RESOLUTION

        KINDS[RESOLUTION.kind] = RESOLUTION
        _BY_TYPE[RESOLUTION.cls] = RESOLUTION
        codec = table.get(key)
    return codec


def codec_of(obj):
    """The envelope codec (and so the kind tag) for a contract object."""
    codec = _lookup(_BY_TYPE, type(obj))
    if codec is not None:
        return codec
    raise ContractError(
        f"no wire contract for {type(obj).__name__}; serializable kinds are "
        f"{', '.join(sorted(KINDS))}"
    )


def codec_named(kind) -> object:
    """The envelope codec for a kind tag read off the wire."""
    codec = _lookup(KINDS, kind)
    if codec is None:
        raise ContractError(
            f"unknown payload kind {kind!r}; readable kinds are "
            f"{', '.join(sorted(KINDS))}"
        )
    return codec


def decoding(what: str, decode, malformed=ContractError):
    """Run ``decode`` and map whatever a malformed payload can raise to a
    structured error: ``malformed`` for a payload of the wrong shape, and
    :class:`ContractError` for invalid IR or an invalid resolution.  A
    :class:`FingerprintMismatch` keeps its type: in-process callers check
    for tampering by it."""
    try:
        return decode()
    except (ApiError, FingerprintMismatch):
        raise
    except IRError as exc:
        raise ContractError(f"bad {what} payload: {exc}") from exc
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        if isinstance(exc, ValueError):
            from ..disambiguation.resolution import ResolutionError

            if isinstance(exc, ResolutionError):
                raise ContractError(str(exc)) from exc
        raise malformed(f"malformed {what} payload: {exc!r}") from exc


def to_json(obj, registry=None, indent: int | None = None) -> str:
    """Serialize any contract object under the schema-versioned envelope.

    Logical forms stay raw in the envelope and serialize in the single
    ``json.dumps`` pass through a default hook instead of pre-built
    per-node dicts (see :func:`~repro.api.schema.sem_node_record`).
    """
    codec = codec_of(obj)
    envelope = {"schema": SCHEMA_VERSION, "kind": codec.kind,
                "data": codec.enc(obj, registry)}
    return json.dumps(envelope, indent=indent, default=sem_node_record)


def from_envelope(payload: dict, registry=None):
    if not isinstance(payload, dict):
        raise ContractError(
            f"expected an envelope object, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaVersionError(schema, SCHEMA_VERSION)
    kind = payload.get("kind")
    codec = codec_named(kind)
    data = payload.get("data")
    if not isinstance(data, dict):
        raise ContractError(f"envelope {kind!r} carries no data object")
    return decoding(kind, lambda: codec.dec(data, registry))


def from_json(text: str, registry=None):
    """Deserialize any contract payload produced by :func:`to_json`.

    Logical forms decode inside the JSON parse itself (see
    :func:`~repro.api.schema.sem_decoder`); the field codecs accept the
    resulting pre-built Sem objects and plain dicts alike."""
    try:
        payload = json.loads(text, object_hook=sem_decoder())
    except json.JSONDecodeError as exc:
        raise ContractError(f"payload is not JSON: {exc}") from exc
    return from_envelope(payload, registry)
