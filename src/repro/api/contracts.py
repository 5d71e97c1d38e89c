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

The IR's own tables (ops, values, conditions, functions, the code unit)
live beside the IR in :mod:`repro.codegen.ir` and load on the first value
that needs them, so this module imports no IR.  Envelopes decode every op
eagerly; a store run entry (:data:`STORED_RUN`) keeps its sentence codes
and code unit in their JSON form until they are first read
(:class:`~repro.core.results.Deferred`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from importlib import import_module
from typing import TYPE_CHECKING

from ..ccg.semantics import signature
from ..codegen.backends import backend_names, get_backend
from ..codegen.errors import FingerprintMismatch, IRError
from ..core.results import (
    FLAGGED_STATUSES,
    Deferred,
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
    sem_decoder,
    sem_from_dict,  # re-exported: the eager Sem codec
    sem_node_record,
    sem_to_dict,  # re-exported: the eager Sem codec
)

if TYPE_CHECKING:
    from ..codegen.ir import Program

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
        from ..codegen.ir import CODE_UNIT

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
        from ..codegen.ir import CODE_UNIT, verified

        if not self.program:
            raise ContractError("artifact carries no IR payload")
        rebuilt = decoding("code_unit",
                           lambda: CODE_UNIT.dec(self.program, None))
        return verified(self.fingerprint, rebuilt,
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
            artifacts=[GeneratedArtifact.from_program(code_unit_of(run),
                                                      backend, mode=mode)
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

# The codegen IR.  Its tables live beside it in repro.codegen.ir; a field of
# IR type reaches them through an _IRTable, so the IR loads with the first
# value of that type coded, not with this module.

class _IRTable:
    """The codec of an IR-typed field: the table called ``name`` in
    :mod:`repro.codegen.ir`, imported when it first codes a value."""

    identity = False

    def __init__(self, name: str) -> None:
        self.name = name
        self._table = None

    def table(self):
        if self._table is None:
            self._table = getattr(import_module("..codegen.ir", __package__),
                                  self.name)
        return self._table

    def enc(self, value, reg):
        return self.table().enc(value, reg)

    def dec(self, raw, reg):
        return self.table().dec(raw, reg)

    def write(self, w, value, reg) -> None:
        self.table().write(w, value, reg)

    def read(self, r, reg):
        return self.table().read(r, reg)


def _sentence_code(**fields):
    from ..codegen.ir import SentenceCode

    return SentenceCode(**fields)


def _sentence_code_table(ops, make) -> Record:
    """The ``sentence_code`` table (tag 37) over an op-list codec; ``make``
    builds the value from the decoded fields."""
    return Record("sentence_code", None, [
        Field("sentence", STR),
        Field("ops", ops, [], omit=True),
        Field("goal_message", STR, "", omit=True),
        Field("role", STR, "", omit=True),
        Field("status", STR, "ok", omit=True),
        Field("reason", STR, "", omit=True),
    ], tag=37, binary=("sentence", "status", "goal_message", "role",
                       "reason", "ops"), make=make)


def _run_tables(codes, code_unit) -> tuple[Record, Record]:
    """The ``sentence_result`` and ``sage_run`` tables over the codecs of
    their two IR-typed fields."""
    result = Record("sentence_result", SentenceResult, [
        Field("spec", SPEC),
        Field("status", STATUS),
        Field("trace", TRACE, None, omit=True),
        Field("logical_form", SEM, None, omit=True),
        Field("codes", codes, [], omit=True),
        Field("rewrite", REWRITE, None, omit=True),
        Field("sub_results", ListOf(SELF), [], omit=True),
        Field("subject_supplied", BOOL, False, omit=True),
        Field("pruned", BOOL, False, omit=True),
        Field("reason", STR, "", omit=True),
    ], tag=33, binary=("spec", "status", "reason", "trace", "logical_form",
                       "rewrite", "codes", "sub_results"),
        aux=("trace", "logical_form", "rewrite", "subject_supplied",
             "pruned"))
    return result, Record("sage_run", SageRun, [
        Field("protocol", _CorpusRef(), attr="corpus"),
        Field("results", ListOf(result), []),
        Field("code_unit", code_unit),
    ], tag=32)


_CODES = ListOf(_sentence_code_table(_IRTable("OPS"), _sentence_code))

RESULT, SAGE_RUN = _run_tables(_CODES, _IRTable("CODE_UNIT"))


class _DeferredField:
    """A store entry's IR-typed field: read in its JSON form through
    ``raw`` and left as a :class:`~repro.core.results.Deferred` that
    ``build`` turns into the value on its first read.  Read-only: entries
    are written through :data:`SAGE_RUN`, byte for byte the same."""

    identity = False

    def __init__(self, raw, build) -> None:
        self.raw = raw
        self.build = build

    def read(self, r, reg):
        return Deferred(self.raw.read(r, reg), self.build)


def _built_codes(raw: list) -> list:
    """A stored result's sentence codes, typed and checked as an envelope's
    are."""
    return decoding("sentence_code", lambda: _CODES.dec(raw, None))


def _built_code_unit(raw: dict) -> Program:
    """A stored run's code unit, typed and fingerprint-checked as an
    envelope's is."""
    from ..codegen.ir import CODE_UNIT

    return decoding("code_unit", lambda: CODE_UNIT.dec(raw, None))


#: A store run entry (the run cache's codec): the bytes of :data:`SAGE_RUN`,
#: read with the sentence codes and the code unit left in their JSON form.
#: The entry's key pins the code that wrote it and the store checks its
#: payload SHA-1 on every read, so the IR is typed and its fingerprint
#: checked only when first read; a warm answer that reads no IR never
#: imports it.
_, STORED_RUN = _run_tables(
    _DeferredField(ListOf(_sentence_code_table(JsonValue(list), dict)),
                   _built_codes),
    _DeferredField(JsonValue(dict), _built_code_unit))


def code_unit_of(run: SageRun) -> Program:
    """``run.code_unit`` for an answer: a stored unit that fails its
    fingerprint check on first read is a :class:`ContractError`, so callers
    get a structured error, never an unverified program."""
    try:
        return run.code_unit
    except FingerprintMismatch as exc:
        raise ContractError(
            f"stored {run.corpus.protocol} run entry: {exc}") from exc


PROCESS_REQUEST = Record("process_request", ProcessRequest, [
    Field("protocol", STR),
    Field("mode", MODE, "revised"),
    Field("include_sentences", BOOL, True, omit=True),
    Field("artifacts", ListOf(STR, tuple), (), omit=True),
], error=RequestError)

SWEEP_REQUEST = Record("sweep_request", SweepRequest, [
    Field("mode", MODE, "revised"),
    Field("protocols", ListOf(STR, tuple), (), omit=True),
    Field("parallel", BOOL, True, omit=True),
    Field("include_sentences", BOOL, False, omit=True),
    Field("artifacts", ListOf(STR, tuple), (), omit=True),
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

#: kind tag → field table.  The ``code_unit`` and ``resolution`` tables
#: live beside their types (:data:`_LATE_KINDS`) and join on the first
#: lookup that misses (:func:`_lookup`), so an answer that carries neither
#: loads neither the IR nor the resolution module.
KINDS = {codec.kind: codec for codec in (
    SAGE_RUN, RESULT, TRACE, SPEC, REWRITE,
    PROCESS_REQUEST, SWEEP_REQUEST, PROCESS_RESPONSE, SWEEP_RESPONSE,
    SENTENCE_REPORT, GENERATED_ARTIFACT,
)}
_BY_TYPE = {codec.cls: codec for codec in KINDS.values()}

#: The late kinds' tables: (module, table name).
_LATE_KINDS = (("..codegen.ir", "CODE_UNIT"),
               ("..disambiguation.resolution", "RESOLUTION"))


def _lookup(table: dict, key):
    """``table.get(key)``, reading in the late tables on a miss."""
    codec = table.get(key)
    if codec is None:
        for module, name in _LATE_KINDS:
            late = getattr(import_module(module, __package__), name)
            KINDS[late.kind] = late
            _BY_TYPE[late.cls] = late
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


def request_payload(decode, payload):
    """``decode(payload)`` for a request body.  A program embedded in a
    request that fails its fingerprint check is the caller's payload at
    fault, a :class:`ContractError` (HTTP 400); in-process reads
    (:meth:`GeneratedArtifact.to_program`, a stored run's ``code_unit``)
    keep :class:`FingerprintMismatch`."""
    try:
        return decode(payload)
    except FingerprintMismatch as exc:
        raise ContractError(f"request payload: {exc}") from exc


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
