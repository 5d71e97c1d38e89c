"""What a pipeline run produces, and its content address.

:class:`SageRun` holds one :class:`SentenceResult` per corpus sentence plus
the assembled program.  :func:`run_key_for` addresses a run by the
content of everything it depends on.  This module is all the run layer of
the cache needs: a warm process decodes a stored run and answers from it
without loading the engine, the parser or the check suite
(:mod:`repro.core.engine` builds those), nor the codegen IR: a stored run
keeps its two IR-typed fields, :attr:`SentenceResult.codes` and
:attr:`SageRun.code_unit`, as :class:`Deferred` values that are built on
their first read.
"""

from __future__ import annotations

import enum
import hashlib
import os
import threading
from dataclasses import dataclass, field as dataclass_field
from functools import cache
from typing import TYPE_CHECKING, Callable

from ..ccg.semantics import Sem, iter_calls
from ..rfc.corpus import Corpus, Rewrite, SpecSentence

if TYPE_CHECKING:
    from ..codegen.ir import Program, SentenceCode
    from ..disambiguation.winnow import WinnowTrace
    from ..rfc.registry import ProtocolRegistry


class SentenceStatus(str, enum.Enum):
    """What the pipeline concluded about one sentence.

    Members are plain strings (``SentenceStatus.OK == "ok"``, hashes like
    ``"ok"``, serializes as ``"ok"``), so members and raw strings compare
    equal and every JSON consumer keeps working; the enum adds the closed
    set and the ``flagged`` property the service layer dispatches on.
    """

    OK = "ok"
    NON_ACTIONABLE = "non-actionable"
    AMBIGUOUS_LF = "ambiguous-lf"
    AMBIGUOUS_REF = "ambiguous-ref"
    UNPARSED = "unparsed"
    REWRITTEN = "rewritten"

    # String transparency: render and hash as the value so enum members and
    # raw strings interoperate as dict keys and in f-strings.
    __str__ = str.__str__
    __format__ = str.__format__

    def __hash__(self) -> int:
        return str.__hash__(self)

    @classmethod
    def coerce(cls, value: "SentenceStatus | str") -> "SentenceStatus | str":
        """The member for ``value`` when it names one, else the raw string
        (ad-hoc experiment statuses pass through untouched)."""
        # Dict probe instead of EnumMeta.__call__: coerce sits on the
        # deserialisation hot path (once per sentence) and the metaclass
        # call is ~10x the cost of the lookup.  Members hash as their
        # value, so passing an existing member through is a hit too.
        member = cls._value2member_map_.get(value)
        return member if member is not None else value


#: Statuses a human must look at (Figure 4's feedback arrows).
FLAGGED_STATUSES = (SentenceStatus.AMBIGUOUS_LF, SentenceStatus.AMBIGUOUS_REF,
                    SentenceStatus.UNPARSED)


class Deferred:
    """A field value still in its decoded JSON form: ``build(raw)`` makes
    the value, raising whatever an eager decode of ``raw`` would raise.
    ``build`` is a module-level function, so a run holding one pickles."""

    __slots__ = ("raw", "build")

    def __init__(self, raw, build: Callable) -> None:
        self.raw = raw
        self.build = build


#: Serializes first reads, so concurrent readers share one built value.
_BUILD_LOCK = threading.Lock()


def _deferrable(name: str) -> property:
    """The dataclass field ``name`` as a property that builds a
    :class:`Deferred` value on its first read and keeps the result.  A
    build that fails leaves the value deferred: every read raises again,
    and no half-checked value is ever handed out."""

    def get(self):
        value = self.__dict__[name]
        if value.__class__ is Deferred:
            with _BUILD_LOCK:
                value = self.__dict__[name]
                if value.__class__ is Deferred:
                    value = value.build(value.raw)
                    self.__dict__[name] = value
        return value

    def put(self, value) -> None:
        self.__dict__[name] = value

    return property(get, put)


@dataclass
class SentenceResult:
    """Everything the pipeline derived from one specification sentence."""

    spec: SpecSentence
    status: SentenceStatus | str
    trace: WinnowTrace | None = None
    logical_form: Sem | None = None
    codes: list[SentenceCode] = dataclass_field(default_factory=list)
    rewrite: Rewrite | None = None
    sub_results: list["SentenceResult"] = dataclass_field(default_factory=list)
    subject_supplied: bool = False
    reason: str = ""
    #: True when the parser's cell budget truncated this sentence's chart:
    #: the winnow provenance may be incomplete (honest-pruning flag).
    pruned: bool = False

    @property
    def base_lf_count(self) -> int:
        return self.trace.base_count if self.trace else 0

    @property
    def final_lf_count(self) -> int:
        return self.trace.final_count if self.trace else 0


SentenceResult.codes = _deferrable("codes")


@dataclass
class SageRun:
    """One full pipeline run over a corpus."""

    corpus: Corpus
    results: list[SentenceResult]
    code_unit: Program

    def by_status(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    def flagged(self) -> list[SentenceResult]:
        """Sentences a human must look at (Figure 4's feedback arrows)."""
        return [
            result
            for result in self.results
            if result.status in FLAGGED_STATUSES
        ]

    def rewritten(self) -> list[SentenceResult]:
        return [r for r in self.results if r.status == SentenceStatus.REWRITTEN]

    def traces(self) -> list[WinnowTrace]:
        return [r.trace for r in self.results if r.trace is not None]


SageRun.code_unit = _deferrable("code_unit")


def modal_sentences(run: SageRun) -> list[SentenceResult]:
    """Sentences whose code came from a @May reading — the candidates the
    §6.5 unit tests flag as under-specified."""
    flagged = []
    for result in run.results:
        form = result.logical_form
        if form is None:
            continue
        if any(call.pred == "May" for call in iter_calls(form)):
            flagged.append(result)
    return flagged


@cache
def source_digest() -> str:
    """SHA-1 over the bytes of every file in the ``repro`` package, code
    and data alike.  The lexicon and the check suite are Python code, so
    this is what pins a persisted run to the grammar and rules that
    computed it without building either."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha1()
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = sorted(name for name in subdirs if name != "__pycache__")
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _sorted_items(table: dict) -> tuple:
    """A decision table as a tuple in a process-independent order.  Keys
    are unique, so no value is ever compared; a table mixing sentence
    keys with ``(PROTOCOL, key)`` pairs sorts by the keys' repr."""
    try:
        return tuple(sorted(table.items()))
    except TypeError:
        return tuple(sorted(table.items(), key=lambda item: repr(item[0])))


def run_key_for(registry: ProtocolRegistry, corpus: Corpus, mode: str,
                rewrites: dict, selections: dict) -> tuple | None:
    """The content address of a run of ``corpus`` in ``mode`` over
    ``registry`` — the one key function of the run memo — or None for a
    corpus without a content fingerprint (one built by hand).

    The substrate part comes from
    :meth:`~repro.rfc.registry.ProtocolRegistry.substrate_key`, which is
    empty while the substrate is pristine: :func:`source_digest` pins it
    then, so the key is computable without building a lexicon, parser,
    chunker or check suite.  Every part prints the same way in every
    process (no sets), so its string form is a stable store key.
    """
    if not corpus.fingerprint:
        return None
    try:
        sender_built = tuple(sorted(registry.sender_built(corpus.protocol)))
    except KeyError:
        sender_built = None
    return (mode, source_digest(), corpus.fingerprint, sender_built,
            _sorted_items(rewrites), _sorted_items(selections),
            registry.substrate_key())
