"""Bundled RFC corpora and the sentence/context extraction.

Parses the curated RFC excerpts shipped in ``repro/data`` (see DESIGN.md for
the substitution rationale and data-file format), producing
:class:`SpecSentence` records — each sentence paired with the dynamic
context (protocol, message, field) that the document structure implies,
exactly the context dictionary of Table 4.

Also models ``rewrites.json``: the human-in-the-loop record of every
sentence the paper reports rewriting (ambiguous, unparseable, or
under-specified), used by the pipeline's ``revised`` mode (Figure 4's
feedback loop).

Loading and caching live in :mod:`repro.rfc.registry`; the ``*_corpus()``
functions and rewrite loaders here are thin wrappers over the default
registry, kept for the paper-style API (``icmp_corpus()``) and backward
compatibility.  Repeated calls return the same memoized objects.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from hashlib import sha1
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .document import RFCDocument

KIND_INTRO = "intro"
KIND_FIELD = "field"
KIND_DESCRIPTION = "description"


@dataclass(frozen=True)
class SpecSentence:
    """One specification sentence plus its structural context."""

    text: str
    protocol: str
    message: str  # section title, e.g. "Echo or Echo Reply Message"
    field: str  # normalized field term, or "" for behaviour prose
    kind: str  # intro | field | description
    field_group: str = ""  # "ip" | "icmp" | "" — which Fields: block


#: Serializes first reads, so concurrent readers share one parse.
_PARSE_LOCK = threading.Lock()


class Corpus:
    """A parsed RFC document plus its flattened sentence records.

    A corpus is built by hand from a document and its sentences, or by
    :func:`corpus_from_text` from RFC text, which it parses the first time
    :attr:`document` or :attr:`sentences` is read: a run answered by the
    run memo needs only :attr:`protocol` and :attr:`fingerprint`, so it
    parses nothing.  Equality compares the protocol and the parsed content.
    """

    def __init__(self, protocol: str, document: RFCDocument | None = None,
                 sentences: list[SpecSentence] | None = None,
                 fingerprint: str = "") -> None:
        self.protocol = protocol
        #: SHA-1 of the protocol name and the source text the corpus is
        #: parsed from ("" for corpora assembled by hand).  Corpora are
        #: read-only once built, so this is their content identity: the
        #: engine's run memo keys on it.
        self.fingerprint = fingerprint
        self._text: str | None = None
        self._parsed = (document, [] if sentences is None else sentences)

    @property
    def document(self) -> RFCDocument:
        return (self._parsed or self._parse())[0]

    @property
    def sentences(self) -> list[SpecSentence]:
        return (self._parsed or self._parse())[1]

    def _parse(self) -> tuple[RFCDocument, list[SpecSentence]]:
        with _PARSE_LOCK:
            if self._parsed is None:
                from .preprocess import parse_rfc_text

                document = parse_rfc_text(self._text)
                self._parsed = (document,
                                extract_sentences(document, self.protocol))
                self._text = None
            return self._parsed

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.protocol, self.document, self.sentences)
                == (other.protocol, other.document, other.sentences))


def extract_sentences(document: RFCDocument, protocol: str) -> list[SpecSentence]:
    records: list[SpecSentence] = []
    for intro in document.intro_sections:
        for sentence in intro.sentences:
            records.append(
                SpecSentence(sentence, protocol, intro.title, "", KIND_INTRO)
            )
    for section in document.message_sections:
        for field_description in section.fields:
            for sentence in field_description.sentences:
                records.append(
                    SpecSentence(
                        sentence, protocol, section.title,
                        field_description.term, KIND_FIELD,
                        field_group=field_description.group,
                    )
                )
        for sentence in section.description_sentences:
            records.append(
                SpecSentence(sentence, protocol, section.title, "", KIND_DESCRIPTION)
            )
    return records


def corpus_from_text(text: str, protocol: str) -> Corpus:
    """The :class:`Corpus` for ``protocol`` over RFC-formatted ``text``:
    fingerprinted now, parsed on its first read."""
    corpus = Corpus(protocol, fingerprint=sha1(
        f"{protocol}\0{text}".encode("utf-8")).hexdigest())
    corpus._text, corpus._parsed = text, None
    return corpus


def _registry():
    from .registry import default_registry

    return default_registry()


def icmp_corpus() -> Corpus:
    """RFC 792 (ICMP): all eight message types (cached)."""
    return _registry().load_corpus("ICMP")


def igmp_corpus() -> Corpus:
    """RFC 1112 Appendix I (IGMP v1): the packet-header description (cached)."""
    return _registry().load_corpus("IGMP")


def ntp_corpus() -> Corpus:
    """RFC 1059 (NTP): packet format and timeout dispatch (cached)."""
    return _registry().load_corpus("NTP")


def bfd_corpus() -> Corpus:
    """RFC 5880 §4.1 + §6.8.6 (BFD): header and state management (cached)."""
    return _registry().load_corpus("BFD")


@dataclass(frozen=True)
class Rewrite:
    """One human rewrite: original sentence → revised sentence(s)."""

    original: str
    revised: str
    category: str  # "ambiguous" | "unparsed" | "imprecise" | "non-actionable"
    note: str = ""


def load_rewrites() -> list[Rewrite]:
    """The human-in-the-loop rewrite record (Table 6 and §6.4), cached."""
    return _registry().load_rewrites()


def rewrites_by_original() -> dict[str, Rewrite]:
    return _registry().rewrites()


def sentence_key(sentence: str) -> str:
    """Whitespace-insensitive sentence identity."""
    return " ".join(sentence.lower().split())


def find_rewrite(sentence: str) -> Rewrite | None:
    return rewrites_by_original().get(sentence_key(sentence))
