"""Protocol specification component coverage (Tables 1, 9, and 10).

Table 9 catalogues *conceptual* components per RFC (packet format,
interoperation, pseudo code, state management, communication patterns,
architecture); Table 10 catalogues *syntactic* components (header diagrams,
listings, tables, algorithm descriptions, figures, sequence and state
machine diagrams).  SAGE supports a subset of each (Table 1).

For the four corpora bundled here, the syntactic detector *measures* the
components from the text; the remaining five protocols carry the paper's
catalogue entries so the full matrices regenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.engine import (
    FLAGGED_STATUSES,
    STATUS_OK,
    STATUS_REWRITTEN,
    SageEngine,
)
from ..rfc.corpus import Corpus
from ..rfc.registry import default_registry

# -- conceptual components (Table 9) -------------------------------------------

CONCEPTUAL_COMPONENTS = (
    "Packet Format",
    "Interoperation",
    "Pseudo Code",
    "State/Session Mngmt.",
    "Comm. Patterns",
    "Architecture",
)

SAGE_CONCEPTUAL_SUPPORT = {
    "Packet Format": "full",
    "Interoperation": "full",
    "Pseudo Code": "full",
    "State/Session Mngmt.": "partial",
    "Comm. Patterns": "none",
    "Architecture": "none",
}

# Table 9 matrix, paper row order; True = component present in the RFC.
CONCEPTUAL_MATRIX: dict[str, dict[str, bool]] = {
    "IPv4": {"Packet Format": True, "Interoperation": True, "Pseudo Code": True,
             "State/Session Mngmt.": False, "Comm. Patterns": False,
             "Architecture": False},
    "TCP": {"Packet Format": True, "Interoperation": True, "Pseudo Code": True,
            "State/Session Mngmt.": True, "Comm. Patterns": True,
            "Architecture": False},
    "UDP": {"Packet Format": True, "Interoperation": True, "Pseudo Code": True,
            "State/Session Mngmt.": False, "Comm. Patterns": False,
            "Architecture": False},
    "ICMP": {"Packet Format": True, "Interoperation": True, "Pseudo Code": True,
             "State/Session Mngmt.": False, "Comm. Patterns": False,
             "Architecture": False},
    "NTP": {"Packet Format": True, "Interoperation": True, "Pseudo Code": True,
            "State/Session Mngmt.": True, "Comm. Patterns": True,
            "Architecture": True},
    "OSPF2": {"Packet Format": True, "Interoperation": True, "Pseudo Code": True,
              "State/Session Mngmt.": True, "Comm. Patterns": True,
              "Architecture": True},
    "BGP4": {"Packet Format": True, "Interoperation": True, "Pseudo Code": True,
             "State/Session Mngmt.": True, "Comm. Patterns": True,
             "Architecture": True},
    "RTP": {"Packet Format": True, "Interoperation": False, "Pseudo Code": True,
            "State/Session Mngmt.": False, "Comm. Patterns": True,
            "Architecture": False},
    "BFD": {"Packet Format": True, "Interoperation": True, "Pseudo Code": True,
            "State/Session Mngmt.": True, "Comm. Patterns": True,
            "Architecture": False},
}

# -- syntactic components (Table 10) --------------------------------------------

SYNTACTIC_COMPONENTS = (
    "Header Diagram",
    "Listing",
    "Table",
    "Algorithm Description",
    "Other Figures",
    "Seq./Comm. Diagram",
    "State Machine Diagram",
)

SAGE_SYNTACTIC_SUPPORT = {
    "Header Diagram": "full",
    "Listing": "full",
    "Table": "none",
    "Algorithm Description": "none",
    "Other Figures": "none",
    "Seq./Comm. Diagram": "none",
    "State Machine Diagram": "none",
}

SYNTACTIC_MATRIX: dict[str, dict[str, bool]] = {
    "IPv4": {"Header Diagram": True, "Listing": True, "Table": True,
             "Algorithm Description": True, "Other Figures": False,
             "Seq./Comm. Diagram": False, "State Machine Diagram": False},
    "TCP": {"Header Diagram": True, "Listing": True, "Table": False,
            "Algorithm Description": True, "Other Figures": True,
            "Seq./Comm. Diagram": True, "State Machine Diagram": True},
    "UDP": {"Header Diagram": True, "Listing": True, "Table": False,
            "Algorithm Description": False, "Other Figures": False,
            "Seq./Comm. Diagram": False, "State Machine Diagram": False},
    "ICMP": {"Header Diagram": True, "Listing": True, "Table": False,
             "Algorithm Description": False, "Other Figures": False,
             "Seq./Comm. Diagram": False, "State Machine Diagram": False},
    "NTP": {"Header Diagram": True, "Listing": True, "Table": True,
            "Algorithm Description": True, "Other Figures": True,
            "Seq./Comm. Diagram": False, "State Machine Diagram": False},
    "OSPF2": {"Header Diagram": True, "Listing": True, "Table": True,
              "Algorithm Description": True, "Other Figures": True,
              "Seq./Comm. Diagram": True, "State Machine Diagram": False},
    "BGP4": {"Header Diagram": True, "Listing": True, "Table": True,
             "Algorithm Description": True, "Other Figures": False,
             "Seq./Comm. Diagram": True, "State Machine Diagram": True},
    "RTP": {"Header Diagram": True, "Listing": True, "Table": True,
            "Algorithm Description": True, "Other Figures": True,
            "Seq./Comm. Diagram": True, "State Machine Diagram": False},
    "BFD": {"Header Diagram": True, "Listing": True, "Table": False,
            "Algorithm Description": False, "Other Figures": False,
            "Seq./Comm. Diagram": False, "State Machine Diagram": False},
}


@dataclass
class DetectedComponents:
    """Syntactic components measured from a bundled corpus."""

    protocol: str
    header_diagram: bool
    listing: bool
    field_descriptions: int
    state_management_sentences: int


def detect_components(corpus: Corpus) -> DetectedComponents:
    """Measure the detectable syntactic components in a corpus."""
    document = corpus.document
    has_diagram = any(
        section.diagram is not None and section.diagram.layout.fields
        for section in document.message_sections
    )
    has_listing = any(
        field.values for section in document.message_sections
        for field in section.fields
    )
    field_count = sum(len(section.fields) for section in document.message_sections)
    state_sentences = sum(
        1 for sentence in corpus.sentences if "bfd." in sentence.text.lower()
    )
    return DetectedComponents(
        protocol=corpus.protocol,
        header_diagram=has_diagram,
        listing=has_listing,
        field_descriptions=field_count,
        state_management_sentences=state_sentences,
    )


def detect_all() -> list[DetectedComponents]:
    """Measure every protocol registered in the default registry.

    Registry-driven: a fifth protocol registered via
    :func:`repro.rfc.registry.register_protocol` shows up here with no code
    change."""
    return [
        detect_components(corpus) for corpus in default_registry().corpora()
    ]


@dataclass
class PipelineCoverage:
    """How much of one corpus the pipeline turns into code (Table 1's
    "SAGE supports" claim, measured rather than catalogued)."""

    protocol: str
    sentences: int
    by_status: dict[str, int]

    @property
    def actionable(self) -> int:
        """Sentences that produced code (directly or through a rewrite)."""
        return (self.by_status.get(STATUS_OK, 0)
                + self.by_status.get(STATUS_REWRITTEN, 0))

    @property
    def flagged(self) -> int:
        return sum(self.by_status.get(status, 0)
                   for status in FLAGGED_STATUSES)


def pipeline_coverage(mode: str | None = None, *,
                      engine: SageEngine | None = None,
                      parser_backend: str | None = None) -> list[PipelineCoverage]:
    """Run every registered protocol through one engine and measure coverage.

    Registry-driven like :func:`detect_all` — a fifth registered protocol is
    swept automatically.  Pass ``mode`` (default "revised") or a
    pre-built ``engine``, not a conflicting pair; ``parser_backend``
    selects the parsing backend for a freshly built engine."""
    if engine is not None:
        if mode is not None and mode != engine.mode:
            raise ValueError(
                f"mode {mode!r} conflicts with the supplied engine's "
                f"mode {engine.mode!r}"
            )
        if parser_backend is not None:
            raise ValueError(
                "pass parser_backend only when pipeline_coverage builds "
                "the engine itself"
            )
    else:
        engine = SageEngine(mode=mode or "revised",
                            parser_backend=parser_backend)
    runs = engine.process_corpora()
    return [
        PipelineCoverage(
            protocol=name,
            sentences=len(run.results),
            by_status=run.by_status(),
        )
        for name, run in runs.items()
    ]


def conceptual_rows() -> list[tuple[str, list[bool]]]:
    """Table 9 rows: component → presence across the nine protocols."""
    protocols = list(CONCEPTUAL_MATRIX)
    return [
        (component, [CONCEPTUAL_MATRIX[p][component] for p in protocols])
        for component in CONCEPTUAL_COMPONENTS
    ]


def syntactic_rows() -> list[tuple[str, list[bool]]]:
    """Table 10 rows."""
    protocols = list(SYNTACTIC_MATRIX)
    return [
        (component, [SYNTACTIC_MATRIX[p][component] for p in protocols])
        for component in SYNTACTIC_COMPONENTS
    ]
