"""Structured model of an RFC document.

The pre-processor (§3 "Extracting structural and non-textual elements")
turns flat RFC text into this model: message sections with their header
diagrams, per-field description blocks (with the ``0 = Echo Reply`` value
idiom parsed out), and behaviour prose.  Document structure is what later
supplies *dynamic context* for code generation (Table 4) and the subject for
re-parsing incomplete field sentences (§4.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..nlp.tokenizer import normalize_term, split_sentences
from .header_diagram import DiagramParse

# "0 = net unreachable;"  /  "8 for echo message;"
_VALUE_EQ = re.compile(r"^(\d+)\s*=\s*(.+?)[;.]?$")
_VALUE_FOR = re.compile(r"^(\d+)\s+for\s+(.+?)[;.]?$")


@dataclass
class ValueBinding:
    """One enumerated value: ``0 = net unreachable``."""

    value: int
    meaning: str


@dataclass
class FieldDescription:
    """One field's description block within a message section."""

    name: str
    sentences: list[str] = field(default_factory=list)
    values: list[ValueBinding] = field(default_factory=list)
    group: str = ""  # "ip" | "icmp" | "" — from the "IP Fields:" markers

    @property
    def term(self) -> str:
        return normalize_term(self.name)

    @property
    def fixed_value(self) -> int | None:
        """A bare numeric description ("Type\\n 3") fixes the field's value."""
        if len(self.values) == 1 and not self.sentences and not self.values[0].meaning:
            return self.values[0].value
        if len(self.sentences) == 1 and self.sentences[0].rstrip(".").strip().isdigit():
            return int(self.sentences[0].rstrip(".").strip())
        return None


@dataclass
class MessageSection:
    """One message's section: diagram, fields, and description prose."""

    title: str
    diagram: DiagramParse | None = None
    fields: list[FieldDescription] = field(default_factory=list)
    description_sentences: list[str] = field(default_factory=list)

    @property
    def message_names(self) -> list[str]:
        """"Echo or Echo Reply Message" → ["echo", "echo reply"]."""
        base = self.title.strip()
        base = re.sub(r"\s+message\s*$", "", base, flags=re.IGNORECASE)
        return [part.strip().lower() for part in re.split(r"\s+or\s+", base)]

    def field_named(self, name: str) -> FieldDescription | None:
        wanted = normalize_term(name)
        for description in self.fields:
            if description.term == wanted:
                return description
        return None

    def type_values(self) -> dict[str, int]:
        """Map message name → type value from the Type field's enumeration.

        "8 for echo message; 0 for echo reply message" →
        ``{"echo": 8, "echo reply": 0}``.  A single bare value maps every
        message name in the section to it.
        """
        type_field = self.field_named("type")
        if type_field is None:
            return {}
        result: dict[str, int] = {}
        if type_field.fixed_value is not None:
            for name in self.message_names:
                result[name] = type_field.fixed_value
            return result
        for binding in type_field.values:
            cleaned = re.sub(
                r"\s+message\s*$", "", binding.meaning.strip(), flags=re.IGNORECASE
            )
            result[cleaned.lower()] = binding.value
        return result


@dataclass
class IntroSection:
    """Leading prose sections (Introduction, Message Formats, ...)."""

    title: str
    sentences: list[str] = field(default_factory=list)


@dataclass
class RFCDocument:
    """A parsed RFC: intro prose plus message sections."""

    number: str
    title: str
    intro_sections: list[IntroSection] = field(default_factory=list)
    message_sections: list[MessageSection] = field(default_factory=list)

    def section_titled(self, title: str) -> MessageSection | None:
        for section in self.message_sections:
            if section.title.lower() == title.lower():
                return section
        return None


def parse_value_binding(line: str) -> ValueBinding | None:
    """Parse the ``0 = Echo Reply`` / ``8 for echo message`` idioms."""
    text = line.strip()
    for pattern in (_VALUE_EQ, _VALUE_FOR):
        match = pattern.match(text)
        if match:
            return ValueBinding(value=int(match.group(1)), meaning=match.group(2))
    return None


def split_description_sentences(text: str) -> list[str]:
    """Sentence-split a description block, dropping parentheticals."""
    cleaned = re.sub(r"\([^)]*\)", "", text)
    cleaned = re.sub(r"\s+", " ", cleaned).strip()
    if not cleaned:
        return []
    return split_sentences(cleaned)
