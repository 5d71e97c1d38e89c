"""Tokenization tuned for RFC prose.

RFC text mixes ordinary English with idioms a generic tokenizer mangles:
``code = 0`` (field tests), ``bfd.SessionState`` (state variables),
hyphenated terms (``one's complement``, ``time-to-live``), and quoted field
names.  The tokenizer keeps those intact as single tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

# Order matters: the first alternative that matches wins.
_TOKEN_PATTERN = re.compile(
    r"""
    (?P<statevar>\b[a-zA-Z]+\.[A-Za-z][A-Za-z0-9]*\b)   # bfd.SessionState
  | (?P<numword>\b\d+-[A-Za-z][A-Za-z0-9\-]*)            # 16-bit, 3-way
  | (?P<number>\b\d+(?:\.\d+)*\b)                        # 0, 16, 64, 1.2
  | (?P<word>[A-Za-z][A-Za-z0-9_'\-]*)                   # words, one's, time-to-live
  | (?P<op>=|\+|/|>=|<=|>|<)                             # idiom operators
  | (?P<punct>[,.;:()\[\]"])                             # punctuation
    """,
    re.VERBOSE,
)

KIND_WORD = "word"
KIND_NUMBER = "number"
KIND_OP = "op"
KIND_PUNCT = "punct"
KIND_STATEVAR = "statevar"
KIND_NOUN_PHRASE = "np"  # produced by the chunker, not the tokenizer


@dataclass(frozen=True)
class Token:
    """One token: surface text, kind, and source character offset."""

    text: str
    kind: str
    position: int

    @cached_property
    def lower(self) -> str:
        """Lowercased surface text, computed once per token.

        Lexicon lookups, the phrase-trie walk, and the tagger all key on
        the lowercase form; caching it makes a token "trie-ready" — the
        chunker warms it on every token it emits so the parse loop never
        re-lowercases."""
        return self.text.lower()

    def __str__(self) -> str:
        return self.text


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens, preserving RFC idioms."""
    tokens = []
    for match in _TOKEN_PATTERN.finditer(text):
        kind = match.lastgroup or KIND_WORD
        if kind == "numword":  # "16-bit" behaves like an ordinary modifier word
            kind = KIND_WORD
        tokens.append(Token(text=match.group(), kind=kind, position=match.start()))
    return tokens


_ABBREVIATIONS = {"e.g", "i.e", "etc", "cf", "vs", "fig", "sec", "no"}


def split_sentences(text: str) -> list[str]:
    """Split a paragraph into sentences.

    Periods end a sentence unless they belong to a known abbreviation, a
    number (``10.0.1.1``), or a state variable (``bfd.SessionState``).
    """
    sentences: list[str] = []
    start = 0
    index = 0
    while index < len(text):
        char = text[index]
        if char in ".!?":
            before = text[:index]
            word_match = re.search(r"[\w.]+$", before)
            last_word = word_match.group().lower() if word_match else ""
            next_char = text[index + 1] if index + 1 < len(text) else " "
            is_abbrev = last_word.rstrip(".") in _ABBREVIATIONS
            is_internal = char == "." and (
                next_char.isdigit() or next_char.isalpha()
            )
            if not is_abbrev and not is_internal:
                sentence = text[start : index + 1].strip()
                if sentence:
                    sentences.append(sentence)
                start = index + 1
        index += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def normalize_term(text: str) -> str:
    """Canonical snake_case identifier for a noun phrase.

    "Echo Reply Message" -> "echo_reply_message"; used as the constant value
    carried through logical forms and looked up in codegen contexts.
    """
    cleaned = text.lower().strip()
    cleaned = cleaned.replace("'s", "s")
    cleaned = re.sub(r"[^a-z0-9.]+", "_", cleaned)
    return cleaned.strip("_")
