"""Noun-phrase labeling: fuse multiword terms into single NP tokens.

This is the spaCy-equivalent stage of §3: before CCG parsing, domain terms
("echo reply message", "one's complement sum", "bfd.SessionState") are fused
into single NP tokens.  Table 7 shows why: left unfused, each extra word
multiplies the derivations CCG finds, and Table 8 shows that with labeling
disabled most sentences stop parsing entirely.

Labeling passes, in priority order:
1. quoted phrases — explicit single-NP markup;
2. dictionary longest match — the networking term dictionary;
3. plain noun runs — consecutive NOUN-tagged words fuse into one NP.

The ablation switches (`use_dictionary`, `use_np_labeling`) reproduce the
Table 8 experiment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .tagger import TAG_NOUN, tag_word
from .terms import TermDictionary, load_default_dictionary
from .tokenizer import (
    KIND_NOUN_PHRASE,
    KIND_NUMBER,
    KIND_STATEVAR,
    KIND_WORD,
    Token,
    tokenize,
)


@dataclass
class ChunkerConfig:
    """Ablation switches for the Table 7/8 experiments."""

    use_dictionary: bool = True
    use_np_labeling: bool = True
    merge_adjacent: bool = True  # off = "poor labeling" (split noun phrases)


class NounPhraseChunker:
    """Relabels token streams so each noun phrase is one NP token."""

    def __init__(self, dictionary: TermDictionary | None = None,
                 config: ChunkerConfig | None = None) -> None:
        self.dictionary = dictionary if dictionary is not None else load_default_dictionary()
        self.config = config or ChunkerConfig()

    def fingerprint(self) -> str:
        """Content hash of the dictionary terms plus the ablation switches.

        Part of the parse-cache key: a chunker with a different term set or
        different labeling configuration produces different token streams,
        so its parses must never be served from another chunker's cache."""
        config = self.config
        payload = "\n".join(sorted(self.dictionary.all_terms())) + (
            f"\n#{int(config.use_dictionary)}{int(config.use_np_labeling)}"
            f"{int(config.merge_adjacent)}"
        )
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    def chunk_text(self, text: str) -> list[Token]:
        return self.chunk(tokenize(text))

    def chunk(self, tokens: list[Token]) -> list[Token]:
        if not self.config.use_np_labeling:
            return self._trie_ready(list(tokens))
        tokens = self._fuse_quoted(tokens)
        if self.config.use_dictionary:
            tokens = self._fuse_dictionary(tokens)
        tokens = self._fuse_noun_runs(tokens)
        tokens = self._fuse_number_units(tokens)
        if self.config.merge_adjacent:
            tokens = self._merge_adjacent_nps(tokens)
        return self._trie_ready(tokens)

    @staticmethod
    def _trie_ready(tokens: list[Token]) -> list[Token]:
        """Warm each emitted token's cached ``lower`` so downstream
        consumers (the lexicon trie walk, the tagger) never re-lowercase."""
        for token in tokens:
            token.lower  # noqa: B018 — populates the cached_property
        return tokens

    # -- pass 1: quoted phrases -------------------------------------------
    @staticmethod
    def _fuse_quoted(tokens: list[Token]) -> list[Token]:
        result: list[Token] = []
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if token.text == '"':
                closing = next(
                    (j for j in range(index + 1, len(tokens)) if tokens[j].text == '"'),
                    None,
                )
                if closing is not None and closing > index + 1:
                    inner = tokens[index + 1 : closing]
                    result.append(
                        Token(
                            text=" ".join(t.text for t in inner),
                            kind=KIND_NOUN_PHRASE,
                            position=inner[0].position,
                        )
                    )
                    index = closing + 1
                    continue
            result.append(token)
            index += 1
        return result

    # -- pass 2: dictionary longest match -----------------------------------
    def _fuse_dictionary(self, tokens: list[Token]) -> list[Token]:
        result: list[Token] = []
        words = [token.text for token in tokens]
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if token.kind in (KIND_WORD, KIND_STATEVAR):
                length = self.dictionary.longest_match(words, index)
                if length >= 1:
                    span = tokens[index : index + length]
                    result.append(
                        Token(
                            text=" ".join(t.text for t in span),
                            kind=KIND_NOUN_PHRASE,
                            position=token.position,
                        )
                    )
                    index += length
                    continue
            result.append(token)
            index += 1
        return result

    # -- pass 3: noun runs ----------------------------------------------------
    @staticmethod
    def _fuse_noun_runs(tokens: list[Token]) -> list[Token]:
        result: list[Token] = []
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if token.kind == KIND_STATEVAR:
                result.append(
                    Token(text=token.text, kind=KIND_NOUN_PHRASE, position=token.position)
                )
                index += 1
                continue
            if token.kind == KIND_WORD and tag_word(token.text) == TAG_NOUN:
                run = [token]
                scan = index + 1
                while (
                    scan < len(tokens)
                    and tokens[scan].kind == KIND_WORD
                    and tag_word(tokens[scan].text) == TAG_NOUN
                ):
                    run.append(tokens[scan])
                    scan += 1
                result.append(
                    Token(
                        text=" ".join(t.text for t in run),
                        kind=KIND_NOUN_PHRASE,
                        position=token.position,
                    )
                )
                index = scan
                continue
            result.append(token)
            index += 1
        return result

    @staticmethod
    def _fuse_number_units(tokens: list[Token]) -> list[Token]:
        return _fuse_number_units_impl(tokens)

    @staticmethod
    def _merge_adjacent_nps(tokens: list[Token]) -> list[Token]:
        return _merge_adjacent_nps_impl(tokens)


_UNIT_NOUNS = {"bit", "bits", "octet", "octets", "byte", "bytes", "word",
               "words", "millisecond", "milliseconds", "second", "seconds"}


def _fuse_number_units_impl(tokens: list[Token]) -> list[Token]:
    """Merge "32 bits"-style quantity phrases into one NP token."""
    result: list[Token] = []
    index = 0
    while index < len(tokens):
        token = tokens[index]
        next_token = tokens[index + 1] if index + 1 < len(tokens) else None
        if (
            token.kind == KIND_NUMBER
            and next_token is not None
            and next_token.kind in (KIND_NOUN_PHRASE,)
            and next_token.text.split()[0].lower() in _UNIT_NOUNS
        ):
            result.append(
                Token(
                    text=f"{token.text} {next_token.text}",
                    kind=KIND_NOUN_PHRASE,
                    position=token.position,
                )
            )
            index += 2
            continue
        result.append(token)
        index += 1
    return result


def _merge_adjacent_nps_impl(tokens: list[Token]) -> list[Token]:
    """Fuse runs of adjacent NP tokens ("ICMP type" + "field") into one NP.

    Dictionary fusion and noun-run fusion can leave a noun phrase split
    where a dictionary term ends mid-phrase; adjacent nominals in technical
    prose form a single compound.
    """
    result: list[Token] = []
    for token in tokens:
        if (
            token.kind == KIND_NOUN_PHRASE
            and result
            and result[-1].kind == KIND_NOUN_PHRASE
        ):
            previous = result.pop()
            result.append(
                Token(
                    text=f"{previous.text} {token.text}",
                    kind=KIND_NOUN_PHRASE,
                    position=previous.position,
                )
            )
        else:
            result.append(token)
    return result


__all__ = [
    "ChunkerConfig",
    "NounPhraseChunker",
    "KIND_NOUN_PHRASE",
    "KIND_NUMBER",
]
