"""The domain term dictionary and longest-match lookup.

Paper §3: "sage creates a term dictionary of domain-specific nouns and
noun-phrases using the index of a standard networking textbook."  The
dictionary drives noun-phrase labeling: multiword domain terms are fused
into single NP tokens before CCG parsing, which Table 7/8 show is critical
to keeping the logical-form count small.
"""

from __future__ import annotations

from importlib import resources
from typing import Iterable


class TermDictionary:
    """A set of known noun phrases with longest-prefix-match lookup."""

    def __init__(self, terms: Iterable[str] = ()) -> None:
        self._terms: set[tuple[str, ...]] = set()
        self._max_words = 1
        for term in terms:
            self.add(term)

    def add(self, term: str) -> None:
        words = tuple(term.lower().split())
        if not words:
            return
        self._terms.add(words)
        self._max_words = max(self._max_words, len(words))

    def __contains__(self, term: str) -> bool:
        return tuple(term.lower().split()) in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def longest_match(self, words: list[str], start: int) -> int:
        """Length (in words) of the longest dictionary term at ``start``; 0 if none.

        Plural surface forms match their singular dictionary entry ("echos",
        "replies", "addresses" all hit), so RFC prose does not need separate
        plural entries.
        """
        limit = min(self._max_words, len(words) - start)
        for length in range(limit, 0, -1):
            candidate = tuple(word.lower() for word in words[start : start + length])
            if candidate in self._terms:
                return length
            singular = candidate[:-1] + (_singularize(candidate[-1]),)
            if singular in self._terms:
                return length
        return 0

    def all_terms(self) -> list[str]:
        return sorted(" ".join(words) for words in self._terms)


def _singularize(word: str) -> str:
    """Heuristic singular form: replies→reply, addresses→address, echos→echo."""
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith(("sses", "shes", "ches", "xes")):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss") and len(word) > 3:
        return word[:-1]
    return word


_default_dictionary: TermDictionary | None = None


def load_default_dictionary(refresh: bool = False) -> TermDictionary:
    """The bundled ~400-term networking dictionary, loaded once per process.

    The returned instance is shared (every default-constructed chunker and
    the protocol registry reuse it) — treat it as read-only, or pass
    ``refresh=True`` to re-read ``terms.txt`` after editing it.
    """
    global _default_dictionary
    if _default_dictionary is None or refresh:
        text = resources.files("repro.data").joinpath("terms.txt").read_text()
        terms = [
            line.strip()
            for line in text.splitlines()
            if line.strip() and not line.startswith("#")
        ]
        _default_dictionary = TermDictionary(terms)
    return _default_dictionary
