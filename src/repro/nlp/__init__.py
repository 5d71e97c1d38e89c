"""NLP substrate: tokenizer, POS tagger, NP chunker, term dictionary.

Replaces the spaCy dependency of the paper's pipeline (§3): sentences are
tokenized with RFC idioms preserved, noun phrases are fused into single NP
tokens via the domain dictionary plus a rule-based tagger, and the result
feeds the CCG parser.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".chunker": ("ChunkerConfig", "NounPhraseChunker"),
    ".tagger": ("tag_word",),
    ".terms": ("TermDictionary", "load_default_dictionary"),
    ".tokenizer": ("KIND_NOUN_PHRASE", "KIND_NUMBER", "KIND_OP",
                   "KIND_PUNCT", "KIND_STATEVAR", "KIND_WORD", "Token",
                   "normalize_term", "split_sentences", "tokenize"),
})
