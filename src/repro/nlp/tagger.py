"""A compact rule-based part-of-speech tagger.

Stands in for spaCy's tagger: closed-class words come from explicit
lexicons, verbs from a curated RFC-verb list plus morphology, and everything
else defaults to noun — the right default for technical prose, where unknown
tokens are nearly always terminology.
"""

from __future__ import annotations

DETERMINERS = {"a", "an", "the", "this", "that", "these", "those", "any",
               "some", "each", "every", "no", "its", "their", "whichever"}

PREPOSITIONS = {"of", "in", "on", "at", "to", "from", "with", "by", "for",
                "into", "over", "under", "between", "through", "during",
                "within", "without", "via", "per", "as", "starting", "about",
                "since", "regarding", "concerning", "against"}

MODALS = {"may", "must", "shall", "should", "can", "could", "will", "would",
          "might"}

AUXILIARIES = {"is", "are", "was", "were", "be", "been", "being", "has",
               "have", "had", "does", "do", "did"}

CONJUNCTIONS = {"and", "or", "but", "nor", "plus"}

SUBORDINATORS = {"if", "when", "unless", "until", "while", "because",
                 "whether", "where", "then"}

PRONOUNS = {"it", "they", "them", "itself", "which", "who", "whom", "that"}

ADVERBS = {"simply", "only", "also", "then", "not", "always", "never",
           "otherwise", "thus", "currently", "immediately", "again",
           "back", "already", "instead", "nonzero", "actually", "typically",
           "directly", "fully", "absolutely", "last"}

# Verbs that appear in RFC behavioural text, in base/3sg/past/participle
# forms.  Morphology below catches regular inflections of these.
VERB_STEMS = {
    "send", "sent", "receive", "return", "reply", "respond", "set", "clear",
    "compute", "computing", "recompute", "recomputed", "calculate", "form",
    "formed", "match", "matching", "discard", "discarded", "select",
    "selected", "use", "used", "reverse", "reversed", "change", "changed",
    "update", "updated", "increment", "decrement", "exceed", "exceeded",
    "reach", "reaches", "reached", "call", "called", "transmit", "cease",
    "maintain", "identify", "identifies", "identified", "aid", "describe",
    "contain", "contains", "insert", "inserted", "take", "taken", "append",
    "appended", "copy", "copied", "zero", "zeroed", "assume", "assumed",
    "specify", "specified", "associate", "associated", "determine", "begin",
    "begins", "start", "starts", "started", "end", "ends", "process",
    "processed", "generate", "generated", "construct", "constructed",
    "choose", "place", "placed", "echo", "echoed", "found",
    "find", "fill", "filled", "put", "examine", "examined", "deliver",
    "delivered", "forward", "forwarded", "act", "initialize", "initialized",
    "communicate", "advise", "design", "designed", "pad", "padded", "touch",
    "touched", "avoid", "notify", "queue", "queued", "reply", "replied",
    "detect", "detected", "exchange", "exchanged", "recompute", "reverse",
    "reversed", "discard", "zero", "zeroed", "reset", "recalculate",
    "transmit", "transmitted", "associate", "associated", "establish",
    "established", "report", "reported", "carry", "carries", "carried",
}

TAG_DET = "DET"
TAG_PREP = "PREP"
TAG_MODAL = "MODAL"
TAG_AUX = "AUX"
TAG_CONJ = "CONJ"
TAG_SUB = "SUB"
TAG_PRON = "PRON"
TAG_ADV = "ADV"
TAG_VERB = "VERB"
TAG_NOUN = "NOUN"
TAG_NUM = "NUM"
TAG_PUNCT = "PUNCT"
TAG_OP = "OP"


def tag_word(word: str) -> str:
    """Tag a single token's surface form."""
    lower = word.lower()
    if lower in DETERMINERS:
        return TAG_DET
    if lower in MODALS:
        return TAG_MODAL
    if lower in AUXILIARIES:
        return TAG_AUX
    if lower in CONJUNCTIONS:
        return TAG_CONJ
    if lower in SUBORDINATORS:
        return TAG_SUB
    if lower in PREPOSITIONS:
        return TAG_PREP
    if lower in PRONOUNS:
        return TAG_PRON
    if lower in ADVERBS:
        return TAG_ADV
    if lower in VERB_STEMS:
        return TAG_VERB
    if _looks_like_verb(lower):
        return TAG_VERB
    return TAG_NOUN


def _looks_like_verb(lower: str) -> bool:
    """Morphology: regular inflections of known verb stems."""
    for suffix in ("ed", "d", "es", "s", "ing"):
        if lower.endswith(suffix) and lower[: -len(suffix)] in VERB_STEMS:
            return True
    if lower.endswith("ing") and lower[:-3] + "e" in VERB_STEMS:
        return True
    return False
