"""CCG syntactic categories.

Primitive categories (S, NP, N, PP, CONJ) and complex categories built with
the two slashes: ``X/Y`` (seeks Y to the right) and ``X\\Y`` (seeks Y to the
left).  Category strings parse with left association, so ``S\\NP/NP`` reads
``(S\\NP)/NP`` — a transitive verb.
"""

from __future__ import annotations

from dataclasses import dataclass

FORWARD = "/"
BACKWARD = "\\"


class Category:
    """Base class; use :func:`parse_category` or the helpers to build."""


@dataclass(frozen=True)
class Prim(Category):
    """A primitive category such as S or NP."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Func(Category):
    """A function category ``result/arg`` or ``result\\arg``."""

    result: Category
    slash: str
    arg: Category

    def __post_init__(self) -> None:
        if self.slash not in (FORWARD, BACKWARD):
            raise ValueError(f"bad slash {self.slash!r}")

    def __str__(self) -> str:
        result = str(self.result)
        if isinstance(self.result, Func):
            result = f"({result})"
        arg = str(self.arg)
        if isinstance(self.arg, Func):
            arg = f"({arg})"
        return f"{result}{self.slash}{arg}"


# Categories are hashed on every probe of the indexed backend's per-cell
# category maps; the generated frozen-dataclass __hash__ recomputes the
# field-tuple hash each call, which is recursive for nested Func trees.
# Cache it per instance (stored outside the declared fields, so equality
# and repr are untouched).
def _cached_hash(make_key):
    def __hash__(self):
        value = self.__dict__.get("_hash_cache")
        if value is None:
            value = hash(make_key(self))
            object.__setattr__(self, "_hash_cache", value)
        return value

    return __hash__


Prim.__hash__ = _cached_hash(lambda self: (Prim, self.name))
Func.__hash__ = _cached_hash(
    lambda self: (Func, self.result, self.slash, self.arg)
)


# Value-interned small-int category ids, cached per instance.  Hot dict
# keys built from categories (per-cell indexes, dedup keys, the production
# memo) use these ints instead of the recursive structures: equal
# categories — shared objects or not — always map to the same id.
# Assignment is an atomic ``setdefault`` drawing from a counter, so two
# racing threads can never hand the same id to different categories (at
# worst a counter value is burned); ids may therefore have gaps.
_category_ids: dict[Category, int] = {}
_next_category_id = __import__("itertools").count()


def category_id(category: Category) -> int:
    """The process-wide intern id of ``category`` (equality-keyed)."""
    d = category.__dict__
    cid = d.get("_cid")
    if cid is None:
        cid = _category_ids.get(category)
        if cid is None:
            cid = _category_ids.setdefault(category, next(_next_category_id))
        d["_cid"] = cid
    return cid


S = Prim("S")
NP = Prim("NP")
N = Prim("N")
PP = Prim("PP")
CONJ = Prim("CONJ")


def forward(result: Category, arg: Category) -> Func:
    """``result/arg``: combines with ``arg`` on the right."""
    return Func(result, FORWARD, arg)


def backward(result: Category, arg: Category) -> Func:
    """``result\\arg``: combines with ``arg`` on the left."""
    return Func(result, BACKWARD, arg)


def parse_category(text: str) -> Category:
    """Parse a category string, e.g. ``"(S\\NP)/NP"``.

    Slashes associate left: ``S\\NP/NP`` means ``(S\\NP)/NP``.
    """
    tokens = _lex(text)
    category, rest = _parse_tokens(tokens)
    if rest:
        raise ValueError(f"trailing tokens in category {text!r}: {rest}")
    return category


def _lex(text: str) -> list[str]:
    tokens = []
    index = 0
    while index < len(text):
        char = text[index]
        if char.isspace():
            index += 1
        elif char in "()/\\":
            tokens.append(char)
            index += 1
        elif char.isalpha():
            start = index
            while index < len(text) and text[index].isalnum():
                index += 1
            tokens.append(text[start:index])
        else:
            raise ValueError(f"bad character {char!r} in category {text!r}")
    return tokens


def _parse_tokens(tokens: list[str]) -> tuple[Category, list[str]]:
    left, rest = _parse_atom(tokens)
    while rest and rest[0] in (FORWARD, BACKWARD):
        slash = rest[0]
        right, rest = _parse_atom(rest[1:])
        left = Func(left, slash, right)
    return left, rest


def _parse_atom(tokens: list[str]) -> tuple[Category, list[str]]:
    if not tokens:
        raise ValueError("unexpected end of category")
    head = tokens[0]
    if head == "(":
        inner, rest = _parse_tokens(tokens[1:])
        if not rest or rest[0] != ")":
            raise ValueError("unbalanced parenthesis in category")
        return inner, rest[1:]
    if head in (FORWARD, BACKWARD, ")"):
        raise ValueError(f"unexpected token {head!r} in category")
    return Prim(head), tokens[1:]
