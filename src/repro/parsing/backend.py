"""The parser-backend protocol and its registry.

A *parser backend* is anything that turns a chunked token stream into a
:class:`~repro.ccg.chart.ParseResult`: ``parse(tokens)``, a ``lexicon``
attribute, and a stable ``name`` string that becomes part of every
parse-cache key built over it (two backends never share cache entries).

Backends register by name; the pipeline resolves them through
:func:`create_parser` (directly or via
``ProtocolRegistry.parser(backend=...)``), so adding a backend is one
``register_parser_backend`` call — no edits across layers.  The bundled
backends:

* ``reference`` — the plain CKY chart (:class:`~repro.ccg.chart.
  CCGChartParser`), the fixed point every other backend must match;
* ``indexed`` — the category-indexed packed-forest parser
  (:class:`~repro.parsing.indexed.IndexedChartParser`), the default.

Parity between them — identical grounded-LF sets, statuses, and generated
code on every bundled corpus in both pipeline modes — is locked by
``tests/test_parsing.py`` and gated in ``benchmarks/pipeline_smoke.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:
    from ..ccg.chart import ParseResult
    from ..ccg.lexicon import Lexicon
    from ..nlp.tokenizer import Token

#: The backend the pipeline uses when nothing selects one explicitly.
DEFAULT_PARSER_BACKEND = "indexed"

#: The backend used as the parity baseline.
REFERENCE_PARSER_BACKEND = "reference"


@runtime_checkable
class ParserBackend(Protocol):
    """What every parser backend provides (structural protocol)."""

    name: str
    lexicon: Lexicon

    def parse(self, tokens: list[Token]) -> ParseResult:
        """Parse one chunked token stream into grounded logical forms."""
        ...


class UnknownParserBackendError(KeyError):
    """Lookup of a parser backend that was never registered."""

    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = known
        super().__init__(
            f"unknown parser backend {name!r}: registered backends are "
            f"{', '.join(known) or '(none)'}"
        )

    def __str__(self) -> str:  # KeyError.__str__ repr()s the message
        return self.args[0]


_BACKENDS: dict[str, Callable[..., ParserBackend]] = {}


def register_parser_backend(name: str, factory: Callable[..., ParserBackend],
                            replace: bool = False) -> None:
    """Register ``factory`` (``factory(lexicon, **kwargs) → backend``).

    Re-registering an existing name requires ``replace=True``.
    """
    if name in _BACKENDS and not replace:
        raise ValueError(
            f"parser backend {name!r} is already registered; "
            "pass replace=True to override"
        )
    _BACKENDS[name] = factory


def parser_backend_names() -> list[str]:
    """Every registered backend name, registration order."""
    return list(_BACKENDS)


def create_parser(name: str | None, lexicon: Lexicon, **kwargs) -> ParserBackend:
    """Instantiate the backend ``name`` (None → the default) over ``lexicon``."""
    backend = name or DEFAULT_PARSER_BACKEND
    try:
        factory = _BACKENDS[backend]
    except KeyError:
        raise UnknownParserBackendError(backend, parser_backend_names()) from None
    return factory(lexicon, **kwargs)


def backend_id(parser) -> str:
    """The cache-key identity of a parser instance.

    An instance-level ``name`` wins, then a ``name`` the parser's *own*
    class defines; anything else — including a subclass that overrides
    ``parse`` but forgot to claim a name, which would otherwise inherit
    its base backend's — identifies by class name, so ad-hoc parsers
    never collide with the bundled backends' cache entries.
    """
    instance_name = parser.__dict__.get("name") if hasattr(parser, "__dict__") else None
    if instance_name:
        return instance_name
    cls = type(parser)
    own_name = cls.__dict__.get("name")
    if own_name:
        return own_name
    return cls.__name__


def _reference(lexicon: Lexicon, **kwargs) -> ParserBackend:
    from ..ccg.chart import CCGChartParser

    return CCGChartParser(lexicon, **kwargs)


def _indexed(lexicon: Lexicon, **kwargs) -> ParserBackend:
    from .indexed import IndexedChartParser

    return IndexedChartParser(lexicon, **kwargs)


# The bundled backends import their parser on first construction, so
# naming the default backend (registry, run keys) loads no parser.
register_parser_backend(REFERENCE_PARSER_BACKEND, _reference)
register_parser_backend(DEFAULT_PARSER_BACKEND, _indexed)
