"""The parser backends: a closed table of two names.

A *parser backend* turns a chunked token stream into a
:class:`~repro.ccg.chart.ParseResult`: ``parse(tokens)``, a ``lexicon``
attribute, and a class-level ``name`` that becomes part of every
parse-cache key built over it (two backends never share cache entries).
There are exactly two:

* ``reference`` — the plain CKY chart (:class:`~repro.ccg.chart.
  CCGChartParser`), the fixed point the other backend must match;
* ``indexed`` — the category-indexed packed-forest parser
  (:class:`~repro.parsing.indexed.IndexedChartParser`), the default.

:func:`create_parser` imports a backend's module only when it builds one,
so naming a backend (registry, run keys) loads no parser.  Parity between
them — identical grounded-LF sets, statuses, and generated code on every
bundled corpus in both pipeline modes — is locked by
``tests/test_parsing.py`` and gated in ``benchmarks/pipeline_smoke.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..ccg.chart import CCGChartParser
    from ..ccg.lexicon import Lexicon

#: The backend the pipeline uses when nothing selects one explicitly.
DEFAULT_PARSER_BACKEND = "indexed"

#: The backend used as the parity baseline.
REFERENCE_PARSER_BACKEND = "reference"

#: Every parser backend name.
PARSER_BACKENDS = (REFERENCE_PARSER_BACKEND, DEFAULT_PARSER_BACKEND)


def create_parser(name: str, lexicon: Lexicon) -> CCGChartParser:
    """A new parser of backend ``name`` over ``lexicon``; KeyError for a
    name outside :data:`PARSER_BACKENDS`."""
    if name == REFERENCE_PARSER_BACKEND:
        from ..ccg.chart import CCGChartParser

        return CCGChartParser(lexicon)
    if name == DEFAULT_PARSER_BACKEND:
        from .indexed import IndexedChartParser

        return IndexedChartParser(lexicon)
    raise KeyError(f"unknown parser backend {name!r}: backends are "
                   f"{', '.join(PARSER_BACKENDS)}")
