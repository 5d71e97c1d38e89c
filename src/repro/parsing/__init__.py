"""repro.parsing — the pluggable parsing subsystem.

The paper's front end (§4.1, CCG parsing of RFC sentences into logical
forms) as a first-class subsystem: a :class:`ParserBackend` protocol with
two registered implementations — the ``reference`` CKY chart and the
``indexed`` packed-forest parser — whose corpus-wide parity is locked in
tests and gated in CI.  See DESIGN.md §8, and §10 for the agenda-driven
hot path, the cross-sentence span memo, and the :mod:`.profile` counters.
"""

from .backend import (
    DEFAULT_PARSER_BACKEND,
    REFERENCE_PARSER_BACKEND,
    ParserBackend,
    UnknownParserBackendError,
    backend_id,
    create_parser,
    parser_backend_names,
    register_parser_backend,
)
from .forest import PackedItem, ParseForest, PruneBudget
from .indexed import IndexedChartParser, reset_parser_state, reset_span_memo
from .profile import PROFILE
from .values import normalize_batch

__all__ = [
    "DEFAULT_PARSER_BACKEND",
    "REFERENCE_PARSER_BACKEND",
    "ParserBackend",
    "UnknownParserBackendError",
    "backend_id",
    "create_parser",
    "parser_backend_names",
    "register_parser_backend",
    "PackedItem",
    "ParseForest",
    "PruneBudget",
    "IndexedChartParser",
    "reset_parser_state",
    "reset_span_memo",
    "PROFILE",
    "normalize_batch",
]
