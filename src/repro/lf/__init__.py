"""Logical forms: predicate registry, type system, canonical forms."""

from .graph import (
    canonical_sid,
    canonical_signature,
    flatten_associative,
    reset_canonical_memos,
)
from .logical_form import LogicalForm, SentenceLFs
from .predicates import (
    ASSOCIATIVE_PREDICATES,
    CLAUSE,
    CONCEPT,
    EXPR,
    FIELD,
    FUNCTION,
    LEFT_TO_RIGHT_PREDICATES,
    MESSAGE,
    OPERATION,
    STATEMENT_PREDICATES,
    STATEVAR,
    TRIGGER_ADJACENT_PREDICATES,
    VALUE,
    ConstantClasses,
    TypeRule,
    default_type_rules,
    rules_by_predicate,
)

__all__ = [
    "ASSOCIATIVE_PREDICATES",
    "CLAUSE",
    "CONCEPT",
    "ConstantClasses",
    "EXPR",
    "FIELD",
    "FUNCTION",
    "LEFT_TO_RIGHT_PREDICATES",
    "LogicalForm",
    "MESSAGE",
    "OPERATION",
    "STATEMENT_PREDICATES",
    "STATEVAR",
    "SentenceLFs",
    "TRIGGER_ADJACENT_PREDICATES",
    "TypeRule",
    "VALUE",
    "canonical_sid",
    "canonical_signature",
    "default_type_rules",
    "flatten_associative",
    "reset_canonical_memos",
    "rules_by_predicate",
]
