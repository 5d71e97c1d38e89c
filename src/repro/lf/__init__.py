"""Logical forms: predicate registry, type system, canonical forms."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".graph": ("canonical_signature", "flatten_associative",
               "reset_canonical_memos"),
    ".predicates": ("ASSOCIATIVE_PREDICATES", "CLAUSE", "CONCEPT", "EXPR",
                    "FIELD", "FUNCTION", "LEFT_TO_RIGHT_PREDICATES",
                    "MESSAGE", "OPERATION", "STATEMENT_PREDICATES",
                    "STATEVAR", "TRIGGER_ADJACENT_PREDICATES", "VALUE",
                    "ConstantClasses", "TypeRule", "default_type_rules",
                    "rules_by_predicate"),
})
