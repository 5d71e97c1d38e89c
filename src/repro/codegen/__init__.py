"""Code generation: contexts, predicate handlers, the typed IR, backends."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".context": ("AmbiguousReference", "ContextResolver", "ResolutionError",
                 "SentenceContext", "StaticContext", "Target",
                 "UnknownReference"),
    ".backends": ("backend_names", "get_backend"),
    ".emitters": ("CEmitter", "PyEmitter"),
    ".errors": ("FunctionNameCollision", "IRError", "IRValidationError"),
    ".handlers": ("HandlerRegistry", "HandlerResult", "NonActionable"),
    ".interp": ("IRInterpreter",),
    ".ir": ("Backend", "Function", "Program", "SentenceCode", "SymbolTable",
            "build_function", "builder_role", "collect_symbols",
            "function_name", "run_passes", "validate_function"),
})
