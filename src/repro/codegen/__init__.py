"""Code generation: contexts, predicate handlers, the typed IR, backends."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".context": ("AmbiguousReference", "ContextResolver", "ResolutionError",
                 "SentenceContext", "StaticContext", "Target",
                 "UnknownReference"),
    ".emitters": ("CEmitter", "PyEmitter"),
    ".handlers": ("HandlerRegistry", "HandlerResult", "NonActionable"),
    ".interp": ("IRInterpreter",),
    ".ir": ("Backend", "Function", "FunctionNameCollision", "IRError",
            "IRValidationError", "Program", "SentenceCode", "SymbolTable",
            "backend_names", "build_function", "builder_role",
            "collect_symbols", "function_name", "get_backend",
            "run_passes", "validate_function"),
})
