"""Code generation: contexts, predicate handlers, the typed IR, backends."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".context": ("AmbiguousReference", "ContextResolver", "ResolutionError",
                 "SentenceContext", "StaticContext", "Target",
                 "UnknownReference"),
    ".emitters": ("CEmitter", "PyEmitter"),
    ".generator": ("CodeUnit", "SentenceCode", "assemble_message_program",
                   "builder_role", "function_name"),
    ".handlers": ("HandlerRegistry", "HandlerResult", "NonActionable"),
    ".interp": ("IRInterpreter",),
    ".ir": ("DEFAULT_PASSES", "Backend", "Function", "FunctionNameCollision",
            "IRError", "IRPass", "IRValidationError", "Program",
            "SymbolTable", "backend_names", "build_function",
            "collect_symbols", "get_backend", "register_backend",
            "run_passes", "validate_function"),
})
