"""Runtime for SAGE-generated code: compilation, execution, integration."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".harness": ("ExecutionContext", "GeneratedICMP", "GeneratedIGMP",
                 "GeneratedImplementation", "IGMPExecutionContext",
                 "compile_unit", "generated_implementation"),
    ".state_runtime": ("BFDExecutionContext", "GeneratedBFD", "GeneratedNTP",
                       "NTPExecutionContext", "StateValue"),
})
