"""The codegen backends: a closed table of three names.

A backend renders or executes the typed IR (:class:`~repro.codegen.ir.
Backend`): ``c`` and ``python`` emit text (:mod:`repro.codegen.emitters`),
``python`` and ``interp`` (:mod:`repro.codegen.interp`) compile callable
builders.  The table lives apart from the IR so that naming or validating
a backend (the service's ``artifacts`` check) imports neither a backend
module nor the IR.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .ir import Backend

#: Backend name → (module in this package, class), imported on first use.
BACKENDS: dict[str, tuple[str, str]] = {
    "c": ("emitters", "CEmitter"),
    "python": ("emitters", "PyEmitter"),
    "interp": ("interp", "IRInterpreter"),
}


def get_backend(name: str) -> type[Backend]:
    """The backend class called ``name``, its module imported on demand."""
    try:
        module, class_name = BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}: backends are "
            f"{', '.join(backend_names())}"
        ) from None
    return getattr(importlib.import_module(f".{module}", __package__),
                   class_name)


def backend_names() -> list[str]:
    """Every backend name, sorted; imports no backend module."""
    return sorted(BACKENDS)
