"""PEP 562 lazy exports for the package ``__init__`` modules.

A package lists which submodule defines each public name; the submodule is
imported the first time one of its names is read.  ``import repro.api`` is
then almost free, and a CLI subcommand pays only for the modules it uses.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a relative submodule name (``".engine"``) to the
    public names it defines.  An unknown attribute that names a submodule
    imports it, as an eager ``from .sub import ...`` would have bound it.
    """
    where = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            if name.startswith("__"):
                raise AttributeError(name)
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    # A name its own submodule shares (``winnow`` in ``.winnow``) is bound
    # now: importing the submodule later would bind the module over it.
    for name, module in where.items():
        if module.rpartition(".")[2] == name:
            __getattr__(name)
    return __getattr__, __dir__, list(where)
