"""Lazy package exports (PEP 562).

A package names the module that defines each of its public names; the
module is imported the first time one of its names is read.  A process
then imports only the modules it uses: a batch run never loads the
strict-mode auditor, the failure injector or the figure code.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for *package*, from a table that maps
    each module, relative to *package* (``".config"``), to the names it
    exports.

    The first read of a name imports its module and binds the name in
    the package, so later reads skip ``__getattr__``.
    """
    origin = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__
