"""Lazy package exports (PEP 562).

Every package ``__init__`` under :mod:`repro` names its public API in
one table, ``{exported name: defining module}``, and hands it to
:func:`exports`.  Importing a package then costs only the package
itself: a name's defining module is imported the first time the name
is read, and the value is cached in the package's globals, so later
reads are plain attribute lookups.  This is what keeps ``import
repro.fleet.service`` from loading the VM.

A table key must not be the name of one of the package's submodules:
importing that submodule binds its name on the package, which would
then shadow the export.
"""

from __future__ import annotations

import importlib
import sys


def exports(package: str, table: dict[str, str]):
    """Return ``(__getattr__, __dir__, __all__)`` for *package*.

    *table* maps each exported name to its defining module, written
    relative to *package* (``".codegen"``).
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(module, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__, list(table)
