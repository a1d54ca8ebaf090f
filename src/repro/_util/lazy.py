"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package ``__init__`` that re-exported its submodules' names eagerly
would import numpy and scipy for a caller who only builds a spec; with
``__getattr__ = lazy_exports(__name__, {...})`` each name's module is
imported on first access instead, and ``from pkg import name`` works as
before.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], object]:
    """A module ``__getattr__`` resolving ``name`` from module
    ``exports[name]``; the value is then bound in the package, so each
    name costs the hook once."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__
