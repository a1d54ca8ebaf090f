"""Backend registry: name-based lookup and registration.

The built-in backends register on first lookup; downstream users can add their
own with :func:`register_backend` (e.g. a Dask or Ray implementation)
and the harness, CLI, and benchmarks pick them up by name.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Type

if TYPE_CHECKING:
    from repro.backends.base import Backend


_REGISTRY: Dict[str, Type[Backend]] = {}

#: The built-in backends: name -> (module, class, capabilities).  The
#: capabilities are repeated here so that sweep lowering can read them
#: without importing numpy; :func:`_ensure_builtins` refuses a row that
#: disagrees with its class.
_BUILTINS = {
    "python": ("python_backend", "PythonBackend", {"serial"}),
    "numpy": ("numpy_backend", "NumpyBackend",
              {"serial", "streaming", "parallel"}),
    "scipy": ("scipy_backend", "ScipyBackend",
              {"serial", "streaming", "parallel"}),
    "dataframe": ("dataframe_backend", "DataframeBackend",
                  {"serial", "streaming"}),
    "graphblas": ("graphblas_backend", "GraphBlasBackend",
                  {"serial", "streaming"}),
}
_builtins_loaded = False


def register_backend(cls: Type[Backend], *, replace: bool = False) -> Type[Backend]:
    """Register a backend class under ``cls.name``.

    Usable as a decorator.  Raises ``ValueError`` on duplicate names
    unless ``replace`` is set.
    """
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    if cls.name in _REGISTRY and not replace:
        raise ValueError(f"backend {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_builtins() -> None:
    """Import built-in backends lazily to avoid import cycles."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    for name, (module, class_name, capabilities) in _BUILTINS.items():
        cls = getattr(importlib.import_module(f"repro.backends.{module}"),
                      class_name)
        if cls.capabilities != capabilities:  # pragma: no cover
            raise RuntimeError(
                f"backend {name!r} declares {sorted(cls.capabilities)}, "
                f"the registry {sorted(capabilities)}")
        _REGISTRY.setdefault(name, cls)
    _builtins_loaded = True


def backend_capabilities(name: str) -> FrozenSet[str]:
    """What backend ``name`` can run (a built-in's row is read without
    importing it).  Raises ``KeyError`` like :func:`get_backend`."""
    if name in _BUILTINS and name not in _REGISTRY:
        return frozenset(_BUILTINS[name][2])
    return get_backend(name).capabilities


def available_backends() -> List[str]:
    """Sorted list of registered backend names."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def get_backend(name: str) -> Backend:
    """Instantiate a backend by name.

    Raises
    ------
    KeyError
        With the list of valid names when ``name`` is unknown.
    """
    _ensure_builtins()
    try:
        return _REGISTRY[name]()
    except KeyError:
        valid = ", ".join(available_backends())
        raise KeyError(f"unknown backend {name!r}; available: {valid}") from None
