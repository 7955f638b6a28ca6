"""Lazy package attributes (PEP 562).

A package ``__init__`` lists the public names that live in modules only
some commands run, and each name's module is imported on first access
instead of with the package::

    __getattr__ = lazy_attributes(__name__, {".cuda_emitter": ("emit_cuda",)})
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Tuple


def lazy_attributes(
    package: str, modules: Dict[str, Tuple[str, ...]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` serving each name in ``modules[m]`` from
    module ``m`` (a path relative to ``package``)."""
    table = {
        name: module for module, names in modules.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(module, package), name)

    return __getattr__
