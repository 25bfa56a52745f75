"""Lazy package namespaces (PEP 562).

A package ``__init__`` names the submodule behind each public name
instead of importing it; the submodule loads on the name's first
access.  ``import repro.engine`` therefore costs one small module, and
a cold ``repro-dragonfly run`` loads only the code it executes::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".cache": ["ResultCache"],
        ".spec": ["ExperimentSpec", "point_key"],
    })

A table entry ``"Name as Alias"`` re-exports ``Name`` as ``Alias``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable, Callable, List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a module name, relative to ``package``, to the names
    the package re-exports from it; ``__all__`` lists them in table
    order.  A resolved name is stored on the package, so only its first
    access goes through ``__getattr__``.
    """
    where: Dict[str, Tuple[str, str]] = {}
    for module, names in table.items():
        for entry in names:
            attr, _, alias = entry.partition(" as ")
            where[alias or attr] = (module, attr)

    def __getattr__(name: str):
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
