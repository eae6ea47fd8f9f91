"""Package exports that resolve on first use (PEP 562).

Each package ``__init__`` in :mod:`repro` names its public surface in one
table, ``{exported name: module that defines it}``, and builds its
``__all__``, ``__getattr__`` and ``__dir__`` from that table with
:func:`lazy_exports`.  A name's module is imported the first time the name
is read, so ``import repro.core.hashcore`` loads the hash path's own
imports and not every sibling module a package re-exports: a miner, node
or pool process never loads the chaos simulator, the ASIC model or the
baseline PoW functions.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, str]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for one package.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    exported name, in ``__all__`` order, to its defining module, relative
    to the package.  A resolved name is stored in ``namespace``, so every
    later read is a plain attribute lookup.  An unknown name raises
    ``AttributeError``, which is what ``hasattr`` and
    ``from package import submodule`` rely on.

    A name that equals its own submodule (``repro.core.hash_gate``) is
    bound at once: importing that submodule later would otherwise leave
    the package attribute pointing at the module instead of the name.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    for name, module in table.items():
        if module == "." + name:
            __getattr__(name)
    return list(table), __getattr__, __dir__
