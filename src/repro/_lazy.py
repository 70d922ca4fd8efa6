"""Package exports that resolve on first use (PEP 562).

A package ``__init__`` that imported every public name from its
submodules would load the whole package, NumPy included, before a
caller that needs one leaf module runs a line.  :func:`lazy_exports`
gives such a package a module-level ``__getattr__`` instead: the first
read of an exported name imports the module that defines it and binds
the object in the package namespace, so later reads are plain attribute
lookups and ``from package import name`` returns the very object the
defining module holds.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(names, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module (relative to ``package`` when
    it starts with a dot) to the public names it defines; ``names`` lists
    them in that order, for the package's ``__all__``.  ``__dir__`` lists
    the bound names, the exported ones and everything in ``__all__``.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner) | set(namespace.get("__all__", ())))

    return list(owner), __getattr__, __dir__
