"""Lazy package attributes (PEP 562).

A package ``__init__`` maps each public name to the module that defines it,
relative to the package (``_EXPORTS``), and installs the pair of hooks
:func:`lazy_exports` returns.  A name's module is imported on its first
access, so importing one submodule — or the package itself — loads only
what is used, not every layer the package re-exports.
"""

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; a resolved value is cached in ``namespace``."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module_name, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
