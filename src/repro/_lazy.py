"""Lazy package exports (PEP 562).

A package names each public name once, in a table mapping it to the
submodule that defines it, and hands the table to :func:`export_lazily`.
The submodule is imported the first time the name is looked up on the
package, so importing the package costs only what its users touch: the
packet-trace path never loads the science modules.

Nothing is bound in the package namespace: every lookup goes to the
defining module, so patching that module shows through the package and
leaves no stale copy behind.  Submodules resolve as attributes too.
"""

import importlib


def export_lazily(namespace: dict, table: dict) -> None:
    """Install ``__getattr__`` and ``__dir__`` in a package's ``namespace``
    for the names of ``table`` (name -> submodule relative to the package)
    and append those names to the package's ``__all__``."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name in table:
            module = importlib.import_module(f"{package}.{table[name]}")
            return getattr(module, name)
        if name.isidentifier():
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list:
        return sorted({*namespace, *table})

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    namespace["__all__"] = [*namespace.get("__all__", ()), *table]
