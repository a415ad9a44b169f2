"""The lazy package exports of ``repro``, ``repro.core`` and ``repro.traffic``.

Each package names its public names once, in a table read by
``repro._lazy.export_lazily``; a name's module is imported on first
lookup and never bound in the package.  These tests pin the packages'
contract: every name resolves to its defining module's object,
submodules resolve as attributes, ``dir()`` and ``import *`` see every
name, and a patch of the defining module shows through the package.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.errors
import repro.traffic
import repro.traffic.fgn

PACKAGES = ("repro", "repro.core", "repro.traffic")
SRC = Path(repro.__file__).resolve().parent.parent


def _submodules(package: str) -> list[str]:
    return sorted(m.name for m in pkgutil.iter_modules(
        importlib.import_module(package).__path__
    ))


@pytest.mark.parametrize("package", PACKAGES)
class TestExports:
    def test_every_name_resolves_to_its_defining_module(self, package):
        pkg = importlib.import_module(package)
        assert len(pkg.__all__) == len(set(pkg.__all__))
        for name in pkg.__all__:
            value = getattr(pkg, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                home = importlib.import_module(value.__module__)
                assert value.__module__.startswith(f"{package}.")
                assert getattr(home, name) is value, name
            else:
                # A constant: bound under its name in the package's modules.
                homes = [
                    module for module in sys.modules.values()
                    if getattr(module, "__name__", "").startswith(f"{package}.")
                    and vars(module).get(name) is value
                ]
                assert homes or name == "__version__", name
            assert name in dir(pkg), name

    @pytest.mark.parametrize("name", ["no_such_name", ".", "core.bss"])
    def test_unknown_name_raises_attribute_error(self, package, name):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="has no attribute"):
            getattr(pkg, name)
        assert not hasattr(pkg, name)

    def test_no_export_is_named_like_a_submodule(self, package):
        """Importing such a submodule would rebind the name to the module."""
        pkg = importlib.import_module(package)
        assert not set(pkg.__all__) & set(_submodules(package))

    def test_lookups_bind_nothing_in_the_package(self, package):
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            getattr(pkg, name)
        # Only ``repro`` binds names at import: its version and errors.
        eager = {"__version__", *vars(repro.errors)} if package == "repro" else set()
        assert set(vars(pkg)) & set(pkg.__all__) <= eager

    def test_submodules_resolve_as_attributes(self, package, monkeypatch):
        pkg = importlib.import_module(package)
        for sub in _submodules(package):
            module = importlib.import_module(f"{package}.{sub}")
            # Drop the binding the import system made, so the lookup goes
            # through the package's __getattr__.
            monkeypatch.delitem(vars(pkg), sub, raising=False)
            assert getattr(pkg, sub) is module


def test_submodules_resolve_in_a_fresh_interpreter():
    """``repro.core.bss`` resolves after a bare ``import repro.core``, and
    ``from repro.core import bss`` works."""
    code = (
        "import importlib, json, pkgutil, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from repro.core import bss\n"
        "assert bss is sys.modules['repro.core.bss']\n"
        "out = {}\n"
        "for package in sys.argv[2:]:\n"
        "    pkg = importlib.import_module(package)\n"
        "    for m in pkgutil.iter_modules(pkg.__path__):\n"
        "        full = f'{package}.{m.name}'\n"
        "        out[full] = getattr(pkg, m.name) is sys.modules[full]\n"
        "print(json.dumps(out))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(SRC), *PACKAGES],
        check=True, capture_output=True, text=True,
    )
    resolved = json.loads(result.stdout)
    assert {"repro.core.bss", "repro.traffic.fgn", "repro.hurst"} <= set(resolved)
    assert all(resolved.values()), resolved


def test_star_import_sees_every_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    bss = repro.core.bss
    assert namespace["BiasedSystematicSampler"] is bss.BiasedSystematicSampler


def test_patch_of_the_defining_module_shows_through(monkeypatch):
    original = repro.traffic.fgn.fgn_davies_harte

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(repro.traffic.fgn, "fgn_davies_harte", patched)
        assert repro.traffic.fgn_davies_harte is patched
        assert repro.fgn_davies_harte is patched
    assert repro.traffic.fgn_davies_harte is original
    assert repro.fgn_davies_harte is original
    assert "fgn_davies_harte" not in vars(repro.traffic)
    assert "fgn_davies_harte" not in vars(repro)
