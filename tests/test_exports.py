"""Every name a module exports resolves, so ``from module import *`` works,
and the library itself reaches it, as it reaches every public method and
property of an exported class.

A stale ``__all__`` entry (a deleted class or function left in the list)
makes the star import raise ``AttributeError``; an exported name or a method
that only tests use is code to delete, or to move into the test that needs it.
"""

import ast
import functools
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import squeezelab

MODULES = sorted(f"squeezelab.{m.name}" for m in pkgutil.iter_modules(squeezelab.__path__))


def test_every_module_is_listed():
    assert {"squeezelab.ball", "squeezelab.domains", "squeezelab.squeezing"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()


# the acceptance gate's API: the gate's tests are its only callers
_GATE_API = {"norm_psi_identity", "annulus_squeeze_lower", "psi_invert"}


def _reached_names(tree) -> set:
    """Names that ``tree`` reaches outside their own definitions.

    A name is reached as an ``ast.Name``, an ``ast.Attribute``, an import
    alias, or a string equal to it: a lookup by name, as the benchmark
    tracer patches its entry points.  The strings of ``__all__`` do not count.
    """
    used = set()

    def visit(node, defining):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name.rsplit(".", 1)[-1] if isinstance(node, ast.alias)
                else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
                else None)
        if name is not None and name not in defining:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return used


@functools.cache
def _library_reached() -> frozenset:
    """The names that the library and the benchmark, test files aside, reach (``_reached_names``)."""
    root = Path(__file__).resolve().parents[1]
    reached = set()
    for path in [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]:
        if not path.name.startswith("test_"):
            reached |= _reached_names(ast.parse(path.read_text(), str(path)))
    return frozenset(reached)


def test_every_export_is_reached_outside_the_tests():
    unreached = [f"{name}.{n}" for name in MODULES for n in getattr(importlib.import_module(name), "__all__", [])
                 if n not in _library_reached() and n not in _GATE_API]
    assert unreached == []


def test_every_public_method_is_reached_outside_the_tests():
    unreached = []
    for name in MODULES:
        module = importlib.import_module(name)
        for cls in (getattr(module, n) for n in getattr(module, "__all__", [])):
            if not inspect.isclass(cls):
                continue
            unreached += [f"{name}.{cls.__name__}.{attr}" for attr, value in vars(cls).items()
                          if not attr.startswith("_") and attr not in _library_reached()
                          and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)))]
    assert unreached == []


def test_imports_write_no_bytecode(tmp_path, monkeypatch):
    # conftest turns bytecode off before squeezelab is imported, so a test
    # run leaves no cache in the package directory for a later run to read
    (tmp_path / "_bytecode_probe.py").write_text("X = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        assert importlib.import_module("_bytecode_probe").X == 1
    finally:
        sys.modules.pop("_bytecode_probe", None)
    assert not (tmp_path / "__pycache__").exists()
