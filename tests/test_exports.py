"""Every name a module exports resolves, so ``from module import *`` works.

A stale ``__all__`` entry (a deleted class or function left in the list)
makes the star import raise ``AttributeError``.
"""

import importlib
import pkgutil

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
