"""Every name a contourchain module exports resolves and is exported by the package."""

import importlib
import pkgutil

import pytest

import contourchain

MODULES = sorted(info.name for info in pkgutil.iter_modules(contourchain.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_and_reach_the_package(name):
    module = importlib.import_module(f"contourchain.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert [n for n in exported if getattr(contourchain, n, None) is not getattr(module, n)] == []
