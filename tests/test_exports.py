"""Every name a contourchain module exports resolves and is exported by the package."""

import importlib
import inspect
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


@pytest.mark.parametrize("module, name", [
    ("contourchain", "SmoothSegment"),
    ("contourchain.paths", "SmoothSegment"),
    ("contourchain.paths", "_MAX_CLEARANCE_NET"),
])
def test_the_ellipse_needs_no_smooth_segment_or_clearance_net(module, name):
    # an ellipse is an arc, and every path's clearance has a closed form
    assert not hasattr(importlib.import_module(module), name)


def test_clearance_takes_no_required_distance():
    from contourchain.paths import certified_clearance, certified_clearances

    assert list(inspect.signature(certified_clearance).parameters) == ["path", "points"]
    assert list(inspect.signature(certified_clearances).parameters) == ["paths", "points"]
