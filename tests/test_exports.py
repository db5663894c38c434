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


@pytest.mark.parametrize("module, name", [
    ("contourchain", "ContainmentCertificate"),
    ("contourchain", "margin_certificate"),
    ("contourchain.geometry", "ContainmentCertificate"),
    ("contourchain.geometry", "margin_certificate"),
    ("contourchain.homotopy", "_halving_loop"),
    ("contourchain.homotopy", "_NET_SKIP"),
    ("contourchain.homotopy", "_NET_BUDGET"),
    ("contourchain.homotopy", "_time_partition"),
])
def test_the_chain_needs_no_containment_net(module, name):
    # each member's clearance is certified in closed form on the chain itself
    assert not hasattr(importlib.import_module(module), name)


def test_build_chain_takes_no_refinement_count():
    from contourchain.homotopy import build_chain

    assert "max_refinements" not in inspect.signature(build_chain).parameters
