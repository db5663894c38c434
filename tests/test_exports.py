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


@pytest.mark.parametrize("name", ["_check_endpoint_slices", "_ENDPOINT_TOL", "_blend"])
def test_the_chain_ends_are_the_homotopys_own(name):
    # no foreign end is compared with the homotopy's, and the blend formula
    # lives in Homotopy.rows alone
    homotopy = importlib.import_module("contourchain.homotopy")
    assert not hasattr(homotopy, name)
    assert not hasattr(homotopy.Homotopy, "grid_values")


def test_build_chain_takes_no_refinement_count():
    from contourchain.homotopy import build_chain

    assert "max_refinements" not in inspect.signature(build_chain).parameters


@pytest.mark.parametrize("module, name", [
    ("contourchain", "NonIntegerWinding"),
    ("contourchain.errors", "NonIntegerWinding"),
    ("contourchain.verify", "_WINDING_CLEARANCE"),
    ("contourchain.cli", "cmd_carrier"),
    ("contourchain.cli", "carrier_csv"),
])
def test_windings_are_counted_and_the_carrier_command_is_gone(module, name):
    # a winding number is an exact count on a certified polyline, with no
    # integral to round, and no command samples an eta-net
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module, name", [
    ("contourchain", "reparametrize_to_unit"),
    ("contourchain.paths", "reparametrize_to_unit"),
    ("contourchain", "MismatchedDomains"),
    ("contourchain.errors", "MismatchedDomains"),
])
def test_every_path_lives_on_the_unit_interval(module, name):
    # no path is on another interval, so none needs moving onto [0, 1] and
    # no two can disagree on theirs
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("name", ["circle", "ellipse", "polyline", "square", "constant_path"])
def test_no_path_builder_takes_an_interval(name):
    from contourchain import paths

    assert "interval" not in inspect.signature(getattr(paths, name)).parameters


def test_paths_have_no_interval_attributes():
    from contourchain.paths import PiecewisePath

    assert [n for n in ("a", "b", "interval") if hasattr(PiecewisePath, n)] == []


@pytest.mark.parametrize("module, name", [
    ("contourchain.paths", "_line_clearances"),
    ("contourchain.paths", "_less_rounding"),
    ("contourchain.integrate", "_line_clearances"),
])
def test_one_routine_measures_every_polyline_clearance(module, name):
    # chain members, quadrature members and winding paths are all measured
    # by geometry.polyline_clearances
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("owner, name", [
    ("contourchain.integrate", "_Lines"),
    ("contourchain.integrate", "_graded_points"),
    ("contourchain.paths", "_arc_arrays"),
])
def test_members_are_two_segment_tables(owner, name):
    # a member's segments are rows of the line and arc tables, evaluated,
    # graded and measured per table, so no per-path field table or row view
    # is left
    assert not hasattr(importlib.import_module(owner), name)


def test_a_member_is_never_made_a_path():
    from contourchain.paths import _Members

    assert not hasattr(_Members, "path")
    assert not hasattr(_Members, "lines")


@pytest.mark.parametrize("name", ["LineSegment", "ArcSegment"])
@pytest.mark.parametrize("attr", ["reversed_onto", "derivative_bound", "second_derivative_bound",
                                  "sweep_rate"])
def test_a_path_is_built_and_reversed_from_its_tables(name, attr):
    # PiecewisePath.reverse reverses the tables, and the bounds have one
    # formula per kind, on the tables: no segment object reverses itself
    # or bounds its own derivatives
    assert not hasattr(getattr(importlib.import_module("contourchain.paths"), name), attr)
