"""Each output check accepts the program's real output and rejects a perturbed one.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contourchain import build_chain, circle, contour_integral, linear_homotopy, winding_number
from contourchain.geometry import Annulus

import workloads
from checks import (CheckFailed, Integrand, Polyline, Region, Shape, check_chain, check_integral,
                    check_vertices_in_region, check_winding, sup_distance_upper)

TOL = workloads.TOL


@pytest.fixture(scope="module")
def small_chain():
    """circle(1) -> circle(1.5) in 0.5 < |z| < 2.5, as the program builds it."""
    gamma0, gamma1 = circle(radius=1.0), circle(radius=1.5)
    chain = build_chain(linear_homotopy(gamma0, gamma1), gamma0, gamma1, Annulus(0j, 0.5, 2.5))
    interior = [Polyline(m.breakpoints, m.vertices().copy()) for m in chain.members[1:-1]]
    bounds = [e.analytic for e in chain.certificate.entries]
    return interior, bounds, Shape("circle", 0j, 1.0), Shape("circle", 0j, 1.5), \
        Region("annulus", 0j, r_out=2.5, r_in=0.5)


def _near_pole_ops(kind):
    ops = workloads.build("near_pole_integrals", 0)
    return [op for op in ops if op.family.endswith(kind)]


@pytest.mark.parametrize("kind", ["inv", "exp"])
def test_integral_check_rejects_value_off_by_20_tol(kind):
    for op in _near_pole_ops(kind)[:4]:
        result = op.run()
        op.check(result)
        shifted = type(result)(result.value + 20 * TOL, result.error_estimate, result.evaluations)
        with pytest.raises(CheckFailed):
            op.check(shifted)


def test_residue_sum_for_two_poles():
    f = Integrand("inv2", (0.1 + 0.1j, 3.0 + 0j))
    path = Shape("square", 0j, 1.0)
    value = contour_integral(workloads.parse_function(workloads._expression(f), f.poles),
                             workloads._builtin_path(path), TOL).value
    check_integral(value, f, path, TOL)
    assert math.isclose(abs(value), 2 * math.pi / abs(0.1 + 0.1j - 3.0), rel_tol=1e-12)
    with pytest.raises(CheckFailed):
        check_integral(value - 20j * TOL, f, path, TOL)


def test_winding_check_rejects_wrong_number():
    path = Shape("ellipse", 0.1j, 1.6, 1.0)
    for point in (0.3 + 0.2j, 1.9 + 0j):
        w = winding_number(workloads._builtin_path(path), point, TOL)
        check_winding(w, path, point)
        with pytest.raises(CheckFailed):
            check_winding(1 - w, path, point)


def test_chain_check_accepts_program_chain(small_chain):
    check_chain(*small_chain)


def test_chain_check_rejects_vertex_moved_past_its_bound(small_chain):
    interior, bounds, gamma0, gamma1, region = small_chain
    k = len(interior) // 2
    verts = interior[k].verts.copy()
    verts[7] += 1.5 * max(bounds[k], bounds[k + 1])
    moved = interior[:k] + [Polyline(interior[k].breaks, verts)] + interior[k + 1:]
    with pytest.raises(CheckFailed, match="exceeds the certified bound"):
        check_chain(moved, bounds, gamma0, gamma1, region)


def test_chain_check_rejects_vertex_outside_domain(small_chain):
    interior, bounds, gamma0, gamma1, region = small_chain
    verts = interior[0].verts.copy()
    verts[3] = 0.2  # inside the hole
    with pytest.raises(CheckFailed, match="outside the domain"):
        check_vertices_in_region(Polyline(interior[0].breaks, verts), region, 1)


def test_chain_check_rejects_a_missing_bound(small_chain):
    interior, bounds, gamma0, gamma1, region = small_chain
    with pytest.raises(CheckFailed, match="certified bounds for"):
        check_chain(interior, bounds[:-1], gamma0, gamma1, region)
    with pytest.raises(CheckFailed, match="certified bounds for"):
        check_chain(interior, bounds + [bounds[-1]], gamma0, gamma1, region)


def test_polyline_bound_is_exact_and_curve_bound_is_upper():
    rng = np.random.default_rng(7)
    p = Polyline(np.array([0, 0.3, 0.55, 1.0]), rng.normal(size=4) + 1j * rng.normal(size=4))
    q = Polyline(np.array([0, 0.1, 0.7, 1.0]), rng.normal(size=4) + 1j * rng.normal(size=4))
    xs = np.linspace(0, 1, 200_001)
    dense = np.abs(p.at(xs) - q.at(xs)).max()
    exact = sup_distance_upper(p, q)
    assert dense <= exact + 1e-12 and exact - dense < 1e-4
    curve = Shape("circle", 0j, 1.0).as_member()
    dense = np.abs(curve.at(xs) - p.at(xs)).max()
    assert dense <= sup_distance_upper(curve, p)


@pytest.mark.parametrize("workload", ["annulus_verify", "tight_chain", "near_pole_integrals"])
def test_same_seed_same_inputs(workload):
    def inputs(seed):
        return [op.inputs for op in workloads.build(workload, seed)]
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)
