import cmath
import math

import numpy as np
import pytest

from contourchain import (
    Chain,
    ChainCertificate,
    ContainmentCertificate,
    InvalidEpsilon,
    NearSingularity,
    ToleranceNotReached,
    circle,
    constant_path,
    contour_integral,
    integral_along_chain,
    linear_homotopy,
    parse_function,
    polyline,
    square,
)
from contourchain.expressions import Add, AnalyticFunction, Const, Mul
from conftest import ENTIRE_FUNCTIONS, random_polyline

TWO_PI_I = 2j * math.pi


def _dummy_chain(members):
    """Chain wrapper for directly-constructed member lists (tests only)."""
    cert = ContainmentCertificate(margin=0.5, net_resolution=0.01)
    return Chain(members=tuple(members), epsilon=0.5, certificate=ChainCertificate(()),
                 containment=cert, partition=np.array([0.0, 1.0]),
                 homotopy=linear_homotopy(members[0], members[-1]))


class TestResidueOracle:
    def test_polynomial_over_closed_polyline_is_zero(self):
        f = parse_function("z^3 - 2*z + 1")
        path = polyline([1 + 0j, 0.5 + 1j, -1 + 0.25j, -0.5 - 1j])
        result = contour_integral(f, path, 1e-10)
        assert abs(result.value) <= 1e-10

    def test_one_over_z_around_unit_circle(self):
        # residue oracle: the exact value is 2 pi i
        result = contour_integral(parse_function("1/z", [0j]), circle(), 1e-10)
        assert abs(result.value - TWO_PI_I) <= 1e-10
        assert result.error_estimate <= 1e-10

    def test_exp_over_z_around_unit_circle(self):
        # residue at 0 of exp(z)/z is exp(0) = 1
        result = contour_integral(parse_function("exp(z)/z", [0j]), circle(), 1e-10)
        assert abs(result.value - TWO_PI_I) <= 1e-10

    def test_shifted_pole(self):
        # residue of 1/(z - a) inside a square about a
        f = parse_function("1/(z - (0.25+0.25i))", [0.25 + 0.25j])
        result = contour_integral(f, square(2.0), 1e-10)
        assert abs(result.value - TWO_PI_I) <= 1e-9


class TestAlgebraicProperties:
    def test_linearity(self, rng):
        tol = 1e-10
        for _ in range(5):
            path = random_polyline(rng, 5)
            f = parse_function("z^2 + 1")
            g = parse_function("exp(z)")
            a, b = 2.0 - 1j, 0.5j
            combo = AnalyticFunction(Add(Mul(Const(a), f.expr), Mul(Const(b), g.expr)), ())
            lhs = contour_integral(combo, path, tol).value
            rhs = a * contour_integral(f, path, tol).value + b * contour_integral(g, path, tol).value
            assert abs(lhs - rhs) <= 2 * tol * max(1.0, abs(a) + abs(b))

    def test_orientation_reversal_negates(self, rng):
        tol = 1e-10
        f = parse_function("1/z", [0j])
        for radius in [1.0, 1.7]:
            path = circle(radius=radius)
            forward = contour_integral(f, path, tol).value
            backward = contour_integral(f, path.reverse(), tol).value
            assert abs(forward + backward) <= 2 * tol

    def test_additivity_under_vertex_split(self):
        tol = 1e-10
        f = parse_function("exp(z)")
        verts = [1 + 0j, 1j, -1 - 0.5j]
        split = [1 + 0j, 0.5 + 0.5j, 1j, -1 - 0.5j]  # extra collinear vertex
        i1 = contour_integral(f, polyline(verts), tol).value
        i2 = contour_integral(f, polyline(split), tol).value
        assert abs(i1 - i2) <= 2 * tol

    def test_closed_path_exactness_for_entire_functions(self, rng):
        # antiderivative oracle: exact integral over any closed path is 0
        tol = 1e-10
        for label, (text, antideriv) in ENTIRE_FUNCTIONS.items():
            f = parse_function(text)
            for _ in range(4):
                path = random_polyline(rng, 6)
                start = path.value(0.0)
                assert antideriv(start) - antideriv(path.value(1.0)) == 0
                assert abs(contour_integral(f, path, tol).value) <= tol, label

    def test_winding_quantization(self, rng):
        f = parse_function("1/(z - (2+2i))", [2 + 2j])
        for _ in range(8):
            path = random_polyline(rng, 5)  # stays inside |z| <= 1, far from 2+2i
            value = contour_integral(f, path, 1e-9).value / TWO_PI_I
            assert abs(value - round(value.real)) <= 1e-6


class TestGuards:
    def test_pole_on_the_path_refused(self):
        f = parse_function("1/(z - 1)", [1 + 0j])
        with pytest.raises(NearSingularity):
            contour_integral(f, circle(), 1e-8)

    def test_pole_too_close_to_path_refused(self):
        f = parse_function("1/(z - 1.0000000001)", [1.0000000001 + 0j])
        with pytest.raises(NearSingularity):
            contour_integral(f, circle(), 1e-8)

    def test_pole_clearance_accepts_moderate_gap(self):
        f = parse_function("1/(z - 1.001)", [1.001 + 0j])
        result = contour_integral(f, circle(), 1e-8)
        assert abs(result.value) <= 1e-7  # winding 0 about an outside pole

    def test_unreachable_tolerance(self):
        f = parse_function("exp(z)")
        path = polyline([0j, 1 + 1j], closed=False)
        with pytest.raises(ToleranceNotReached):
            contour_integral(f, path, 1e-300)

    def test_rounding_limited_tolerance_is_met(self):
        # near the pole the K15/G7 discrepancy bottoms out at rounding level
        # before tol 1e-12 is met piece by piece; those pieces are accepted
        # and the total error estimate still stays within tol
        f = parse_function("1/(z-0.99)", [0.99 + 0j])
        result = contour_integral(f, circle(), 1e-12)
        assert abs(result.value - TWO_PI_I) <= 1e-12
        assert result.error_estimate <= 1e-12

    def test_invalid_tolerance(self):
        with pytest.raises(InvalidEpsilon):
            contour_integral(parse_function("z"), circle(), 0.0)

    def test_only_piecewise_paths(self):
        from contourchain import ClosedPath, LipschitzModulus

        smooth_only = ClosedPath(0, 1, lambda xs: np.exp(2j * math.pi * np.asarray(xs)),
                                 LipschitzModulus(2 * math.pi))
        with pytest.raises(TypeError):
            contour_integral(parse_function("z"), smooth_only, 1e-8)


class TestChainIntegration:
    def test_two_member_chain_of_identical_circles(self):
        chain = _dummy_chain([circle(), circle()])
        out = integral_along_chain(parse_function("1/z", [0j]), chain, 1e-10)
        assert len(out.results) == 2
        assert out.max_deviation <= 2e-10
        for r in out.results:
            assert abs(r.value - TWO_PI_I) <= 1e-10

    def test_polynomial_chain_members_all_zero(self):
        chain = _dummy_chain([square(2.0), square(2.0)])
        out = integral_along_chain(parse_function("z^2"), chain, 1e-10)
        assert all(abs(r.value) <= 1e-10 for r in out.results)

    def test_constant_member_integrates_to_zero(self):
        chain = _dummy_chain([constant_path(0.5 + 0.5j)])
        out = integral_along_chain(parse_function("exp(z)"), chain, 1e-12)
        assert out.results[0].value == 0j

    def test_member_errors_carry_index(self):
        f = parse_function("1/(z - 1)", [1 + 0j])
        chain = _dummy_chain([circle(center=5 + 0j, radius=0.5), circle()])
        with pytest.raises(NearSingularity) as exc_info:
            integral_along_chain(f, chain, 1e-8)
        assert exc_info.value.member_index == 1


class TestDeterminism:
    def test_bit_identical_repeat(self):
        f = parse_function("exp(z)/z", [0j])
        r1 = contour_integral(f, circle(), 1e-12)
        r2 = contour_integral(f, circle(), 1e-12)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate
        assert r1.evaluations == r2.evaluations
