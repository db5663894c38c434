import math
from fractions import Fraction

import numpy as np
import pytest

from contourchain import (
    Annulus,
    ArcSegment,
    ContainmentNotCertified,
    Disk,
    LineSegment,
    NearSingularity,
    PiecewisePath,
    PuncturedPlane,
    build_chain,
    certified_clearance,
    circle,
    constant_path,
    contour_integral,
    ellipse,
    linear_homotopy,
    parse_function,
    polyline,
    square,
    star_null_homotopy,
    verify_homotopy_invariance,
    winding_number,
)
from conftest import ENTIRE_FUNCTIONS, random_polyline

TWO_PI_I = 2j * math.pi
ANNULUS = Annulus(0j, 0.25, 3.0)
ONE_OVER_Z = parse_function("1/z", [0j])


class TestHomotopyInvariance:
    def test_concentric_circles(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        report = verify_homotopy_invariance(ONE_OVER_Z, g0, g1, linear_homotopy(g0, g1),
                                            ANNULUS, 1e-9)
        assert report.passed
        assert abs(report.integrals[0].value - TWO_PI_I) <= 1e-9
        assert abs(report.integrals[-1].value - TWO_PI_I) <= 1e-9
        assert report.max_deviation <= report.threshold == 1e-8

    def test_trivial_homotopy(self):
        g = circle()
        report = verify_homotopy_invariance(ONE_OVER_Z, g, g, linear_homotopy(g, g),
                                            ANNULUS, 1e-9)
        assert report.passed
        assert report.max_deviation <= 2e-9

    def test_circle_to_ellipse(self):
        # blend (1+t) cos x + i sin x never vanishes, so it stays in the annulus
        g0, g1 = circle(), ellipse(2.0, 1.0)
        report = verify_homotopy_invariance(ONE_OVER_Z, g0, g1, linear_homotopy(g0, g1),
                                            ANNULUS, 1e-9)
        assert report.passed
        for r in (report.integrals[0], report.integrals[-1]):
            assert abs(r.value - TWO_PI_I) <= 1e-9

    def test_report_dict_shape(self):
        g = circle()
        report = verify_homotopy_invariance(ONE_OVER_Z, g, g, linear_homotopy(g, g),
                                            ANNULUS, 1e-9)
        d = report.to_dict()
        for key in ("verdict", "deviation", "epsilon", "margin", "members", "integrals"):
            assert key in d
        assert d["verdict"] == "pass"
        assert len(d["integrals"]) == d["members"]
        assert d["members"] == len(d["certificate"]) + 1
        assert "PASS" in report.format_text()


    def test_declared_pole_inside_the_domain_refused_before_the_chain(self, monkeypatch):
        from contourchain import verify

        def no_chain(*args, **kwargs):
            raise AssertionError("the chain was built")

        monkeypatch.setattr(verify, "build_chain", no_chain)
        g0, g1 = circle(radius=1.0), circle(radius=2.0)
        f = parse_function("1/(z-(1.5+0.01i))", [1.5 + 0.01j])
        with pytest.raises(NearSingularity, match=r"\(1.5\+0.01j\) lies inside the domain"):
            verify_homotopy_invariance(f, g0, g1, linear_homotopy(g0, g1), Disk(0j, 3.0), 1e-9)
        # the whole plane holds every point
        with pytest.raises(NearSingularity, match="complement distance inf"):
            verify_homotopy_invariance(f, g0, g1, linear_homotopy(g0, g1), PuncturedPlane(()),
                                       1e-9)

    def test_a_pole_past_the_float_range_from_the_domain_is_outside_it(self):
        # |p - c| overflows for the pole -1e308 and a disk about 1e308: its
        # complement distance is -inf, outside, with no overflow warning (an
        # error under the test settings), and the chain refuses on its own
        gamma = circle(1e308, 1.0)
        sigma = star_null_homotopy(gamma, 1e308)
        f = parse_function("1/(z+1e308)", [-1e308])
        with pytest.raises(ContainmentNotCertified, match="sweeps outside the domain"):
            verify_homotopy_invariance(f, sigma.gamma0, sigma.gamma1, sigma, Disk(1e308, 2.0),
                                       1e-9)


def verify_null_homotopic(f, gamma, center, domain, tol):
    """Contract gamma onto the center and verify along the star homotopy."""
    sigma = star_null_homotopy(gamma, center)
    return verify_homotopy_invariance(f, sigma.gamma0, sigma.gamma1, sigma, domain, tol)


class TestNullHomotopic:
    def test_square_exp_in_disk(self):
        report = verify_null_homotopic(parse_function("exp(z)"), square(2.0), 0j,
                                       Disk(0j, 2.0), 1e-9)
        assert report.passed
        assert report.kind == "null-homotopy"
        assert report.null_integral_abs <= 1e-8

    def test_polynomial_polyline(self, rng):
        path = random_polyline(rng, 6)
        report = verify_null_homotopic(parse_function("z^2"), path, 0j, Disk(0j, 2.0), 1e-9)
        assert report.passed

    def test_refuses_contraction_through_pole(self):
        with pytest.raises(ContainmentNotCertified):
            verify_null_homotopic(ONE_OVER_Z, circle(), 0j, PuncturedPlane((0j,)), 1e-9)

    def test_entire_function_oracle_agreement(self, rng):
        for label, (text, antideriv) in ENTIRE_FUNCTIONS.items():
            path = random_polyline(rng, 5)
            report = verify_null_homotopic(parse_function(text), path, 0j, Disk(0j, 2.0), 1e-9)
            assert report.passed, label
            # the antiderivative oracle gives exactly zero around a closed path
            assert antideriv(path.value(0.0)) - antideriv(path.value(1.0)) == 0

    @pytest.mark.parametrize("text, tol", [("exp(z)", 1e-9), ("1/(z - 3)", 1e-13),
                                           ("z^3 - z", 1e-14)])
    def test_deviation_decides_and_bounds_the_null_integral(self, text, tol):
        # the constant end integrates to exactly 0, so the deviation is at
        # least |integral over gamma0| and decides the verdict alone
        poles = [3 + 0j] if "z - 3" in text else []
        report = verify_null_homotopic(parse_function(text, poles), square(2.0, 0.1j), 0.1j,
                                       Disk(0j, 2.0), tol)
        assert report.integrals[-1].value == 0
        assert report.max_deviation >= report.null_integral_abs
        assert report.passed == (report.max_deviation <= report.threshold)

    def test_linear_blend_onto_a_point_is_a_null_homotopy(self):
        g0, point = circle(0.1j), constant_path(0.1j)
        report = verify_homotopy_invariance(parse_function("exp(z)"), g0, point,
                                            linear_homotopy(g0, point), Disk(0j, 2.0), 1e-9)
        assert report.kind == "null-homotopy" and report.passed
        assert report.null_integral_abs == abs(report.integrals[0].value)
        assert report.to_dict()["null_integral_abs"] == report.null_integral_abs


class TestWindingNumber:
    def test_unit_circle_about_origin(self):
        assert winding_number(circle(), 0j, 1e-9) == 1

    def test_unit_circle_about_outside_point(self):
        # Cauchy's theorem on a disk avoiding the circle: integral is 0
        assert winding_number(circle(), 3 + 0j, 1e-9) == 0

    def test_reversed_circle(self):
        assert winding_number(circle().reverse(), 0j, 1e-9) == -1

    def test_square_and_polyline(self, rng):
        assert winding_number(square(2.0), 0j, 1e-9) == 1
        assert winding_number(random_polyline(rng, 7), 0j, 1e-9) == 1

    def test_point_on_carrier_rejected(self):
        with pytest.raises(NearSingularity):
            winding_number(circle(), 1 + 0j, 1e-9)

    def test_point_near_the_path(self):
        # 0.04 from the circle: a polyline within 0.04/3 of it winds alike
        assert winding_number(circle(), 0.96, 1e-9) == 1

    def test_point_on_carrier_between_samples_rejected(self):
        with pytest.raises(NearSingularity):
            winding_number(circle(), complex(math.cos(0.123456), math.sin(0.123456)), 1e-9)

    def test_point_near_a_side_certified_in_closed_form(self):
        # 1e-5 from the top side: the side's clearance is exact up to
        # rounding, and the square is its own polyline
        assert winding_number(square(2.0), 0.3 + (1 - 1e-5) * 1j, 1e-9) == 1

    def test_only_piecewise_paths(self):
        # a bare evaluator of the unit circle is not a path
        def not_a_path(xs):
            return np.exp(2j * math.pi * np.asarray(xs))

        with pytest.raises(TypeError):
            winding_number(not_a_path, 0j, 1e-9)

    def test_open_path_rejected(self):
        with pytest.raises(ValueError):
            winding_number(polyline([0j, 1 + 0j], closed=False), 5j, 1e-9)

    def test_clearance_certified_once(self, monkeypatch):
        from contourchain import paths

        checked = []
        clearances = paths._Members.clearances

        def counted(members, points):
            if len(points):
                checked.append(list(points))
            return clearances(members, points)

        # every clearance from points, of one path or of many, is measured here
        monkeypatch.setattr(paths._Members, "clearances", counted)
        assert winding_number(ellipse(1.6, 1.0), 1.8, 1e-9) == 0
        assert checked == [[1.8]]

    def test_winding_constant_along_chain(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        step = max(1, len(chain.members) // 13)
        for member in chain.members[::step]:
            assert winding_number(member, 0j, 1e-9) == 1

    def test_quantization_before_rounding(self):
        probe = parse_function("1/z", [0j])
        for member in [circle(), square(2.0), ellipse(1.5, 0.75)]:
            value = contour_integral(probe, member, 1e-9).value / TWO_PI_I
            assert abs(value - 1.0) <= 1e-6


def _exact(z: complex) -> tuple[Fraction, Fraction]:
    return Fraction(z.real), Fraction(z.imag)


def crossing_count(vertices, a: complex) -> int:
    """Winding number of the closed polygon about ``a`` off it, by signed
    crossings of the rightward ray from ``a``, in exact rational arithmetic."""
    ax, ay = _exact(a)
    count = 0
    for p, q in zip(vertices, [*vertices[1:], vertices[0]]):
        (px, py), (qx, qy) = _exact(p), _exact(q)
        left = (qx - px) * (ay - py) - (ax - px) * (qy - py)  # > 0: a left of p -> q
        if py <= ay < qy and left > 0:
            count += 1
        elif qy <= ay < py and left < 0:
            count -= 1
    return count


def inside_ellipse(a: complex, semi_re: float, semi_im: float, center: complex = 0j) -> bool:
    """Whether ``a`` lies strictly inside the ellipse, exactly (a circle has
    equal semi-axes)."""
    (x, y), (cx, cy) = _exact(a), _exact(center)
    sr, si = Fraction(semi_re), Fraction(semi_im)
    return si ** 2 * (x - cx) ** 2 + sr ** 2 * (y - cy) ** 2 < sr ** 2 * si ** 2


def quadrature_winding(path, a: complex) -> int:
    """The winding number as the integral of dz/(z - a) over 2 pi i, rounded."""
    probe = parse_function(f"1/(z-({a.real!r}{a.imag:+}i))", [a])
    turns = contour_integral(probe, path, 1e-9).value / TWO_PI_I
    assert abs(turns - round(turns.real)) <= 1e-6
    return round(turns.real)


def _random_point(rng, reach: float) -> complex:
    return complex(rng.uniform(-reach, reach), rng.uniform(-reach, reach))


class TestExactWinding:
    def test_agrees_with_the_quadrature(self, rng):
        paths = [random_polyline(rng, 7), random_polyline(rng, 4, 2.0, 0.5j), circle(0.2, 1.3),
                 ellipse(1.7, 0.6, -0.3j), square(1.5, 0.1 + 0.1j)]
        paths += [p.reverse() for p in paths]
        checked = 0
        for path in paths:
            for _ in range(12):
                a = _random_point(rng, 2.5)
                if certified_clearance(path, [a]) > 1e-6:
                    assert winding_number(path, a) == quadrature_winding(path, a), (path, a)
                    checked += 1
        assert checked >= 100

    def test_agrees_with_the_quadrature_near_the_path(self, rng):
        # the quadrature itself may stop converging to 1e-9 a few 1e-4 from
        # the path, so the reference is taken only farther out
        checked = 0
        for path in [circle(), ellipse(1.6, 1.0), random_polyline(rng, 6)]:
            for x in rng.sample(range(1000), 4):
                z = path.value(x / 1000)
                for offset in (3e-2, -3e-2, 5e-3, -5e-3):
                    a = z * (1 + offset)
                    if certified_clearance(path, [a]) > 1e-3:
                        assert winding_number(path, a) == quadrature_winding(path, a), (path, a)
                        checked += 1
        assert checked >= 30

    def test_points_at_1e_12_from_a_polyline(self, rng):
        for _ in range(3):
            path = random_polyline(rng, 6)
            verts = path.vertices()[:-1]
            for u, v, w in zip(np.roll(verts, 1), verts, np.roll(verts, -1)):
                # along the bisector of the corner at v, in and out, and
                # along the normal of the side from v to w
                bisector = (u - v) / abs(u - v) + (w - v) / abs(w - v)
                bisector /= abs(bisector)
                normal = 1j * (w - v) / abs(w - v)
                foot = v + rng.uniform(0.2, 0.8) * (w - v)
                near = [v + 1e-12 * bisector, v - 1e-12 * bisector,
                        foot + 1e-12 * normal, foot - 1e-12 * normal]
                for a in near:
                    assert winding_number(path, a) == crossing_count(verts, a), (verts, a)
                    assert winding_number(path.reverse(), a) == -crossing_count(verts, a)

    def test_points_at_1e_9_from_a_circle_and_an_ellipse(self, rng):
        for path, semi_re, semi_im, center in [(circle(0.3 - 0.1j, 1.2), 1.2, 1.2, 0.3 - 0.1j),
                                               (ellipse(1.6, 0.7, 0.2j), 1.6, 0.7, 0.2j)]:
            for side in (1.0, -1.0):
                theta = 2 * math.pi * rng.random()
                foot = center + complex(semi_re * math.cos(theta), semi_im * math.sin(theta))
                normal = complex(semi_im * math.cos(theta), semi_re * math.sin(theta))
                a = foot + side * 1e-9 * normal / abs(normal)
                assert winding_number(path, a) == inside_ellipse(a, semi_re, semi_im, center)

    def test_point_between_an_arc_and_its_chord(self):
        # a shallow circular segment: its chord alone would leave 0.985 outside
        arc = ArcSegment(0j, 1.0, -math.pi / 12, math.pi / 12, 0.0, 0.5)
        chord = LineSegment(arc.end_value, arc.start_value, 0.5, 1.0)
        path = PiecewisePath([arc, chord], closed=True)
        assert math.cos(math.pi / 12) < 0.985
        assert winding_number(path, 0.985 + 0.01j) == 1
        assert winding_number(path.reverse(), 0.985 + 0.01j) == -1
        for outside in (0.95 + 0j, 1.01 + 0j, 0.985 + 0.3j):
            assert winding_number(path, outside) == 0

    def test_runs_no_quadrature(self, monkeypatch):
        from contourchain import integrate, verify

        def no_quadrature(*args, **kwargs):
            raise AssertionError("a contour integral was computed")

        monkeypatch.setattr(verify, "contour_integral", no_quadrature)
        monkeypatch.setattr(integrate, "contour_integral", no_quadrature)
        assert winding_number(circle(), 0j) == 1
        assert winding_number(ellipse(1.6, 1.0).reverse(), 1.5 + 0j) == -1
        assert winding_number(square(2.0), 3j) == 0

    @pytest.mark.parametrize("a, text", [
        (0.3 + 1j, "clearance 0, .* lies on the path"),
        (0.3 + (1 - 2e-14) * 1j, "rounding allowance"),
    ])
    def test_points_at_rounding_distance_are_refused(self, a, text):
        with pytest.raises(NearSingularity, match=f"not certifiably clear.*{text}"):
            winding_number(square(2.0), a)
