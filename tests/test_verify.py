import math

import numpy as np
import pytest

from contourchain import (
    Annulus,
    ContainmentNotCertified,
    Disk,
    NearSingularity,
    PuncturedPlane,
    build_chain,
    circle,
    contour_integral,
    ellipse,
    linear_homotopy,
    parse_function,
    polyline,
    square,
    verify_homotopy_invariance,
    verify_null_homotopic,
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


class TestNullHomotopic:
    def test_square_exp_in_disk(self):
        report = verify_null_homotopic(parse_function("exp(z)"), square(2.0), 0j,
                                       Disk(0j, 2.0), 1e-9)
        assert report.passed
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
        # 0.04 from the path, closer than the first net's resolution 0.05
        assert winding_number(circle(), 0.96, 1e-9) == 1

    def test_point_on_carrier_between_samples_rejected(self):
        with pytest.raises(NearSingularity):
            winding_number(circle(), complex(math.cos(0.123456), math.sin(0.123456)), 1e-9)

    def test_point_near_a_side_certified_in_closed_form(self):
        # 1e-5 from the top side, far inside the first net's resolution 0.05
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
        from contourchain import integrate, paths, verify

        checked = []

        def counted(path, points, required):
            if len(points):
                checked.append(required)
            return paths.certified_clearance(path, points, required)

        def counted_batch(members, points, required):
            if len(points):
                checked.append(required)
            return paths.certified_clearances(members, points, required)

        monkeypatch.setattr(verify, "certified_clearance", counted)
        monkeypatch.setattr(integrate, "certified_clearances", counted_batch)
        assert winding_number(ellipse(1.6, 1.0), 1.8, 1e-9) == 0
        assert checked == [1e-6]

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
