import math

import numpy as np
import pytest

from contourchain import (
    ArcSegment,
    InvalidEpsilon,
    LineSegment,
    PiecewisePath,
    SmoothSegment,
    circle,
    constant_path,
    ellipse,
    linear_homotopy,
    polygonal_approximation,
    polyline,
    square,
    star_null_homotopy,
)
from conftest import (dense_sup, dense_sup_upper, random_builtin_path, slice_sup_upper,
                      without_curvature_bound)


class TestConstantPath:
    def test_all_vertices_at_the_point(self):
        result = polygonal_approximation(constant_path(1 - 2j), 0.3)
        assert np.all(result.path.vertices() == 1 - 2j)
        assert result.bound == pytest.approx(0.2)
        assert dense_sup_upper(constant_path(1 - 2j), result.path, 500) == 0.0

    def test_zero_derivative_bound_without_curvature_bound(self):
        # L = 0 and no |z''| bound: the first-order count floor(0) + 1 is one panel
        seg = SmoothSegment(lambda xs: np.full(np.shape(xs), 1 - 2j),
                            lambda xs: np.zeros(np.shape(xs), dtype=complex), 0.0, 0.0, 1.0)
        f = PiecewisePath([seg], closed=True)
        assert f.lipschitz_bound == 0.0 and f.second_derivative_bounds is None
        result = polygonal_approximation(f, 1e-12)
        assert result.num_segments == 1
        assert np.all(result.path.vertices() == 1 - 2j)
        assert dense_sup_upper(f, result.path, 500) == 0.0


class TestUnitCircleExample:
    def test_segment_count(self):
        # four quarter arcs of width 1/4 with |z''| <= 4 pi^2 at eps = pi/3:
        # floor(sqrt(9 pi / 4) / 4) + 1 = floor(0.66) + 1 = 1 panel per arc
        result = polygonal_approximation(circle(), math.pi / 3)
        assert result.num_segments == 4

    def test_certified_bound_holds_densely(self):
        eps = math.pi / 3
        result = polygonal_approximation(circle(), eps)
        oracle = dense_sup(circle(), result.path, 10_000)
        assert oracle <= 2 * eps / 3 + 1e-12
        assert result.bound == pytest.approx(2 * eps / 3)


class TestEndpointAndVertexExactness:
    def test_endpoints_bit_exact(self):
        f = circle()
        g = polygonal_approximation(f, 0.2).path
        assert g.value(0.0) == f.value(0.0)
        assert g.value(1.0) == f.value(0.0)

    def test_vertices_interpolate_input(self):
        f = circle(radius=1.3, center=0.2 + 0.1j)
        result = polygonal_approximation(f, 0.15)
        breaks = result.path.breakpoints
        verts = result.path.vertices()
        assert np.array_equal(verts, f.values(breaks))

    def test_polyline_input_vertices_stay_on_input(self):
        f = polyline([1 + 0j, 1j, -1 + 0j, -1j])
        result = polygonal_approximation(f, 0.4)
        oracle = dense_sup(f, result.path, 10_000)
        assert oracle <= result.bound + 1e-12
        assert np.array_equal(result.path.vertices(), f.values(result.path.breakpoints))


class TestRefinement:
    def test_halving_eps_never_increases_sup(self):
        # the finer polyline's certified sup stays below the coarser one's
        # sampled sup; the grid is fine enough that the Lipschitz slack
        # (about 6e-5) is below the smallest step between consecutive sups.
        # The arcs get 1, 2, 2 and 3 panels, so eps 0.4 and 0.2 share their
        # partition and must give the same polyline.
        f = circle()
        paths, lower, upper = [], [], []
        for eps in [0.8, 0.4, 0.2, 0.1]:
            g = polygonal_approximation(f, eps).path
            paths.append(g)
            lower.append(dense_sup(f, g, 100_000))
            upper.append(dense_sup_upper(f, g, 100_000))
        for k in range(len(paths) - 1):
            coarse, fine = paths[k], paths[k + 1]
            if np.array_equal(coarse.breakpoints, fine.breakpoints):
                assert np.array_equal(coarse.vertices(), fine.vertices())
            else:
                assert upper[k + 1] <= lower[k]

    def test_panel_count_formula(self):
        # pieces with no |z''| bound get floor(3 w L / eps) + 1 panels each,
        # from their own width w and |z'| bound L; a large eps leaves one
        f = without_curvature_bound(circle(radius=1.3))
        for eps in [0.3, 0.02, 2.5, 30.0]:
            expected = sum(math.floor(3 * (s.s1 - s.s0) * s.derivative_bound / eps) + 1
                           for s in f.segments)
            result = polygonal_approximation(f, eps)
            assert result.num_segments == expected
            assert np.all(np.isin(f.breakpoints, result.path.breakpoints))
            assert dense_sup_upper(f, result.path, 100_000) <= result.bound
        # a straight piece next to a curved one still takes the first-order count
        quarter = ArcSegment(0j, 1.0, 0.0, math.pi / 2, 0.0, 0.5)
        back = LineSegment(quarter.end_value, quarter.start_value, 0.5, 1.0)
        mixed = without_curvature_bound(PiecewisePath([quarter, back], closed=True))
        line_speed = abs(back.z1 - back.z0) / 0.5
        expected = (math.floor(3 * 0.5 * quarter.derivative_bound / 0.01) + 1
                    + math.floor(3 * 0.5 * line_speed / 0.01) + 1)
        assert polygonal_approximation(mixed, 0.01).num_segments == expected


def _second_order_panels(width, m2, eps):
    return math.floor(width * math.sqrt(3 * m2 / (16 * eps))) + 1


class TestSecondOrderRule:
    """Panels sized by each piece's bound on |z''|: M2 h^2 / 8 < 2 eps / 3."""

    @pytest.mark.parametrize("eps", [0.5, 0.05, 0.003])
    def test_panel_count_on_one_arc(self, eps):
        radius = 1.7
        arc = ArcSegment(0.3 - 0.2j, radius, 0.0, 2 * math.pi, 0.0, 1.0)
        f = PiecewisePath([arc], closed=True)
        m2 = radius * (2 * math.pi) ** 2
        result = polygonal_approximation(f, eps)
        n = _second_order_panels(1.0, m2, eps)
        assert result.num_segments == n
        assert np.allclose(np.diff(result.path.breakpoints), 1.0 / n, rtol=1e-12, atol=0)
        assert m2 * (1.0 / n) ** 2 / 8 < result.bound

    @pytest.mark.parametrize("eps", [0.5, 0.05, 0.003])
    def test_panel_count_on_one_ellipse(self, eps):
        # |z''| = (2 pi)^2 |2 cos + i sin| <= (2 pi)^2 * 2
        result = polygonal_approximation(ellipse(2.0, 1.0, center=1j), eps)
        assert result.num_segments == _second_order_panels(1.0, (2 * math.pi) ** 2 * 2, eps)

    def test_straight_pieces_get_one_panel(self):
        f = square(2.0, center=0.5 + 0.5j)
        result = polygonal_approximation(f, 1e-6)
        assert np.array_equal(result.path.breakpoints, f.breakpoints)
        assert np.array_equal(result.path.vertices(), f.vertices())

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
    def test_certified_upper_oracle_on_random_builtins(self, eps, rng):
        # the second-order rule keeps the sup within a few percent of the
        # bound, so the oracle's Lipschitz slack needs the fine grid
        for _ in range(10):
            f = random_builtin_path(rng)
            g = polygonal_approximation(f, eps)
            assert dense_sup_upper(f, g.path, 100_000) <= g.bound

    @pytest.mark.parametrize("sigma", [
        linear_homotopy(circle(), ellipse(2.0, 1.0)),
        linear_homotopy(square(2.0), circle(radius=1.5)),
        star_null_homotopy(square(2.0), 0.1 + 0.2j),
    ], ids=["circle-ellipse", "square-circle", "star-square"])
    @pytest.mark.parametrize("eps", [0.1, 0.02])
    def test_certified_upper_oracle_on_homotopy_slices(self, sigma, eps):
        # a slice's polyline blends the end paths' values on the shared partition
        xs, p0, p1 = sigma.shared_vertices(eps)
        for g in (sigma.gamma0, sigma.gamma1):
            assert np.all(np.isin(g.breakpoints, xs))
        for t in [0.25, 0.5, 0.9]:
            member = PiecewisePath.from_vertices((1 - t) * p0 + t * p1, xs, closed=True)
            assert slice_sup_upper(member, sigma, t, 100_000) <= 2 * eps / 3


class TestValidation:
    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_epsilon(self, eps):
        with pytest.raises(InvalidEpsilon):
            polygonal_approximation(circle(), eps)

    def test_open_input_rejected(self):
        open_path = polyline([0j, 1 + 0j, 1 + 1j], closed=False)
        with pytest.raises(ValueError, match="not closed"):
            polygonal_approximation(open_path, 0.3)


class TestRandomPaths:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
    def test_certified_bound_on_random_builtins(self, eps, rng):
        for _ in range(10):
            f = random_builtin_path(rng)
            g = polygonal_approximation(f, eps)
            assert dense_sup(f, g.path, 2000) <= 2 * eps / 3 + 1e-12
            assert g.path.value(0.0) == f.value(0.0) == g.path.value(1.0)
