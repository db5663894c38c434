import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contourchain import (
    ArcSegment,
    ClosedPath,
    LineSegment,
    LipschitzModulus,
    MismatchedDomains,
    PiecewisePath,
    SmoothSegment,
    TabulatedModulus,
    carrier_of_path,
    circle,
    constant_path,
    contour_integral,
    dist_to_carrier,
    ellipse,
    parse_function,
    polyline,
    polyline_sup_distance,
    reparametrize_to_unit,
    square,
    sup_distance,
)
from conftest import dense_sup, dense_sup_upper, random_builtin_path, random_polyline


class TestModulus:
    def test_lipschitz_delta(self):
        m = LipschitzModulus(4.0)
        assert m.delta(1.0) == 0.25
        assert m.delta(0.1) == pytest.approx(0.025)
        assert m.lipschitz_constant == 4.0

    def test_zero_constant_means_constant_map(self):
        assert LipschitzModulus(0.0).delta(0.5) == math.inf

    def test_scaled(self):
        m = LipschitzModulus(4.0).scaled(0.5)
        assert m.delta(1.0) == 0.125

    def test_tabulated_floor_lookup(self):
        m = TabulatedModulus(((0.1, 0.02), (1.0, 0.3)))
        assert m.delta(0.5) == 0.02      # floor sample at eps = 0.1
        assert m.delta(1.0) == 0.3
        assert m.delta(5.0) == 0.3       # clamping above the table stays valid
        assert m.delta(0.05) == pytest.approx(0.01)  # proportional below the table

    def test_tabulated_monotone(self):
        m = TabulatedModulus(((0.1, 0.02), (0.5, 0.1), (1.0, 0.3)))
        eps = [0.01, 0.1, 0.3, 0.5, 0.7, 1.0, 2.0]
        ds = [m.delta(e) for e in eps]
        assert all(d1 <= d2 for d1, d2 in zip(ds, ds[1:]))
        assert all(d > 0 for d in ds)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedModulus(())
        with pytest.raises(ValueError):
            TabulatedModulus(((0.5, 0.1), (0.1, 0.02)))
        with pytest.raises(ValueError):
            TabulatedModulus(((0.1, 0.3), (0.5, 0.1)))


PATHS = {
    "circle": lambda: circle(radius=1.0),
    "ellipse": lambda: ellipse(1.5, 0.5, center=0.3j),
    "square": lambda: square(2.0),
    "polyline": lambda: polyline([1 + 0j, 1j, -1 + 0j, -0.5 - 1j]),
    "constant": lambda: constant_path(2 - 1j),
}


class TestClosedness:
    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_endpoints_bit_equal(self, name):
        p = PATHS[name]()
        assert p.value(p.a) == p.value(p.b)

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_segments_agree_at_breakpoints(self, name):
        p = PATHS[name]()
        for s, t in zip(p.segments, p.segments[1:]):
            assert s.end_value == t.start_value

    def test_open_path_declared_closed_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            PiecewisePath([LineSegment(0j, 1 + 0j, 0.0, 1.0)], closed=True)

    def test_function_path_closure_guard(self):
        with pytest.raises(ValueError, match="not closed"):
            ClosedPath(0.0, 1.0, lambda xs: np.asarray(xs) + 0j, LipschitzModulus(1.0))


class TestModulusSoundness:
    @pytest.mark.parametrize("name", sorted(PATHS))
    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
    def test_sampled_contract(self, name, eps):
        p = PATHS[name]()
        delta = p.modulus.delta(eps)
        rng = random.Random(hash((name, eps)) & 0xFFFF)
        for _ in range(200):
            x = rng.uniform(p.a, p.b)
            step = rng.uniform(0, min(delta, p.b - p.a))
            x2 = min(x + step, p.b)
            assert abs(p.value(x) - p.value(x2)) <= eps * (1 + 1e-12)


class TestCarrierOfPath:
    def test_constant_path(self):
        net = carrier_of_path(constant_path(2 + 3j), 0.5)
        assert np.all(net.net == 2 + 3j)

    def test_unit_circle_point_count(self):
        # ceil(2 pi / 0.1) + 1 = 64 samples at arc-length spacing
        net = carrier_of_path(circle(), 0.1)
        assert len(net) == 64
        theta = 2 * math.pi * np.arange(5000) / 5000
        dense = np.cos(theta) + 1j * np.sin(theta)
        assert net.nearest_distances(dense).max() <= 0.1

    def test_square_carrier_distance_from_center(self):
        # exact square geometry: rho(0, perimeter of +-1+-1i square) = 1
        net = carrier_of_path(square(2.0), 0.2)
        b = dist_to_carrier(0j, net)
        assert b.lo - 1e-12 <= 1.0 <= b.hi + 1e-12

    def test_net_refinement(self):
        # coarse net points stay within eta + eta' of the finer net
        coarse = carrier_of_path(ellipse(1.0, 0.6), 0.1)
        fine = carrier_of_path(ellipse(1.0, 0.6), 0.03)
        assert fine.nearest_distances(coarse.net).max() <= 0.1 + 0.03

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            carrier_of_path(circle(), 0.0)


class TestSupDistance:
    def test_identical_paths(self):
        p = circle()
        b = sup_distance(p, p, 0.01)
        assert b.lo == 0.0
        assert b.hi == pytest.approx(0.02)

    def test_translated_circle(self):
        # constant offset of 0.1 everywhere
        b = sup_distance(circle(), circle(center=0.1 + 0j), 0.005)
        assert b.lo - 1e-12 <= 0.1 <= b.hi + 1e-12

    def test_concentric_circles(self):
        # pointwise |e^{i t} - 2 e^{i t}| = 1
        b = sup_distance(circle(radius=1.0), circle(radius=2.0), 0.005)
        assert b.lo - 1e-12 <= 1.0 <= b.hi + 1e-12

    def test_symmetry(self):
        p, q = circle(), square(2.0)
        bpq, bqp = sup_distance(p, q, 0.01), sup_distance(q, p, 0.01)
        assert bpq.lo == bqp.lo and bpq.hi == bqp.hi

    def test_interval_triangle_inequality(self, rng):
        for _ in range(10):
            p, q, r = (random_builtin_path(rng) for _ in range(3))
            tol = 0.02
            hpr = sup_distance(p, r, tol).hi
            hpq = sup_distance(p, q, tol).hi
            hqr = sup_distance(q, r, tol).hi
            assert hpr <= hpq + hqr + 4 * tol

    def test_mismatched_domains(self):
        with pytest.raises(MismatchedDomains):
            sup_distance(circle(), circle(interval=(0.0, 2.0)), 0.01)

    def test_bounds_enclose_dense_oracle(self, rng):
        for _ in range(8):
            p, q = random_builtin_path(rng), random_builtin_path(rng)
            b = sup_distance(p, q, 0.01)
            # lower bound against upper oracle, upper bound against lower oracle
            assert b.lo <= dense_sup_upper(p, q, 4000) + 1e-12
            assert dense_sup(p, q, 4000) <= b.hi + 1e-12


class TestPolylineSupDistance:
    def test_encloses_the_dense_oracles(self, rng):
        for _ in range(20):
            p = random_polyline(rng, rng.randint(3, 9), radius=rng.uniform(0.5, 2.0))
            q = random_polyline(rng, rng.randint(3, 9), radius=rng.uniform(0.5, 2.0),
                                center=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            b = polyline_sup_distance(p, q)
            assert b.lo <= b.hi
            assert b.lo <= dense_sup_upper(p, q, 4000) + 1e-12
            assert dense_sup(p, q, 4000) <= b.hi + 1e-12
            assert b.hi - b.lo <= 1e-13

    def test_sup_between_grid_points(self):
        # q is the square with its top side pushed out by 0.3 at x = 1/8, a
        # point that the 209-step sampling grid of sup_distance at tol 0.04 misses
        p = square(2.0)
        verts = np.array([1 + 1j, 1.3j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
        q = PiecewisePath.from_vertices(verts, np.array([0, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1]),
                                        closed=True)
        b = polyline_sup_distance(p, q)
        assert b.lo <= 0.3 <= b.hi
        assert sup_distance(p, q, 0.04).lo < b.lo

    def test_translated_square(self):
        b = polyline_sup_distance(square(2.0), square(2.0, center=0.1j))
        assert b.lo <= 0.1 <= b.hi

    def test_needs_two_polylines_on_one_interval(self):
        with pytest.raises(TypeError):
            polyline_sup_distance(square(2.0), circle())
        with pytest.raises(MismatchedDomains):
            polyline_sup_distance(square(2.0), square(2.0, interval=(0.0, 2.0)))


class TestReparametrize:
    def test_identity_on_unit_interval(self):
        p = circle()
        assert reparametrize_to_unit(p) is p

    def test_affine_rescaling(self):
        p = circle(interval=(0.0, 2.0))
        u = reparametrize_to_unit(p)
        assert u.interval == (0.0, 1.0)
        for x in [0.0, 0.125, 0.5, 0.777, 1.0]:
            assert u.value(x) == pytest.approx(p.value(2 * x), abs=1e-15)
        assert u.lipschitz_bound == pytest.approx(2 * p.lipschitz_bound)

    def test_integral_invariance(self):
        # substitution invariance of the contour integral, checked numerically
        f = parse_function("1/z", [0j])
        p = circle(interval=(0.0, 2 * math.pi))
        u = reparametrize_to_unit(p)
        ip = contour_integral(f, p, 1e-12).value
        iu = contour_integral(f, u, 1e-12).value
        assert abs(ip - iu) < 1e-12

    def test_function_path_rescaling(self):
        raw = ClosedPath(0.0, 2.0, lambda xs: np.exp(1j * math.pi * np.asarray(xs)),
                         LipschitzModulus(math.pi))
        u = reparametrize_to_unit(raw)
        assert u.interval == (0.0, 1.0)
        assert u.value(0.25) == pytest.approx(raw.value(0.5), abs=1e-15)


class TestPiecewisePath:
    def test_values_match_scalar_evaluation(self):
        p = square(2.0)
        xs = np.linspace(0, 1, 37)
        vals = p.values(xs)
        for x, v in zip(xs, vals):
            assert p.value(float(x)) == complex(v)

    def test_derivatives_match_closed_forms(self):
        p = circle(radius=2.0)
        xs = np.array([0.1, 0.3, 0.6, 0.9])
        _, ders = p.eval_with_derivative(xs)
        expected = 2.0 * 2j * math.pi * np.exp(2j * math.pi * xs)
        assert np.abs(ders - expected).max() < 1e-12

    def test_vertices_and_breakpoints(self):
        p = polyline([0j, 1 + 0j, 1 + 1j])
        assert p.num_segments == 3
        verts = p.vertices()
        assert verts[0] == verts[-1] == 0j
        assert len(verts) == len(p.breakpoints)

    def test_reverse_traces_backwards(self):
        p = polyline([1 + 0j, 1j, -1 + 0j, -1j])
        r = p.reverse()
        xs = np.linspace(0, 1, 23)
        assert np.abs(r.values(xs) - p.values(1 - xs)).max() < 1e-12
        assert r.is_closed

    def test_from_vertices_matches_segment_construction(self):
        verts = np.array([0j, 1 + 1j, 2 - 1j, 0j])
        breaks = np.array([0.0, 0.25, 0.75, 1.0])
        fast = PiecewisePath.from_vertices(verts, breaks, closed=True)
        segs = [LineSegment(verts[k], verts[k + 1], breaks[k], breaks[k + 1]) for k in range(3)]
        slow = PiecewisePath(segs, closed=True)
        xs = np.linspace(0, 1, 101)
        assert np.array_equal(fast.values(xs), slow.values(xs))
        assert fast.lipschitz_bound == slow.lipschitz_bound

    def test_mixed_segment_kinds(self):
        quarter = ArcSegment(0j, 1.0, 0.0, math.pi / 2, 0.0, 0.5)
        back = LineSegment(quarter.end_value, quarter.start_value, 0.5, 1.0)
        p = PiecewisePath([quarter, back], closed=True)
        assert p.value(0.0) == 1 + 0j
        assert abs(p.value(0.25) - math.sqrt(0.5) * (1 + 1j)) < 1e-15

    def test_smooth_segment_roundtrip_spans(self):
        seg = SmoothSegment(lambda xs: np.exp(2j * math.pi * np.asarray(xs)),
                            lambda xs: 2j * math.pi * np.exp(2j * math.pi * np.asarray(xs)),
                            2 * math.pi, 0.0, 1.0)
        moved = seg.with_span(0.0, 0.5)
        assert moved.values_at(np.array([0.25]))[0] == pytest.approx(seg.values_at(np.array([0.5]))[0])
        assert moved.derivative_bound == pytest.approx(4 * math.pi)

    @pytest.mark.parametrize("path", [
        circle(1 + 1j, 2.0),
        circle(radius=0.7).reverse(),
        reparametrize_to_unit(circle(0.5j, 1.3, interval=(0.0, 3.0))),
    ], ids=["circle", "reversed", "reparametrized"])
    def test_arc_arrays_match_the_segment_formulas(self, path):
        assert all(isinstance(seg, ArcSegment) for seg in path.segments)
        xs = np.concatenate([np.linspace(path.a, path.b, 997), path.breakpoints])
        vals, ders = path.eval_with_derivative(xs)
        assert np.array_equal(vals, path.values(xs))
        for k, seg in enumerate(path.segments):
            # a breakpoint belongs to the segment on its right, b to the last one
            on = (xs >= seg.s0) & ((xs < seg.s1) | ((k == path.num_segments - 1) & (xs == seg.s1)))
            assert np.array_equal(ders[on], seg.derivatives_at(xs[on]))
            inner = on & (xs != path.b)
            assert np.array_equal(vals[inner], seg.values_at(xs[inner]))
        assert np.all(vals[xs == path.b] == path.segments[0].start_value)

    def test_non_contiguous_segments_rejected(self):
        with pytest.raises(ValueError, match="non-contiguous"):
            PiecewisePath([LineSegment(0j, 1j, 0.0, 0.4), LineSegment(1j, 0j, 0.5, 1.0)])

    def test_disagreeing_segments_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            PiecewisePath([LineSegment(0j, 1j, 0.0, 0.5), LineSegment(2j, 0j, 0.5, 1.0)])


@given(t=st.floats(min_value=0, max_value=1))
@settings(max_examples=60, deadline=None)
def test_circle_values_on_unit_circle(t):
    assert abs(abs(circle().value(t)) - 1.0) < 1e-12
