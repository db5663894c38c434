import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contourchain import (
    ArcSegment,
    Bounds,
    LineSegment,
    MismatchedDomains,
    PiecewisePath,
    SmoothSegment,
    carrier_of_path,
    certified_clearance,
    certified_clearances,
    circle,
    consecutive_polyline_distances,
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
from contourchain.geometry import _segment_point_distances
from contourchain.paths import _step
from conftest import dense_sup, dense_sup_upper, random_builtin_path, random_polyline


class TestModulus:
    """A path's modulus is its Lipschitz bound L: delta(eps) = eps / L."""

    def test_lipschitz_delta(self):
        p = square(2.0)  # four sides of length 2, each on a span of 1/4
        assert p.lipschitz_bound == 8.0
        assert _step(1.0, p.lipschitz_bound) == 0.125
        assert _step(0.1, 4.0) == pytest.approx(0.025)

    def test_zero_constant_means_constant_map(self):
        p = constant_path(2 - 1j)
        assert p.lipschitz_bound == 0.0
        assert _step(0.5, p.lipschitz_bound) == math.inf
        # one step covers the whole interval, however fine the net
        assert len(carrier_of_path(p, 1e-12)) == 2

    def test_scaled(self):
        # onto [0, 1] from an interval twice as long: L doubles, delta halves
        p = square(2.0, interval=(0.0, 2.0))
        u = reparametrize_to_unit(p)
        assert u.lipschitz_bound == 2 * p.lipschitz_bound == 8.0
        assert _step(1.0, u.lipschitz_bound) == _step(1.0, p.lipschitz_bound) / 2


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
        # a smooth segment's evaluator that does not close up is refused
        open_seg = SmoothSegment(lambda xs: np.asarray(xs) + 0j,
                                 lambda xs: np.ones_like(np.asarray(xs)) + 0j, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="closed"):
            PiecewisePath([open_seg], closed=True)


class TestModulusSoundness:
    """|p(x) - p(x')| <= L |x - x'| for the path's Lipschitz bound L, so steps
    of at most eps / L move the value by at most eps."""

    @pytest.mark.parametrize("name", sorted(PATHS))
    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
    def test_sampled_contract(self, name, eps):
        p = PATHS[name]()
        lip = p.lipschitz_bound
        delta = _step(eps, lip)
        rng = random.Random(hash((name, eps)) & 0xFFFF)
        for _ in range(200):
            x = rng.uniform(p.a, p.b)
            step = rng.uniform(0, min(delta, p.b - p.a))
            x2 = min(x + step, p.b)
            gap = abs(p.value(x) - p.value(x2))
            assert gap <= lip * (x2 - x) * (1 + 1e-12) + 1e-15
            assert gap <= eps * (1 + 1e-12)


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

    @pytest.mark.parametrize("p, q, exact", [
        (constant_path(1 - 2j), constant_path(1 + 2j), 4.0),
        (constant_path(0.5 + 0j), circle(), 1.5),
    ], ids=["two-constants", "constant-circle"])
    def test_zero_lipschitz_bound(self, p, q, exact):
        # L = 0 on one side: the grid follows the other path's bound alone
        for a, b in ((p, q), (q, p)):
            bounds = sup_distance(a, b, 0.01)
            assert bounds.lo <= exact <= bounds.hi
            assert bounds.hi - bounds.lo == pytest.approx(0.02)
        if q.lipschitz_bound == 0:  # two constants: two samples, the exact distance
            assert sup_distance(p, q, 1e-300).lo == exact

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

    def test_consecutive_rows_match_the_pairwise_formula(self):
        # each pair's bound is the vertex maximum widened by 16 ulps of the
        # pair's largest |vertex|, as for two polylines on one partition
        gen = np.random.default_rng(3)
        rows = gen.normal(size=(6, 9)) + 1j * gen.normal(size=(6, 9))
        rows[3] *= 1e3  # one pair's rounding allowance is set by the larger row
        rows[:, -1] = rows[:, 0]
        breaks = np.sort(np.concatenate([[0.0, 1.0], gen.uniform(size=7)]))
        paths = PiecewisePath.from_vertex_rows(rows, breaks, closed=True)
        got = consecutive_polyline_distances(rows)
        assert len(got) == 5
        for bound, p, q in zip(got, paths, paths[1:]):
            pv, qv = p.vertices(), q.vertices()
            exact = float(np.abs(pv - qv).max())
            slack = 16 * np.finfo(np.float64).eps * max(np.abs(pv).max(), np.abs(qv).max())
            assert bound == Bounds(max(0.0, exact - slack), exact + slack)
            assert bound == polyline_sup_distance(p, q)

    def test_needs_two_polylines_on_one_interval(self):
        with pytest.raises(TypeError):
            polyline_sup_distance(square(2.0), circle())
        with pytest.raises(MismatchedDomains):
            polyline_sup_distance(square(2.0), square(2.0, interval=(0.0, 2.0)))


def _arc(angle0: float, angle1: float) -> PiecewisePath:
    return PiecewisePath([ArcSegment(0.2j, 1.3, angle0, angle1, 0.0, 1.0)])


def _clearance_points(path, seed: int) -> np.ndarray:
    """Far points, points on the carrier and points 1e-7 off it."""
    gen = np.random.default_rng(seed)
    far = gen.uniform(-2.5, 2.5, 40) + 1j * gen.uniform(-2.5, 2.5, 40)
    on = path.values(gen.uniform(path.a, path.b, 10))
    near = on + 1e-7 * np.exp(2j * math.pi * gen.uniform(size=10))
    return np.concatenate([far, on, near])


class TestCertifiedClearance:
    """Closed forms for lines and arcs against a dense sampled minimum."""

    @pytest.mark.parametrize("path", [
        square(2.0),
        square(0.7, center=0.4 - 0.3j),
        *(random_polyline(random.Random(k), 3 + k, radius=1.5) for k in range(4)),
        constant_path(0.3 + 0.2j),
        circle(),
        circle(center=0.5 - 0.2j, radius=0.8).reverse(),
        _arc(2.5, 4.0),    # sweeps across the -pi/pi cut
        _arc(-2.0, -4.0),  # the same cut, clockwise from negative angles
        _arc(0.3, 7.0),    # more than one turn
    ], ids=["square", "small-square", *(f"polyline-{k}" for k in range(4)), "constant",
            "circle", "reversed-circle", "arc-across-cut", "clockwise-arc-across-cut",
            "arc-over-a-turn"])
    def test_sound_and_tight(self, path):
        n = 20_000
        xs = path.a + (path.b - path.a) * np.arange(n + 1) / n
        samples = path.values(xs)
        slack = path.lipschitz_bound * (path.b - path.a) / n / 2 + 1e-12
        for p in _clearance_points(path, path.num_segments):
            sampled = float(np.abs(samples - p).min())
            bound = certified_clearance(path, [p], 1e-9)
            assert bound <= sampled
            assert bound >= sampled - slack
        points = _clearance_points(path, 7)
        assert certified_clearance(path, points, 1e-9) == min(
            certified_clearance(path, [p], 1e-9) for p in points)

    def test_batch_matches_one_path_at_a_time(self):
        paths = [square(2.0), circle(), polyline([0j, 1 + 0j, 1 + 1j], closed=False),
                 constant_path(0.3 + 0.2j), random_polyline(random.Random(5), 6, radius=1.5),
                 ellipse(1.6, 1.0), square(40.0, center=3 - 2j)]
        # points within 0.7 of 0, so that each path's own reach sets its rounding
        points = 0.25 * _clearance_points(square(2.0), 11)[::5] + 0.1j
        batch = certified_clearances(paths, points, 1e-9)
        assert batch.tolist() == [certified_clearance(p, points, 1e-9) for p in paths]
        for k, path in enumerate(paths):
            if isinstance(path.segments[0], LineSegment):
                # one path's closed form: the exact distance less 16 ulps of
                # the larger of its max |vertex| and the points' max modulus
                verts = path.vertices()
                exact = _segment_point_distances(verts[:-1, None], verts[1:, None], points).min()
                scale = max(np.abs(verts).max(), np.abs(points).max())
                assert batch[k] == max(0.0, exact - 16 * np.finfo(np.float64).eps * scale)
        assert certified_clearances(paths, [], 1e-9).tolist() == [math.inf] * len(paths)

    def test_no_points_is_infinitely_clear(self):
        assert certified_clearance(circle(), [], 1e-9) == math.inf

    def test_ellipse_fallback(self):
        path = ellipse(1.6, 1.0, center=0.1j)
        xs = np.arange(200_001) / 200_000
        samples = path.values(xs)
        for p in _clearance_points(path, 3):
            sampled = float(np.abs(samples - p).min())
            bound = certified_clearance(path, [p], sampled / 2)
            assert bound <= sampled
            if sampled > 1e-3:  # within the sampling budget's reach
                assert bound > sampled / 2
        on_carrier = path.value(0.123456)
        assert certified_clearance(path, [on_carrier], 1e-9) <= 1e-9


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
        seg = SmoothSegment(lambda xs: np.exp(1j * math.pi * np.asarray(xs)),
                            lambda xs: 1j * math.pi * np.exp(1j * math.pi * np.asarray(xs)),
                            math.pi, 0.0, 2.0)
        raw = PiecewisePath([seg], closed=True)
        u = reparametrize_to_unit(raw)
        assert u.interval == (0.0, 1.0)
        assert u.value(0.25) == pytest.approx(raw.value(0.5), abs=1e-15)
        assert u.lipschitz_bound == 2 * math.pi


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

    def test_vertex_rows_match_segment_construction(self):
        gen = np.random.default_rng(4)
        rows = gen.normal(size=(4, 6)) + 1j * gen.normal(size=(4, 6))
        rows[:, -1] = rows[:, 0]
        breaks = np.array([0.0, 0.1, 0.3, 0.55, 0.8, 1.0])
        xs = np.linspace(0, 1, 101)
        for row, fast in zip(rows, PiecewisePath.from_vertex_rows(rows, breaks, closed=True)):
            slow = PiecewisePath([LineSegment(row[k], row[k + 1], breaks[k], breaks[k + 1])
                                  for k in range(5)], closed=True)
            assert np.array_equal(fast.vertices(), slow.vertices())
            assert np.array_equal(fast.values(xs), slow.values(xs))
            for a, b in zip(fast.eval_with_derivative(xs), slow.eval_with_derivative(xs)):
                assert np.array_equal(a, b)
            bounds = np.abs(np.diff(row)) / np.diff(breaks)
            assert np.array_equal(fast.derivative_bounds, bounds)
            assert np.allclose(slow.derivative_bounds, bounds, rtol=1e-15, atol=0)
            assert fast.lipschitz_bound == bounds.max()
            assert fast.is_closed

    def test_vertex_rows_validated_once_for_all_rows(self):
        rows = np.array([[0j, 1 + 0j, 1j, 0j], [0j, 2 + 0j, 2j, 1e-6 + 0j]])
        breaks = np.array([0.0, 0.25, 0.5, 1.0])
        with pytest.raises(ValueError, match="endpoint gap 1e-06 exceeds float noise"):
            PiecewisePath.from_vertex_rows(rows, breaks, closed=True)
        assert len(PiecewisePath.from_vertex_rows(rows, breaks, closed=False)) == 2
        with pytest.raises(ValueError, match="finite"):
            PiecewisePath.from_vertex_rows(rows * np.array([[1], [np.nan]]), breaks)
        with pytest.raises(ValueError, match="matching"):
            PiecewisePath.from_vertex_rows(rows, breaks[:-1])
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewisePath.from_vertex_rows(rows, breaks[[0, 2, 1, 3]])

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

    @pytest.mark.parametrize("center, radius, interval", [
        (0j, 1.0, (0.0, 1.0)),
        (1 + 1j, 2, (0.0, 1.0)),
        (-0.3 + 0.7j, 1e-3, (-2.0, 5.0)),
        (1e4 - 2e4j, 3.7e3, (0.1, 0.3)),
    ])
    def test_circle_matches_its_arc_segments(self, center, radius, interval):
        # circle builds its arc arrays from the five angles; the path built
        # from the four ArcSegments has the same fields, values and bounds
        fast = circle(center, radius, interval)
        b = np.array(fast.breakpoints)
        angles = [k * (math.pi / 2) for k in range(5)]
        slow = PiecewisePath([ArcSegment(center, radius, angles[k], angles[k + 1], b[k], b[k + 1])
                              for k in range(4)], closed=True)
        assert (fast.a, fast.b, fast.closed) == (slow.a, slow.b, slow.closed)
        assert fast.lipschitz_bound == slow.lipschitz_bound
        for mine, theirs in [(fast.breakpoints, slow.breakpoints),
                             (fast.derivative_bounds, slow.derivative_bounds),
                             (fast.second_derivative_bounds, slow.second_derivative_bounds),
                             (fast.vertices(), slow.vertices()), *zip(fast._arcs, slow._arcs)]:
            assert np.array_equal(mine, theirs)
        rng = np.random.default_rng(5)
        xs = np.concatenate([b, rng.uniform(fast.a, fast.b, 10_000)])
        for mine, theirs in zip(fast.eval_with_derivative(xs), slow.eval_with_derivative(xs)):
            assert np.array_equal(mine, theirs)
        assert np.array_equal(fast.values(xs), slow.values(xs))
        fields = ("center", "radius", "angle0", "angle1", "s0", "s1")
        for mine, theirs in zip(fast.segments, slow.segments):
            assert isinstance(mine, ArcSegment)
            assert [getattr(mine, f) for f in fields] == [getattr(theirs, f) for f in fields]
        reversed_fast, reversed_slow = fast.reverse(), slow.reverse()
        xs = np.linspace(reversed_slow.a, reversed_slow.b, 1001)
        assert np.array_equal(reversed_fast.values(xs), reversed_slow.values(xs))

    @pytest.mark.parametrize("radius, message", [
        (math.nan, "radius must be finite"),
        (math.inf, "radius must be finite"),
        (1e308, "Lipschitz constant must be finite"),
        (0.0, "radius must be positive"),
    ])
    def test_circle_refuses_what_its_arc_segments_refuse(self, radius, message):
        with pytest.raises(ValueError, match=message):
            circle(0j, radius)

    @pytest.mark.parametrize("path", [
        circle(1 + 1j, 2.0),
        square(2.0),
        polyline([0j, 1 + 0j, 1 + 1j, 0.5 + 2j, 1j]),
        reparametrize_to_unit(circle(0.5j, 1.3, interval=(0.0, 3.0))),
        ellipse(2.0, 1.0),
    ], ids=["circle", "square", "pentagon", "reparametrized", "ellipse"])
    def test_segment_indices_clamp_b_into_the_last_segment(self, path):
        rng = np.random.default_rng(11)
        xs = np.concatenate([[path.a, path.b], path.breakpoints,
                             rng.uniform(path.a, path.b, 500)])
        clamped = np.clip(np.searchsorted(path.breakpoints, xs, side="right") - 1,
                          0, path.num_segments - 1)
        assert np.array_equal(path._segment_indices(xs), clamped)

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
