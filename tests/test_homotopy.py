import cmath
import importlib
import math
import random
from pathlib import Path

import numpy as np
import pytest

from contourchain import (
    Annulus,
    ArcSegment,
    Bounds,
    ContainmentNotCertified,
    Disk,
    EndpointMismatch,
    Homotopy,
    InvalidEpsilon,
    LineSegment,
    NearSingularity,
    PiecewisePath,
    PuncturedPlane,
    Rectangle,
    ToleranceNotReached,
    build_chain,
    circle,
    constant_path,
    ellipse,
    linear_homotopy,
    polygonal_approximation,
    polyline,
    polyline_sup_distance,
    square,
    star_null_homotopy,
)
from contourchain import homotopy as homotopy_module
from contourchain import paths as paths_module
from contourchain.cli import SpecDocument, chain_csv
from contourchain.expressions import AnalyticFunction, Const, Div, Sub, Var
from contourchain.homotopy import homotopy_carrier
from contourchain.integrate import contour_integral, integral_along_chain
from contourchain.verify import verify_homotopy_invariance
from conftest import (counted_calls, counted_vertex_rows, dense_sup, dense_sup_upper,
                      random_builtin_path, random_polyline, slice_sup_upper, slice_values)

ANNULUS = Annulus(0j, 0.25, 3.0)
WIDE_ANNULUS = Annulus(0j, 0.5, 2.5)
# a channel 0.1 wider on each side than the circles of radius 0.5 at -2 and 2
CHANNEL = Rectangle(-3.0 - 0.6j, 3.0 + 0.6j)


class TestStarHomotopy:
    def test_constant_input_stays_constant(self):
        center = 1 - 1j
        sigma = star_null_homotopy(constant_path(center), center)
        assert np.all(slice_values(sigma, [0.0, 0.3, 1.0], [0.5]) == center)

    def test_circle_slices_shrink(self):
        sigma = star_null_homotopy(circle(), 0j)
        # slice at t = 0.5 is the circle of radius 0.5
        xs = np.linspace(0, 1, 64)
        expected = 0.5 * np.exp(2j * math.pi * xs)
        assert np.abs(slice_values(sigma, [0.5], xs)[0] - expected).max() < 1e-12

    def test_final_slice_is_constant(self):
        sigma = star_null_homotopy(circle(), 0.25j)
        assert slice_values(sigma, [1.0], [0.7])[0, 0] == 0.25j
        assert sigma.gamma1.value(0.3) == 0.25j

    def test_grid_matches_pointwise(self):
        sigma = star_null_homotopy(square(2.0), 0.1 + 0.1j)
        ts = np.array([0.0, 0.4, 1.0])
        xs = np.array([0.0, 0.3, 0.9])
        grid = slice_values(sigma, ts, xs)
        g0, g1 = sigma.gamma0, sigma.gamma1
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                assert grid[i, j] == (1 - t) * g0.value(x) + t * g1.value(x)


class TestLinearHomotopy:
    def test_equal_endpoints_give_constant_slices(self):
        g = circle()
        sigma = linear_homotopy(g, g)
        xs = np.linspace(0, 1, 50)
        assert np.abs(slice_values(sigma, [0.0, 0.5, 1.0], xs) - g.values(xs)).max() == 0.0

    def test_circle_blend_radius(self):
        sigma = linear_homotopy(circle(radius=1.0), circle(radius=1.5))
        xs = np.linspace(0, 1, 32)
        expected = 1.25 * np.exp(2j * math.pi * xs)
        assert np.abs(slice_values(sigma, [0.5], xs)[0] - expected).max() < 1e-12

    def test_circle_square_blend_slices_are_closed(self):
        sigma = linear_homotopy(circle(), square(2.0))
        ends = slice_values(sigma, np.linspace(0, 1, 9), [0.0, 1.0])
        assert np.array_equal(ends[:, 0], ends[:, 1])

    def test_open_path_rejected(self):
        with pytest.raises(ValueError, match="gamma1 must be closed"):
            linear_homotopy(circle(), polyline([1 + 0j, 1j, -1 + 0j], closed=False))

    def test_slice_pieces_blend_the_segment_bounds(self):
        # triangle breakpoints 0, 1/3, 2/3, 1 and quarter arcs: six pieces.  A
        # slice's |z''| on a piece is at most (1-t) 0 + t M2 <= M2, the arc's
        # bound, so each piece of the shared partition takes the arc's panels
        g0 = polyline([1 + 0j, -0.5 + 0.8j, -0.5 - 0.8j])
        g1 = circle(radius=1.5)
        sigma = linear_homotopy(g0, g1)
        breaks = np.union1d(g0.breakpoints, g1.breakpoints)
        assert breaks.size == 7
        arc_curvature = 1.5 * (2 * math.pi) ** 2
        for eps in [0.5, 0.05]:
            xs, _, _, _ = sigma.shared_vertices(sigma.panels(eps))
            assert np.all(np.isin(breaks, xs))
            counts = np.diff(np.searchsorted(xs, breaks))
            widths = np.diff(breaks)
            assert counts.tolist() == [math.floor(w * math.sqrt(3 * arc_curvature / (16 * eps))) + 1
                                       for w in widths]

    def test_endpoint_slices_exact(self):
        g0, g1 = circle(), ellipse(2.0, 1.0)
        sigma = linear_homotopy(g0, g1)
        xs = np.linspace(0, 1, 257)
        assert np.abs(slice_values(sigma, [0.0], xs)[0] - g0.values(xs)).max() == 0.0
        assert np.abs(slice_values(sigma, [1.0], xs)[0] - g1.values(xs)).max() == 0.0


def _oracle_points(member, sigma, tol):
    """Grid size at which ``slice_sup_upper`` adds at most 2 tol of slack."""
    return math.ceil((member.lipschitz_bound + sigma.lipschitz) / (4 * tol))


def _members(sigma, ts, eps):
    """The polylines through (1 - t) P0 + t P1 on the shared vertices at eps, one per t."""
    xs, _, p0, p1 = sigma.shared_vertices(sigma.panels(eps))
    return PiecewisePath.from_vertex_rows(sigma.rows(ts, p0, p1), xs, closed=True)


class TestPolygonalSlices:
    """Slice polylines share one partition and blend the end paths' values on it."""

    @pytest.mark.parametrize("make", [
        lambda: linear_homotopy(circle(), ellipse(2.0, 1.0)),
        lambda: linear_homotopy(square(2.0), circle(radius=1.8)),
        lambda: star_null_homotopy(square(2.0, center=0.1 + 0.1j), 0.1 + 0.1j),
        lambda: linear_homotopy(ellipse(1.0, 0.9), circle(radius=1.4)),
    ], ids=["circle-ellipse", "square-circle", "star-square", "ellipse-circle"])
    @pytest.mark.parametrize("eps", [0.1, 0.005])
    def test_same_polylines_as_one_slice_at_a_time(self, make, eps):
        sigma = make()
        ts = np.arange(1, 12) / 12
        xs, _, p0, p1 = sigma.shared_vertices(sigma.panels(eps))
        assert np.all(np.isin(sigma.gamma0.breakpoints, xs))
        assert np.all(np.isin(sigma.gamma1.breakpoints, xs))
        batch = _members(sigma, ts, eps)
        assert len(batch) == ts.size
        for t, member in zip(ts, batch):
            single = _members(sigma, [t], eps)[0]
            assert np.array_equal(member.breakpoints, xs)
            assert np.array_equal(member.vertices(), (1 - t) * p0 + t * p1)
            assert np.array_equal(member.vertices(), single.vertices())
        # each member is within 2 eps / 3 of its slice, by a certified upper bound
        for t, member in zip(ts[::5], batch[::5]):
            assert slice_sup_upper(member, sigma, t, _oracle_points(member, sigma, eps / 1000)) \
                <= 2 * eps / 3

    def test_pieces_take_one_paths_rule_at_the_larger_bound(self):
        outer = circle(radius=1.4)
        sigma = linear_homotopy(ellipse(1.0, 0.9), outer)
        xs, _, _, _ = sigma.shared_vertices(sigma.panels(0.01))
        # four quarter-arc pieces, each at the larger end path's |z''| bound
        curvature = 1.4 * (2 * math.pi) ** 2
        assert xs.size - 1 == 4 * (math.floor(0.25 * math.sqrt(3 * curvature / 0.16)) + 1)
        # the rule of one path's polygonal approximation, at the same bounds
        single = polygonal_approximation(outer, 0.01)
        assert np.array_equal(single.path.breakpoints, xs)

    def test_panel_budget_refused_like_one_slice(self):
        sigma = linear_homotopy(circle(), ellipse(2.0, 1.0))
        with pytest.raises(InvalidEpsilon, match="exceeds the budget"):
            polygonal_approximation(sigma.gamma1, 1e-14)
        with pytest.raises(InvalidEpsilon, match="exceeds the budget"):
            sigma.shared_vertices(sigma.panels(1e-14))


class TestHomotopyCarrier:
    def test_constant_homotopy_of_a_point(self):
        sigma = star_null_homotopy(constant_path(2j), 2j)
        net = homotopy_carrier(sigma, 0.05)
        assert np.all(net.net == 2j)

    def test_ring_carrier(self):
        sigma = linear_homotopy(circle(radius=1.0), circle(radius=1.5))
        net = homotopy_carrier(sigma, 0.05)
        d = float(np.abs(net.net).min())
        assert d - net.resolution - 1e-12 <= 1.0 <= d + 1e-12
        radii = np.abs(net.net)
        assert radii.min() >= 1.0 - 1e-9 and radii.max() <= 1.5 + 1e-9

    def test_star_carrier_covers_disk(self):
        sigma = star_null_homotopy(circle(), 0j)
        net = homotopy_carrier(sigma, 0.05)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(400, 2))
        pts = pts[:, 0] + 1j * pts[:, 1]
        pts = pts[np.abs(pts) <= 1.0]
        assert np.abs(pts[:, None] - net.net).min(axis=1).max() <= 0.05 + 1e-12


class TestBuildChain:
    def test_constant_homotopy_members_near_the_circle(self):
        # the homotopy does not move, so one step certifies it: both members
        # are the circle, 0 apart
        g = circle()
        sigma = linear_homotopy(g, g)
        chain = build_chain(sigma, g, g, ANNULUS)
        assert all(member is g for member in chain.members)
        for entry in chain.certificate.entries:
            assert entry.sampled.lo == 0.0
            assert entry.sampled.hi < entry.analytic

    def test_endpoints_by_identity(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        assert chain.members[0] is g0
        assert chain.members[-1] is g1

    def test_certificate_pattern(self):
        # each pair is bounded by the larger clearance of its two members,
        # capped at eps when eps is given, and its gap is below that bound
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        for eps in (None, 0.05):
            chain = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS, eps=eps)
            radius = chain.clearances
            bounds = [e.analytic for e in chain.certificate.entries]
            cap = math.inf if eps is None else eps
            assert bounds == np.minimum(np.maximum(radius[:-1], radius[1:]), cap).tolist()
            assert all(e.sampled.hi < e.analytic for e in chain.certificate.entries)
            assert len(chain.members) == len(bounds) + 1 == len(radius)

    def test_vertex_membership_in_inflated_carrier(self):
        # every member keeps at least its certified clearance from the
        # complement, at its vertices too
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS, eps=0.05)
        for member, radius in zip(chain.members, chain.clearances):
            assert radius > 0
            assert np.all(ANNULUS.complement_distances(member.vertices()) >= radius)

    def test_margin_relation(self):
        # the margin is the smallest member clearance; no eps was given
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        assert chain.epsilon is None
        assert chain.margin == chain.clearances.min() > 0
        # the inner circle keeps 0.75 from the inner rim, less its chords'
        # sag and its slack
        assert 0.5 < chain.clearances[0] < 0.75

    @pytest.mark.parametrize("radius", [1.6, 1.8, 2.0, 2.5])
    def test_margin_within_the_exact_distance_of_the_swept_region(self, radius):
        # the star of a polygon onto 0 sweeps the polygon, whose farthest
        # points from 0 are vertices: no member clearance exceeds the
        # polygon's own, and the polygon's is exact up to rounding
        verts = [1.2 + 0.3j, -0.2 + 1.4j, -1.3 - 0.1j, 0.1 - 1.1j]
        g = polyline(verts)
        sigma = star_null_homotopy(g, 0j)
        chain = build_chain(sigma, g, sigma.gamma1, Disk(0j, radius))
        exact = radius - max(abs(v) for v in verts)
        assert chain.margin == chain.clearances[0] <= exact
        assert chain.margin == pytest.approx(exact, rel=1e-12)

    def test_refuses_star_through_puncture(self):
        g = circle()
        sigma = star_null_homotopy(g, 0j)
        with pytest.raises(ContainmentNotCertified):
            build_chain(sigma, g, sigma.gamma1, PuncturedPlane((0j,)))

    def test_refusal_is_genuine(self):
        # the star's last member is the puncture itself, and the sampled
        # homotopy grid really does approach the puncture
        sigma = star_null_homotopy(circle(), 0j)
        with pytest.raises(ContainmentNotCertified) as exc_info:
            build_chain(sigma, sigma.gamma0, sigma.gamma1, PuncturedPlane((0j,)))
        assert exc_info.value.min_complement_distance <= 0
        net = homotopy_carrier(sigma, 0.05)
        assert float(np.abs(net.net).min()) <= 0.1

    def test_endpoint_mismatch_detected(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        sigma = linear_homotopy(g0, g1)
        with pytest.raises(EndpointMismatch):
            build_chain(sigma, g1, g0, ANNULUS)

    def test_an_equal_copy_of_an_end_is_refused(self):
        # the chain's ends are the homotopy's own objects, not paths that
        # agree with them: an equal copy of either is refused
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        sigma = linear_homotopy(g0, g1)
        for ends, name in (((circle(radius=1.0), g1), "gamma0"),
                           ((g0, circle(radius=1.5)), "gamma1")):
            with pytest.raises(EndpointMismatch, match=f"{name} is not the homotopy's own"):
                build_chain(sigma, *ends, ANNULUS)

    def test_deterministic_rebuild(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        c1 = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        c2 = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        assert len(c1.members) == len(c2.members)
        assert c1.epsilon == c2.epsilon
        assert np.array_equal(c1.clearances, c2.clearances)
        for m1, m2 in zip(c1.members, c2.members):
            assert np.array_equal(m1.vertices(), m2.vertices())
        for e1, e2 in zip(c1.certificate.entries, c2.certificate.entries):
            assert e1.sampled.lo == e2.sampled.lo

    def test_eps_override(self):
        # eps caps every pair bound; one above every clearance caps nothing
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        sigma = linear_homotopy(g0, g1)
        chain = build_chain(sigma, g0, g1, ANNULUS, eps=0.1)
        assert chain.epsilon == 0.1
        assert all(e.sampled.hi < e.analytic <= 0.1 for e in chain.certificate.entries)
        free = build_chain(sigma, g0, g1, ANNULUS)
        large = build_chain(sigma, g0, g1, ANNULUS, eps=10.0)
        assert [e.analytic for e in free.certificate.entries] == \
            [e.analytic for e in large.certificate.entries]
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidEpsilon, match="positive finite"):
                build_chain(sigma, g0, g1, ANNULUS, eps=bad)

    def test_star_of_a_square_keeps_four_segments(self):
        # every slice is a square, straight on each side, so its polygonal
        # approximation is the square itself whatever eps is
        g = square(2.0, center=0.1 + 0.1j)
        sigma = star_null_homotopy(g, 0.1 + 0.1j)
        chain = build_chain(sigma, g, sigma.gamma1, Disk(0.1 + 0.1j, 1.55))
        assert len(chain.members) > 3
        assert all(m.num_segments == 4 for m in chain.members[1:-1])

    def test_polyline_endpoints(self):
        # both ends are polylines with their breakpoints on the shared
        # partition, so every pair, the two end pairs too, is exact
        g0 = polyline([1 + 0j, 1j, -1 + 0j, -1j])
        g1 = square(2.4)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, Disk(0j, 3.0))
        assert chain.members[0] is g0 and chain.members[-1] is g1
        entries = chain.certificate.entries
        assert all(entry.exact for entry in entries)
        for entry, p, q in zip(entries, chain.members, chain.members[1:]):
            assert entry.sampled == polyline_sup_distance(p, q)
            assert entry.sampled.lo <= entry.analytic


class TestChainCrossCheck:
    """Every pair is checked from the shared partition's vertices: polyline
    pairs by their exact distance, a curved end pair by its vertex bound."""

    def test_interior_exact_ends_enclosed(self):
        g0, g1 = square(2.0), circle(radius=1.8)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, WIDE_ANNULUS)
        entries, members = chain.certificate.entries, chain.members
        # the square end is exact, the circle end is not
        assert [e.exact for e in entries] == [True] * (len(entries) - 1) + [False]
        for entry, p, q in zip(entries[:-1], members[:-2], members[1:-1]):
            assert entry.sampled == polyline_sup_distance(p, q)
            assert entry.sampled.hi <= entry.analytic
        # the curved end's enclosure holds a dense certified oracle's bounds
        last = entries[-1]
        assert last.sampled.lo <= last.analytic
        assert last.sampled.lo <= dense_sup_upper(members[-2], g1)
        assert dense_sup(members[-2], g1) <= last.sampled.hi
        assert last.sampled.hi <= last.analytic

    def test_star_of_a_square_has_exact_end_entries(self):
        g = square(2.0, center=0.1 + 0.1j)
        sigma = star_null_homotopy(g, 0.1 + 0.1j)
        chain = build_chain(sigma, g, sigma.gamma1, Disk(0.1 + 0.1j, 1.55))
        entries, members = chain.certificate.entries, chain.members
        assert all(e.exact for e in entries)
        assert entries[0].sampled == polyline_sup_distance(members[0], members[1])
        assert entries[-1].sampled == polyline_sup_distance(members[-2], members[-1])

    def test_shared_partition_entries_match_the_breakpoint_union(self):
        # on one shared partition a polyline's values at the breakpoints are
        # its vertices, so the vertex maximum reproduces the union evaluation
        g0, g1 = circle(radius=1.0), ellipse(2.0, 1.2)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, WIDE_ANNULUS)
        interior = zip(chain.certificate.entries[1:-1], chain.members[1:-2], chain.members[2:-1])
        for entry, p, q in interior:
            assert np.array_equal(p.breakpoints, q.breakpoints)
            xs = np.union1d(p.breakpoints, q.breakpoints)
            exact = float(np.abs(p.values(xs) - q.values(xs)).max())
            scale = max(float(np.abs(p.vertices()).max()), float(np.abs(q.vertices()).max()))
            slack = paths_module._POLYLINE_ROUNDING * scale
            assert entry.sampled == Bounds(max(0.0, exact - slack), exact + slack)

    @pytest.mark.parametrize("g0, g1, domain", [
        (circle(radius=1.0), circle(radius=2.0), WIDE_ANNULUS),
        (circle(), ellipse(2.0, 1.0), WIDE_ANNULUS),
        (square(2.0), circle(radius=1.8), WIDE_ANNULUS),
        (circle(), circle(radius=1.2), Annulus(0j, 0.8, 1.4)),
        (square(2.0), constant_path(0j), Disk(0j, 1.55)),
        (ellipse(1.2, 0.8), ellipse(1.4, 1.0), Annulus(0j, 0.6, 1.6)),
    ], ids=["circle-circle", "circle-ellipse", "square-circle", "tight-annulus", "star-square",
            "ellipse-ellipse"])
    def test_certified_bounds_within_the_analytic(self, g0, g1, domain, monkeypatch):
        # every bound comes from the shared partition's vertices: no pair is sampled
        def refuse(*args):
            raise AssertionError("build_chain sampled a pair")

        monkeypatch.setattr(homotopy_module, "sup_distance", refuse)
        monkeypatch.setattr(paths_module, "sup_distance", refuse)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, domain)
        radius, entries = chain.clearances, chain.certificate.entries
        assert [e.analytic for e in entries] == np.maximum(radius[:-1], radius[1:]).tolist()
        for entry in entries:
            assert entry.sampled.hi < entry.analytic

    def test_slice_cap_applies(self, monkeypatch):
        # 1/1e-4 steps, the gap rounded up: refused before any row is
        # blended, with the count in three digits
        g0, g1 = circle(radius=1.0), circle(radius=2.0)
        counts, check = [], homotopy_module._check_budget
        monkeypatch.setattr(homotopy_module, "_check_budget",
                            lambda members, *rest: check(counts.append(members) or members, *rest))
        with pytest.raises(ContainmentNotCertified, match=r"need 1e\+04 members, .* time slices"):
            build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS, eps=1e-4)
        assert counts[-1] == 10002

    @staticmethod
    def _coarse_partition(monkeypatch):
        # the coarse grid's clearance overstated fivefold: steps five times
        # too coarse, which no bisection may repair
        coarse = homotopy_module._coarse_grid
        monkeypatch.setattr(homotopy_module, "_coarse_grid", lambda sigma, domain: (
            5 * coarse(sigma, domain)[0], coarse(sigma, domain)[1]))
        monkeypatch.setattr(homotopy_module, "_MAX_DEPTH", 0)

    def test_broken_time_constant_raises(self, monkeypatch):
        g0, g1 = circle(radius=1.0), circle(radius=2.0)
        self._coarse_partition(monkeypatch)
        with pytest.raises(ContainmentNotCertified, match="pair 0 .* after 0 bisections"):
            build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)

    def test_exact_check_alone_catches_it(self, monkeypatch):
        # with the end pairs' gaps and slack silenced, the interior pairs of
        # a chain five times too coarse in time must still be refused
        g0, g1 = circle(center=-2.0, radius=0.5), circle(center=2.0, radius=0.5)
        gaps = homotopy_module._consecutive_gaps

        def interior_only(rows, reach):
            lo, hi = gaps(rows, reach)
            lo[[0, -1]] = hi[[0, -1]] = 0.0
            return lo, hi

        self._coarse_partition(monkeypatch)
        monkeypatch.setattr(homotopy_module, "_consecutive_gaps", interior_only)
        monkeypatch.setattr(homotopy_module, "_end_slack", lambda *args: 0.0)
        with pytest.raises(ContainmentNotCertified, match="pair 1 .* after 0 bisections"):
            build_chain(linear_homotopy(g0, g1), g0, g1, CHANNEL)

    def test_end_slack_covers_a_last_arcs_seam(self):
        # a chord and a flat arc back that ends 5e-13 off the start, float
        # noise at its size: just below 1 the path runs to the arc's end,
        # while the polyline through its values runs to the start, which
        # the interpolation and rounding terms (some 3e-14) alone miss
        theta = 1e-3
        start = cmath.exp(-1j * theta)
        arc = ArcSegment(0j, 1.0, theta, -theta - 5e-13, 0.5, 1.0)
        path = PiecewisePath([LineSegment(start, arc.start_value, 0.0, 0.5), arc], closed=True)
        xs = np.concatenate([[0.0], 0.5 + np.arange(5001) / 10_000])
        values = path.values(xs)
        pieces = np.repeat([0, 1], [1, 5000])  # the line's panel, then the arc's
        slack = homotopy_module._end_slack(path, path.second_derivative_bounds, pieces,
                                           xs[1:] - xs[:-1], np.abs(values).max())
        near = 1.0 - np.geomspace(1e-4, 1e-12, 200)
        interp = np.interp(near, xs, values.real) + 1j * np.interp(near, xs, values.imag)
        sup = float(np.abs(path.values(near) - interp).max())
        assert path._seam_gap == pytest.approx(5e-13, rel=1e-3)
        assert slack - path._seam_gap < 1e-13 < 4e-13 < sup <= slack

    def test_failing_steps_are_bisected(self):
        # a circle sliding along a channel 0.1 wider than it on each side:
        # the interior members keep 0.1 and pass at the uniform steps, but
        # the end pairs add the circles' interpolation slack, fail, and have
        # their steps bisected once
        g0, g1 = circle(center=-2.0, radius=0.5), circle(center=2.0, radius=0.5)
        sigma = linear_homotopy(g0, g1)
        chain = build_chain(sigma, g0, g1, CHANNEL)
        _, _, _, scale = _proposal(sigma, CHANNEL)
        steps = math.ceil(4 * (1 + homotopy_module._BLEND_ROUNDING) / scale)
        uniform = np.arange(steps + 1) / steps
        mids = [uniform[1] / 2, (uniform[-2] + 1) / 2]
        assert np.array_equal(chain.partition, np.insert(uniform, [1, steps], mids))
        assert all(e.sampled.hi < e.analytic <= 0.1 for e in chain.certificate.entries)


def _proposal(sigma, domain, eps=math.inf):
    """(xs, P0, P1, r): the shared partition and end values ``build_chain``
    takes, and r = min(M, eps), which sizes it and the time steps."""
    scale = min(homotopy_module._coarse_grid(sigma, domain)[0], eps)
    panels = sigma.panels(homotopy_module._PARTITION_FRACTION * scale)
    xs, _, p0, p1 = sigma.shared_vertices(panels)
    return xs, p0, p1, scale


def _gap(sigma, domain, eps=math.inf):
    """max |P1 - P0| over the shared partition, and the clearance r sizing it."""
    _, p0, p1, scale = _proposal(sigma, domain, eps)
    return float(np.abs(p1 - p0).max()), scale


class TestTimePartition:
    """The time axis is split by the exact gap of the end paths on the shared partition."""

    @pytest.fixture
    def blends(self):
        """(homotopy, chain) for a circle blended into a circle and into an ellipse."""
        g0 = circle(radius=1.0)
        out = []
        for g1 in (circle(radius=1.5), ellipse(2.0, 1.2)):
            sigma = linear_homotopy(g0, g1)
            out.append((sigma, build_chain(sigma, g0, g1, WIDE_ANNULUS, eps=0.1)))
        return out

    def test_time_constant_is_the_certified_gap(self, blends):
        # interior members differ by exactly |dt| max |P1 - P0|, at a vertex
        for sigma, chain in blends:
            gap, _ = _gap(sigma, WIDE_ANNULUS, 0.1)
            ts = chain.partition
            for t0, t1, p, q in zip(ts[1:-2], ts[2:-1], chain.members[1:-2], chain.members[2:-1]):
                assert polyline_sup_distance(p, q).contains((t1 - t0) * gap)

    def test_step_below_a_sixth_of_eps(self, blends):
        # the steps are uniform, each moving the members by at most the
        # clearance r = min(M, eps) that sizes them, or halves of those where
        # a pair failed
        for sigma, chain in blends:
            gap, scale = _gap(sigma, WIDE_ANNULUS, 0.1)
            ts = chain.partition
            assert scale == 0.1
            assert ts[0] == 0.0 and ts[-1] == 1.0
            halvings = np.log2(np.diff(ts).max() / np.diff(ts))
            assert np.allclose(halvings, np.round(halvings), atol=1e-9)
            assert np.all(np.diff(ts) * gap <= scale)

    def test_member_count_from_time_constant(self, blends):
        # ceil(D+ / r) uniform steps, D+ rounded up: one fewer would move the
        # members by more than r.  Only failing pairs add members.
        for sigma, chain in blends:
            gap, scale = _gap(sigma, WIDE_ANNULUS, 0.1)
            rounded = gap * (1 + homotopy_module._BLEND_ROUNDING)
            steps = math.ceil(rounded / scale)
            assert steps >= 2 and rounded / (steps - 1) > scale
            assert np.isin(np.arange(steps + 1) / steps, chain.partition).all()
            assert len(chain.partition) <= 2 * steps + 1
            assert all(e.sampled.hi < e.analytic for e in chain.certificate.entries)

    def test_members_within_a_ninth_of_eps_of_their_slices(self, blends):
        # the partition is sized for r/4, so each member is within 2/3 of
        # that, r/6, of its slice
        for sigma, chain in blends:
            xs, p0, p1, scale = _proposal(sigma, WIDE_ANNULUS, 0.1)
            for t, member in zip(chain.partition[1:-1], chain.members[1:-1]):
                assert np.array_equal(member.breakpoints, xs)
                assert np.array_equal(member.vertices(), (1 - t) * p0 + t * p1)
                n = _oracle_points(member, sigma, scale / 2000)
                assert slice_sup_upper(member, sigma, t, n) <= scale / 6

    def test_constant_homotopy_is_its_two_ends(self):
        g = ellipse(2.0, 1.0)
        chain = build_chain(linear_homotopy(g, g), g, g, WIDE_ANNULUS)
        assert np.array_equal(chain.partition, [0.0, 1.0])
        assert chain.members == (g, g)


@pytest.mark.parametrize("center, radius", [(0j, 1e-12), (1e6 + 0j, 1.0)],
                         ids=["radius-1e-12", "center-1e6"])
class TestEndpointCheckScale:
    """An end that is not the homotopy's own is refused, at any scale."""

    def test_true_mismatch_refused(self, center, radius):
        g0, g1 = circle(center, radius), circle(center, 1.5 * radius)
        with pytest.raises(EndpointMismatch):
            build_chain(linear_homotopy(g0, g1), g1, g0,
                        Annulus(center, 0.5 * radius, 2.5 * radius))


def _random_chain_case(rng):
    """A random homotopy of circles, ellipses and polygons with a disk,
    annulus, rectangle or punctured plane around it, from roomy to tight to
    crossing it."""
    c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    r = rng.uniform(0.3, 2.0)

    def path(scale):
        kind = rng.choice(["circle", "ellipse", "square", "polygon", "point"])
        centre = c + complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) * r
        if kind == "circle":
            return circle(centre, scale * r)
        if kind == "ellipse":
            return ellipse(scale * r * rng.uniform(0.5, 1.5), scale * r * rng.uniform(0.5, 1.5),
                           centre)
        if kind == "square":
            return square(2 * scale * r, centre)
        if kind == "polygon":
            return random_polyline(rng, rng.randint(3, 9), radius=scale * r, center=centre)
        return constant_path(centre)

    g0, g1 = path(1.0), path(rng.uniform(0.5, 2.0))
    kind = rng.choice(["annulus", "disk", "rectangle", "punctured"])
    if kind == "annulus":
        domain = Annulus(c, rng.uniform(0.0, 0.6) * r, rng.uniform(1.5, 4.5) * r)
    elif kind == "disk":
        domain = Disk(c, rng.uniform(1.2, 4.5) * r)
    elif kind == "rectangle":
        h = rng.uniform(1.2, 4.5) * r
        domain = Rectangle(c - h * (1 + 1j), c + h * (1 + 1j))
    else:
        puncture = c + rng.uniform(0.0, 3.0) * r * cmath.exp(2j * math.pi * rng.random())
        domain = PuncturedPlane((puncture,))
    return linear_homotopy(g0, g1), domain


class _Perturbed(Homotopy):
    """A proposer that is not a blend: the blend's rows with 0 < t < 1, each
    vertex moved by a seeded random offset of modulus ``size`` (the closing
    one by the first's, so the rows stay closed), and its end rows, bit for
    bit."""

    def __init__(self, sigma: Homotopy, size: float, seed: int):
        super().__init__(sigma.gamma0, sigma.gamma1)
        self.size = size
        self.rng = np.random.default_rng(seed)

    def rows(self, ts, p0, p1):
        rows = super().rows(ts, p0, p1)
        ts = np.asarray(ts, dtype=np.float64)
        inner = (ts > 0) & (ts < 1)
        turns = self.rng.uniform(size=(int(inner.sum()), rows.shape[1]))
        turns[:, -1] = turns[:, 0]
        rows[inner] += self.size * np.exp(2j * math.pi * turns)
        return rows


def _inradius(domain) -> float:
    """The largest complement distance in a disk, annulus or rectangle: no
    member keeps more clearance than that."""
    if isinstance(domain, Disk):
        return domain.radius
    if isinstance(domain, Annulus):
        return (domain.r_outer - domain.r_inner) / 2
    return min((domain.corner_hi - domain.corner_lo).real,
               (domain.corner_hi - domain.corner_lo).imag) / 2


class TestIndependentCertificate:
    """Every certificate entry checked apart from the builder: a dense
    sample's gap is at most the certified gap, the certified gap is below
    the pair's bound, one of the pair's members keeps at least that bound
    from the complement on a dense sample, and every vertex is inside."""

    @staticmethod
    def _check(chain, domain):
        members = chain.members
        dense = [domain.complement_distances(m.values(np.arange(4001) / 4000)).min()
                 for m in members]
        for k, entry in enumerate(chain.certificate.entries):
            p, q = members[k], members[k + 1]
            assert dense_sup(p, q) <= entry.sampled.hi
            assert entry.sampled.hi < entry.analytic
            assert max(dense[k], dense[k + 1]) >= entry.analytic
        for member in members:
            assert np.all(domain.complement_distances(member.vertices()) > 0)

    def test_random_chains(self):
        rng = random.Random(21)
        built = refused = 0
        for _ in range(160):
            sigma, domain = _random_chain_case(rng)
            try:
                chain = build_chain(sigma, sigma.gamma0, sigma.gamma1, domain)
            except ContainmentNotCertified:
                refused += 1
                continue
            built += 1
            self._check(chain, domain)
        # the draws reach certified chains of every size and refusals
        assert built >= 60 and refused >= 10

    def test_a_proposer_that_is_not_a_blend(self):
        # the certificate never uses the blend: rows moved off it by 1 % of
        # the coarse clearance certify where they may, and pass the same
        # checks; moved by more than any clearance in the domain, the chain
        # next to an end is never close enough, and is refused
        rng = random.Random(21)
        built = moved = refused = 0
        for seed in range(80):
            sigma, domain = _random_chain_case(rng)
            clearance = homotopy_module._coarse_grid(sigma, domain)[0]
            if not clearance > 0:
                continue
            proposer = _Perturbed(sigma, 0.01 * clearance, seed)
            try:
                chain = build_chain(proposer, sigma.gamma0, sigma.gamma1, domain)
            except ContainmentNotCertified:
                continue
            built += 1
            self._check(chain, domain)
            assert chain.members[0] is sigma.gamma0 and chain.members[-1] is sigma.gamma1
            if not len(chain.rows):  # the ends alone: nothing was moved
                continue
            rows, _ = _eager_members(sigma, chain)
            assert np.allclose(np.abs(chain.rows - rows), proposer.size, rtol=1e-6, atol=0)
            moved += 1
            if isinstance(domain, PuncturedPlane):
                continue
            # the same first proposal, its interior rows moved too far
            far = _Perturbed(sigma, 1.01 * _inradius(domain), seed)
            with pytest.raises(ContainmentNotCertified):
                build_chain(far, sigma.gamma0, sigma.gamma1, domain)
            refused += 1
        assert built >= 40 and moved >= 20 and refused >= 10


class _Shifted(Homotopy):
    """The blend with its rows at the times ``at(ts)`` picks moved by
    ``shift`` at the vertices ``columns``, and a count of its calls."""

    def __init__(self, sigma: Homotopy, at, shift: complex, columns=slice(None)):
        super().__init__(sigma.gamma0, sigma.gamma1)
        self.at, self.shift, self.columns, self.calls = at, shift, columns, 0

    def rows(self, ts, p0, p1):
        rows = super().rows(ts, p0, p1)
        self.calls += 1
        rows[np.ix_(self.at(np.asarray(ts, dtype=np.float64), self.calls), np.arange(rows.shape[1])
                    [self.columns])] += self.shift
        return rows


class TestProposalContract:
    """A proposal that is not the blend must give closed rows with the end
    values at t = 0 and t = 1; ``build_chain`` refuses any other, naming
    the row.  The blend itself is not checked."""

    # a circle sliding along a channel: its end pairs are bisected once
    SIGMA = linear_homotopy(circle(center=-2.0, radius=0.5), circle(center=2.0, radius=0.5))

    @pytest.mark.parametrize("t, name", [(0.0, "gamma0"), (1.0, "gamma1")])
    def test_an_end_row_moved_by_a_rounding_is_refused(self, t, name):
        # moved as a whole, so the row still closes; 1e-12 is far inside
        # every clearance, but the chain's ends are the homotopy's own
        proposer = _Shifted(self.SIGMA, lambda ts, _: ts == t, 1e-12)
        with pytest.raises(ValueError, match=f"row at t={t:g} is not {name}'s values"):
            build_chain(proposer, proposer.gamma0, proposer.gamma1, CHANNEL)

    def _blend_times(self):
        """The blend's chain partition: its uniform steps, with the first
        and the last bisected."""
        return build_chain(self.SIGMA, self.SIGMA.gamma0, self.SIGMA.gamma1, CHANNEL).partition

    def test_an_open_interior_row_is_refused(self):
        # a first interior vertex moved, so its row no longer closes
        proposer = _Shifted(self.SIGMA, lambda ts, _: (ts > 0) & (ts < 1), 1e-12, slice(0, 1))
        first_step = self._blend_times()[2]
        with pytest.raises(ValueError, match=f"row at t={first_step:.6g} does not close"):
            build_chain(proposer, proposer.gamma0, proposer.gamma1, CHANNEL)
        assert proposer.calls == 1

    def test_an_open_bisection_row_is_refused(self):
        # the first rows keep the contract; the rows of a bisection do not
        proposer = _Shifted(self.SIGMA, lambda ts, calls: np.full(ts.size, calls > 1), 1e-12,
                            slice(0, 1))
        bisection = self._blend_times()[1]
        with pytest.raises(ValueError, match=f"row at t={bisection:.6g} does not close"):
            build_chain(proposer, proposer.gamma0, proposer.gamma1, CHANNEL)
        assert proposer.calls == 2

    def test_the_same_proposal_unmoved_gives_the_blends_chain(self):
        proposer = _Shifted(self.SIGMA, lambda ts, _: np.zeros(ts.size, dtype=bool), 1e-12)
        chain = build_chain(proposer, proposer.gamma0, proposer.gamma1, CHANNEL)
        blend = build_chain(self.SIGMA, self.SIGMA.gamma0, self.SIGMA.gamma1, CHANNEL)
        assert chain.rows.tobytes() == blend.rows.tobytes()
        assert chain.partition.tobytes() == blend.partition.tobytes()


def _random_chains(seed: int, count: int):
    """(sigma, chain) for the ``_random_chain_case`` draws that certify."""
    rng = random.Random(seed)
    for _ in range(count):
        sigma, domain = _random_chain_case(rng)
        try:
            yield sigma, build_chain(sigma, sigma.gamma0, sigma.gamma1, domain)
        except ContainmentNotCertified:
            continue


def _benchmark_specs(monkeypatch, names=("annulus_verify", "tight_chain")):
    """The spec documents of the benchmark's workloads ``names``, seeds 101-105."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    return [SpecDocument.from_dict(op.inputs) for workload in names
            for seed in range(101, 106) for op in workloads.build(workload, seed)]


def _spec_chain(spec):
    sigma, g0, g1 = spec.build_homotopy()
    return sigma, build_chain(sigma, g0, g1, spec.domain, eps=spec.eps)


def _eager_members(sigma, chain):
    """(rows, members): the homotopy's blend at the chain's interior times,
    on its partition, and the interior members as ``build_chain`` made them
    when it built them eagerly, ``from_vertex_rows`` views of those rows."""
    xs = chain.breakpoints
    p0, p1 = sigma.gamma0.values(xs), sigma.gamma1.values(xs)
    p0[-1], p1[-1] = p0[0], p1[0]
    rows = sigma.rows(chain.partition[1:-1], p0, p1)
    return rows, PiecewisePath.from_vertex_rows(rows, xs, closed=True)


def _member_csv(chain) -> str:
    """The chain's CSV rendered member by member, from path objects."""
    rows = (f"{m},{k},{t:.17g},{z.real:.17g},{z.imag:.17g}"
            for m, member in enumerate(chain.members)
            for k, (t, z) in enumerate(zip(member.breakpoints, member.vertices())))
    return "\n".join(["member,index,t,re,im", *rows]) + "\n"


class TestChainRows:
    """A chain's data are its interior rows, their shared partition and its
    two end paths; a member becomes a path object only when asked for."""

    def test_members_on_demand_equal_the_eager_ones(self, monkeypatch):
        chains = [*_random_chains(21, 80), *map(_spec_chain, _benchmark_specs(monkeypatch))]
        assert len(chains) >= 60
        for sigma, chain in chains:
            assert "members" not in vars(chain)
            rows, eager = _eager_members(sigma, chain)
            assert chain.rows.shape == rows.shape and chain.rows.tobytes() == rows.tobytes()
            members = chain.members
            assert chain.members is members  # built once
            assert len(members) == len(chain) == len(eager) + 2
            assert members[0] is chain.gamma0 and members[-1] is chain.gamma1
            for lazy, made in zip(members[1:-1], eager):
                assert lazy.breakpoints.tobytes() == made.breakpoints.tobytes()
                assert lazy.vertices().tobytes() == made.vertices().tobytes()
                assert lazy.derivative_bounds.tobytes() == made.derivative_bounds.tobytes()
                assert lazy.lipschitz_bound == made.lipschitz_bound

    def test_building_and_reporting_build_no_member(self, monkeypatch):
        specs = _benchmark_specs(monkeypatch, ["annulus_verify"])
        rng = random.Random(5)
        cases = [_random_chain_case(rng) for _ in range(60)]
        calls = counted_vertex_rows(monkeypatch)
        built = 0
        for sigma, domain in cases:
            try:
                chain = build_chain(sigma, sigma.gamma0, sigma.gamma1, domain)
            except ContainmentNotCertified:
                continue
            built += 1
            len(chain), chain.to_dict(), chain.certificate.summary_text(), chain_csv(chain)
            assert "members" not in vars(chain)
        for spec in specs:
            sigma, g0, g1 = spec.build_homotopy()
            report = verify_homotopy_invariance(spec.function, g0, g1, sigma, spec.domain,
                                                spec.tol, eps=spec.eps)
            assert report.passed and report.members == len(report.integrals)
            report.to_dict(), report.format_text()
            assert "members" not in vars(report.chain)
        assert built >= 20 and calls == []

    def test_chain_csv_is_the_member_rendering(self, monkeypatch):
        specs = _benchmark_specs(monkeypatch)[::5]
        for _, chain in [*_random_chains(21, 40), *map(_spec_chain, specs)]:
            assert chain_csv(chain) == _member_csv(chain)
        # a row whose last vertex is float noise off its first closes on the
        # first, as its polyline does
        rows = np.array([[1, 1j, -1, -1j, 1 + 1e-14j]])
        noisy = homotopy_module.Chain(
            gamma0=circle(), rows=rows, breakpoints=np.arange(5) / 4, gamma1=circle(radius=2.0),
            epsilon=None, certificate=homotopy_module.ChainCertificate(()),
            partition=np.array([0.0, 0.5, 1.0]), clearances=np.full(3, 0.5))
        assert chain_csv(noisy) == _member_csv(noisy)
        assert "1,4,1,1,0\n" in chain_csv(noisy)

    def test_integrals_from_the_rows_are_each_member_alone(self, monkeypatch):
        # a pole 1e-3 off the middle of a segment of an interior member:
        # that member, and any other as close, is graded from the line table
        # of the rows, with no view of a row made; a chain whose members
        # cannot all be integrated fails at the lowest member that fails alone
        from contourchain import integrate

        rng = random.Random(8)
        compared = failed = 0
        views = counted_vertex_rows(monkeypatch)
        cut = []
        cuts = integrate._cuts
        monkeypatch.setattr(integrate, "_cuts", lambda *args: cut.append(cuts(*args)) or cut[-1])
        for _, chain in _random_chains(34, 60):
            if len(chain) < 3 or compared + failed >= 24:
                continue
            row = chain.rows[rng.randrange(len(chain.rows))]
            k = rng.randrange(row.size - 1)
            a, b = row[k], row[k + 1]
            if a == b:  # a member that stands still is never graded
                continue
            pole = (a + b) / 2 + 1e-3 * 1j * (b - a) / abs(b - a)
            f = AnalyticFunction(Div(Const(1 + 0j), Sub(Var(), Const(pole))), (pole,))
            views.clear()
            cut.clear()
            try:
                results = integral_along_chain(f, chain, 1e-9).results
            except (NearSingularity, ToleranceNotReached) as exc:
                failed += 1
                with pytest.raises(type(exc)) as alone:
                    contour_integral(f, chain.members[exc.member_index], 1e-9)
                assert str(alone.value) == str(exc)
                continue
            compared += 1
            assert views == [] and any(cut)
            assert "members" not in vars(chain)
            for member, result in zip(chain.members, results):
                single = contour_integral(f, member, 1e-9)
                assert (result.value, result.error_estimate, result.evaluations) == (
                    single.value, single.error_estimate, single.evaluations)
        assert compared >= 10


class TestContainmentRound:
    """Containment is each member's own clearance, checked in closed form on
    the vertex array; a homotopy that leaves the domain, or a chain that
    cannot be certified within the budgets, is refused."""

    def test_sweeping_outside_on_the_coarse_grid(self):
        # M <= 0: an exact minimum over swept time segments refuses at once
        sigma = linear_homotopy(circle(radius=1.0), circle(radius=3.0))
        assert homotopy_module._coarse_grid(sigma, WIDE_ANNULUS)[0] <= 0
        with pytest.raises(ContainmentNotCertified, match="sweeps outside .* at 17 points"):
            build_chain(sigma, sigma.gamma0, sigma.gamma1, WIDE_ANNULUS)

    def test_collapsing_square_refused(self):
        # the square against itself started two vertices later collapses
        # through 0 at t = 1/2
        verts = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]
        g0, g1 = polyline(verts), polyline(verts[2:] + verts[:2])
        with pytest.raises(ContainmentNotCertified, match="min complement distance -0.5 "):
            build_chain(linear_homotopy(g0, g1), g0, g1, WIDE_ANNULUS)

    @staticmethod
    def _spiked_square(tip):
        # a square with a spike at x = 1/32, between the coarse grid's points
        g = square(2.0)
        xs = np.arange(65) / 64
        verts = g.values(xs)
        verts[2] = tip
        return PiecewisePath.from_vertices(verts, xs, closed=True)

    def test_sweeping_outside_between_coarse_points(self):
        # M > 0 in a roomy disk, but the members through the spike leave it
        sigma = star_null_homotopy(self._spiked_square(40.0 + 0j), 0j)
        domain = Disk(0j, 20.0)
        assert homotopy_module._coarse_grid(sigma, domain)[0] > 0
        with pytest.raises(ContainmentNotCertified, match="sweeps outside .* member at t=0 "):
            build_chain(sigma, sigma.gamma0, sigma.gamma1, domain)

    def test_sweeping_outside_that_the_coarse_grid_misses(self):
        # M > 0 but small: the spiked square itself is outside the disk
        sigma = star_null_homotopy(self._spiked_square(2.0 + 0j), 0j)
        domain = Disk(0j, 1.5)
        assert 0 < homotopy_module._coarse_grid(sigma, domain)[0] < 0.1
        with pytest.raises(ContainmentNotCertified) as refusal:
            build_chain(sigma, sigma.gamma0, sigma.gamma1, domain)
        assert "sweeps outside the domain: the member at t=0 " in str(refusal.value)
        assert refusal.value.min_complement_distance == pytest.approx(-0.5, abs=1e-9)

    @staticmethod
    def _count_rows(monkeypatch):
        rows = []
        blend = Homotopy.rows

        def counted(self, ts, p0, p1):
            rows.append(np.size(ts))
            return blend(self, ts, p0, p1)

        monkeypatch.setattr(Homotopy, "rows", counted)
        return rows

    def test_budget_exceeded(self, monkeypatch):
        # a clearance of 1e-6 needs 500,000 time steps, far past the slice
        # budget: refused before any row is blended, and at 1e-13 before a
        # partition of 2e7 panels is built.  A homotopy that does not move
        # takes one step, but its two members would need that partition.
        rows = self._count_rows(monkeypatch)
        built = []
        monkeypatch.setattr(Homotopy, "shared_vertices", lambda *args: built.append(args))
        sigma = linear_homotopy(circle(radius=1.0), circle(radius=1.5))
        for gap in (1e-6, 1e-13):
            with pytest.raises(ContainmentNotCertified, match="members, over the budget of 4000"):
                build_chain(sigma, sigma.gamma0, sigma.gamma1, Annulus(0j, 1.0 - gap, 2.0))
        still = linear_homotopy(circle(radius=1.0), circle(radius=1.0))
        with pytest.raises(ContainmentNotCertified,
                           match="2 members of 1.72e[+]07 vertices, over the budget of 2000000"):
            build_chain(still, still.gamma0, still.gamma1, Annulus(0j, 1.0 - 1e-13, 2.0))
        assert rows == [] and built == []

    def test_long_segments_across_a_puncture_refused(self):
        # two long rectangles, one about the puncture and one above it,
        # wind about it once and not at all, so no homotopy between them
        # misses it; |b - a|^2 overflows on their long sides
        length = 1.38e154
        g0 = polyline([0, length, length + 3j, 3j])
        g1 = polyline([4j, length + 4j, length + 7j, 7j])
        with pytest.raises(ContainmentNotCertified):
            build_chain(linear_homotopy(g0, g1), g0, g1, PuncturedPlane((0.3 * length + 1.5j,)))

    def test_coarse_partition_is_refined(self):
        # a puncture 0.02 inside the circle at x = 1/32, between the coarse
        # grid's points: M is about 0.195, and on the partition it sizes
        # the circle's chord there passes within 0.0008 of the puncture,
        # less than the circle's interpolation slack 0.019.  Panels half as
        # wide certify the chain; without them it is refused.
        g0, g1 = circle(radius=1.0), circle(radius=1.2)
        sigma = linear_homotopy(g0, g1)
        domain = PuncturedPlane((0.98 * cmath.exp(1j * math.pi / 16),))
        assert _proposal(sigma, domain)[0].size == 17
        chain = build_chain(sigma, g0, g1, domain)
        assert chain.members[1].num_segments > 16
        xs = np.arange(4001) / 4000
        for k, entry in enumerate(chain.certificate.entries):
            p, q = chain.members[k], chain.members[k + 1]
            assert dense_sup(p, q) <= entry.sampled.hi < entry.analytic
            assert max(domain.complement_distances(m.values(xs)).min() for m in (p, q)) \
                >= entry.analytic

    def test_refinement_cap_applies(self, monkeypatch):
        # the same chain with no finer partition allowed: the member at t=0
        # is within twice the larger slack of the puncture, and not certified
        monkeypatch.setattr(homotopy_module, "_FINER_PARTITIONS", 0)
        g0, g1 = circle(radius=1.0), circle(radius=1.2)
        domain = PuncturedPlane((0.98 * cmath.exp(1j * math.pi / 16),))
        with pytest.raises(ContainmentNotCertified,
                           match=r"outside the domain or within 0\.0463 of its boundary: "
                                 "the member at t=0 "):
            build_chain(linear_homotopy(g0, g1), g0, g1, domain)

    def test_refinements_exhausted(self, monkeypatch):
        # the blend crosses the puncture, where the members on either side
        # of it keep failing: refused at the bisection cap, within the budget
        rows = self._count_rows(monkeypatch)
        sigma = linear_homotopy(circle(radius=1.0), circle(radius=2.0))
        with pytest.raises(ContainmentNotCertified, match="after 20 bisections"):
            build_chain(sigma, sigma.gamma0, sigma.gamma1, PuncturedPlane((1.5 + 0.01j,)))
        assert sum(rows) <= homotopy_module._MAX_SLICES


def _half_disk() -> PiecewisePath:
    """The upper unit half-disk's boundary: an arc over [0, 1/2], its chord back."""
    arc = ArcSegment(0j, 1.0, 0.0, math.pi, 0.0, 0.5)
    return PiecewisePath([arc, LineSegment(arc.end_value, arc.start_value, 0.5, 1.0)], closed=True)


def _midpoint_slack(path: PiecewisePath, values: np.ndarray, xs: np.ndarray) -> float:
    """``_end_slack`` as it was taken before the piece index: each panel's
    |z''| bound searched at the panel's midpoint, kept as the oracle."""
    if path._all_lines:
        return 0.0
    panels = np.diff(xs)
    mids = (xs[:-1] + xs[1:]) / 2
    segments = np.searchsorted(path.breakpoints, mids, side="right") - 1
    second = path.second_derivative_bounds[segments]
    return (float((panels * panels * second).max()) / 8
            + homotopy_module._BLEND_ROUNDING * float(np.abs(values).max()) + path._seam_gap)


def _piece_cases():
    """Homotopies whose ends split [0, 1] differently: a mixed path, a
    one-segment ellipse against a circle, polylines on different
    breakpoints, a star onto a constant, and random built-in pairs."""
    rng = random.Random(31)
    yield linear_homotopy(_half_disk(), circle(0.1j, 1.3))
    yield linear_homotopy(circle(0.1, 1.4), _half_disk().reverse())
    yield linear_homotopy(ellipse(1.2, 0.8, 0.1j), circle(radius=1.5))
    yield linear_homotopy(random_polyline(rng, 5), random_polyline(rng, 7, radius=1.5))
    yield star_null_homotopy(square(2.0, 0.1j), 0.1j)
    yield star_null_homotopy(circle(0.2, 1.1), 0.3j)
    for _ in range(30):
        yield linear_homotopy(random_builtin_path(rng), random_builtin_path(rng))


class TestPieceIndex:
    """``shared_vertices`` reads each end from its own tables on the rows of
    the segments holding ``partition_points``' pieces, and ``_end_slack``
    gathers their |z''| bounds by the same index: the bits of
    ``gamma.values`` and of the midpoint search they replace."""

    @staticmethod
    def _ends(sigma):
        return ((sigma.gamma0, sigma._rows0, sigma._second0),
                (sigma.gamma1, sigma._rows1, sigma._second1))

    def test_end_values_and_slack_match_their_searched_forms(self):
        cases = 0
        for sigma in _piece_cases():
            union = np.union1d(sigma.gamma0.breakpoints, sigma.gamma1.breakpoints)
            assert sigma._breaks.tobytes() == union.tobytes()
            for k in range(12):  # tolerances down by 4, as build_chain refines them
                panels = sigma.panels(4.0 ** -k)
                if panels.sum() > 20_000:
                    break
                xs, pieces, *values = sigma.shared_vertices(panels)
                widths = xs[1:] - xs[:-1]
                for (path, rows, second), mine in zip(self._ends(sigma), values):
                    assert np.array_equal(rows[pieces], path._rows[path._segment_indices(xs[:-1])])
                    theirs = path.values(xs)
                    theirs[-1] = theirs[0]
                    assert mine.tobytes() == theirs.tobytes()
                    slack = homotopy_module._end_slack(path, second, pieces, widths,
                                                       np.abs(mine).max())
                    assert slack == _midpoint_slack(path, mine, xs)
                    cases += 1
        assert cases > 300

    def test_piece_index_holds_at_the_vertex_budget(self):
        # partitions of about _MAX_VERTICES points, as fine as a chain gets:
        # every point but the last lies in its panel's piece and segment
        for sigma in list(_piece_cases())[:6]:
            pieces_count = sigma._breaks.size - 1
            counts = np.full(pieces_count, float(homotopy_module._MAX_VERTICES // pieces_count))
            xs, pieces = homotopy_module.partition_points(sigma._breaks, counts)
            for path, rows, _ in self._ends(sigma):
                assert np.array_equal(rows[pieces], path._rows[path._segment_indices(xs[:-1])])


class TestChainWork:
    """One chain build does a fixed number of array passes."""

    def test_no_path_evaluation_and_one_bounds_check_per_chain(self, monkeypatch):
        # the ends are read from their tables on the piece index, and the
        # pair bounds are checked once, on the chain returned, however many
        # rounds of bisection or finer partitions it took
        rng = random.Random(37)
        cases = [_random_chain_case(rng) for _ in range(80)]
        cases.append((linear_homotopy(circle(-2.0, 0.5), circle(2.0, 0.5)), CHANNEL))
        values = counted_calls(monkeypatch, PiecewisePath, "values")
        ranges = counted_calls(monkeypatch, PiecewisePath, "_check_range")
        checks = counted_calls(monkeypatch, Bounds, "check_arrays")
        proposals = counted_calls(monkeypatch, Homotopy, "rows")
        built = rounds = 0
        for sigma, domain in cases:
            before, proposed = len(checks), len(proposals)
            try:
                build_chain(sigma, sigma.gamma0, sigma.gamma1, domain)
            except ContainmentNotCertified:
                continue
            built += 1
            rounds += len(proposals) - proposed > 1
            assert len(checks) == before + 1
        assert values == [] and ranges == []
        assert built >= 30 and rounds >= 3

    def test_each_end_path_evaluated_at_most_three_times(self, monkeypatch):
        # the coarse grid and the shared partition
        g0, g1 = circle(radius=1.0), circle(radius=1.2)
        calls = {id(g0): 0, id(g1): 0}
        values = PiecewisePath.values

        def counted(self, xs):
            if id(self) in calls:
                calls[id(self)] += 1
            return values(self, xs)

        monkeypatch.setattr(PiecewisePath, "values", counted)
        build_chain(linear_homotopy(g0, g1), g0, g1, Annulus(0j, 0.8, 1.4))
        assert calls[id(g0)] <= 2 and calls[id(g1)] <= 2

    @staticmethod
    def _corrupt_gaps(monkeypatch, corrupt):
        gaps = homotopy_module._consecutive_gaps

        def corrupted(rows, reach):
            lo, hi = gaps(rows, reach)
            corrupt(lo, hi)
            return lo, hi

        monkeypatch.setattr(homotopy_module, "_consecutive_gaps", corrupted)

    @pytest.mark.parametrize("corrupt", [
        lambda lo, hi: hi.__setitem__(2, lo[2] - 1.0),
        lambda lo, hi: lo.__setitem__(2, np.nan),
        lambda lo, hi: hi.__setitem__(2, np.inf),
    ], ids=["inverted", "nan-lo", "inf-hi"])
    def test_bad_pair_bound_refused(self, monkeypatch, corrupt):
        # refused, never certified: a bound past the float range at once,
        # since no bisection mends it, and an inverted or nan one by the one
        # check of the bounds the chain would be returned with
        g0, g1 = circle(radius=1.0), circle(radius=2.0)
        self._corrupt_gaps(monkeypatch, corrupt)
        with pytest.raises(ValueError):
            build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS, eps=0.1)

    def test_violation_names_the_lowest_failing_pair(self, monkeypatch):
        g0, g1 = circle(radius=1.0), circle(radius=2.0)

        def corrupt(lo, hi):
            lo[[5, 3]] = hi[[5, 3]] = 1e3

        self._corrupt_gaps(monkeypatch, corrupt)
        with pytest.raises(ContainmentNotCertified, match="pair 3 of the chain, .* up to 1000 "):
            build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS, eps=0.1)

    def test_pair_bound_arrays_checked_once(self):
        assert Bounds.from_arrays([0.0, 1.0], [0.5, 1.0]) == [Bounds(0.0, 0.5), Bounds(1.0, 1.0)]
        for lo, hi in (([0.0, 2.0], [1.0, 1.0]), ([0.0, np.nan], [1.0, 1.0]),
                       ([0.0, 0.0], [1.0, np.inf])):
            with pytest.raises(ValueError):
                Bounds.from_arrays(lo, hi)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            Bounds.from_arrays(*paths_module._consecutive_gaps(
                np.array([[0j, 1 + 0j], [np.inf + 0j, 1 + 0j]])))
