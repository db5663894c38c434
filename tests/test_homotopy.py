import cmath
import math
import random

import numpy as np
import pytest

from contourchain import (
    Annulus,
    Bounds,
    CertificateViolation,
    ContainmentNotCertified,
    Disk,
    EndpointMismatch,
    Homotopy,
    InvalidEpsilon,
    MismatchedDomains,
    PiecewisePath,
    PuncturedPlane,
    Rectangle,
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
    sup_distance,
)
from contourchain import homotopy as homotopy_module
from contourchain import paths as paths_module
from contourchain.geometry import margin_certificate
from contourchain.homotopy import homotopy_carrier
from conftest import (dense_sup, dense_sup_upper, random_polyline, slice_sup_upper,
                      without_curvature_bound)

ANNULUS = Annulus(0j, 0.25, 3.0)
WIDE_ANNULUS = Annulus(0j, 0.5, 2.5)


class TestStarHomotopy:
    def test_constant_input_stays_constant(self):
        center = 1 - 1j
        sigma = star_null_homotopy(constant_path(center), center)
        assert np.all(sigma.grid_values([0.0, 0.3, 1.0], [0.5]) == center)

    def test_circle_slices_shrink(self):
        sigma = star_null_homotopy(circle(), 0j)
        # slice at t = 0.5 is the circle of radius 0.5
        xs = np.linspace(0, 1, 64)
        expected = 0.5 * np.exp(2j * math.pi * xs)
        assert np.abs(sigma.grid_values([0.5], xs)[0] - expected).max() < 1e-12

    def test_final_slice_is_constant(self):
        sigma = star_null_homotopy(circle(), 0.25j)
        assert sigma.grid_values([1.0], [0.7])[0, 0] == 0.25j
        assert sigma.gamma1.value(0.3) == 0.25j

    def test_grid_matches_pointwise(self):
        sigma = star_null_homotopy(square(2.0), 0.1 + 0.1j)
        ts = np.array([0.0, 0.4, 1.0])
        xs = np.array([0.0, 0.3, 0.9])
        grid = sigma.grid_values(ts, xs)
        g0, g1 = sigma.gamma0, sigma.gamma1
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                assert grid[i, j] == (1 - t) * g0.value(x) + t * g1.value(x)


class TestLinearHomotopy:
    def test_equal_endpoints_give_constant_slices(self):
        g = circle()
        sigma = linear_homotopy(g, g)
        xs = np.linspace(0, 1, 50)
        assert np.abs(sigma.grid_values([0.0, 0.5, 1.0], xs) - g.values(xs)).max() == 0.0

    def test_circle_blend_radius(self):
        sigma = linear_homotopy(circle(radius=1.0), circle(radius=1.5))
        xs = np.linspace(0, 1, 32)
        expected = 1.25 * np.exp(2j * math.pi * xs)
        assert np.abs(sigma.grid_values([0.5], xs)[0] - expected).max() < 1e-12

    def test_circle_square_blend_slices_are_closed(self):
        sigma = linear_homotopy(circle(), square(2.0))
        ends = sigma.grid_values(np.linspace(0, 1, 9), [0.0, 1.0])
        assert np.array_equal(ends[:, 0], ends[:, 1])

    def test_mismatched_intervals_rejected(self):
        with pytest.raises(MismatchedDomains):
            linear_homotopy(circle(), circle(interval=(0.0, 2.0)))

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
            xs, _, _ = sigma.shared_vertices(eps)
            assert np.all(np.isin(breaks, xs))
            counts = np.diff(np.searchsorted(xs, breaks))
            widths = np.diff(breaks)
            assert counts.tolist() == [math.floor(w * math.sqrt(3 * arc_curvature / (16 * eps))) + 1
                                       for w in widths]

    def test_endpoint_slices_exact(self):
        g0, g1 = circle(), ellipse(2.0, 1.0)
        sigma = linear_homotopy(g0, g1)
        xs = np.linspace(0, 1, 257)
        assert np.abs(sigma.grid_values([0.0], xs)[0] - g0.values(xs)).max() == 0.0
        assert np.abs(sigma.grid_values([1.0], xs)[0] - g1.values(xs)).max() == 0.0


def _oracle_points(member, sigma, tol):
    """Grid size at which ``slice_sup_upper`` adds at most 2 tol of slack."""
    return math.ceil((member.lipschitz_bound + sigma.lipschitz) / (4 * tol))


def _members(sigma, ts, eps):
    """The polylines through (1 - t) P0 + t P1 on ``shared_vertices(eps)``, one per t."""
    xs, p0, p1 = sigma.shared_vertices(eps)
    return PiecewisePath.from_vertex_rows(homotopy_module._blend(ts, p0, p1), xs, closed=True)


class TestPolygonalSlices:
    """Slice polylines share one partition and blend the end paths' values on it."""

    @pytest.mark.parametrize("make", [
        lambda: linear_homotopy(circle(), ellipse(2.0, 1.0)),
        lambda: linear_homotopy(square(2.0), circle(radius=1.8)),
        lambda: star_null_homotopy(square(2.0, center=0.1 + 0.1j), 0.1 + 0.1j),
        lambda: linear_homotopy(without_curvature_bound(ellipse(1.0, 0.9)), circle(radius=1.4)),
    ], ids=["circle-ellipse", "square-circle", "star-square", "no-curvature-bound"])
    @pytest.mark.parametrize("eps", [0.1, 0.005])
    def test_same_polylines_as_one_slice_at_a_time(self, make, eps):
        sigma = make()
        ts = np.arange(1, 12) / 12
        xs, p0, p1 = sigma.shared_vertices(eps)
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

    def test_no_curvature_bound_takes_the_first_order_rule(self):
        outer = circle(radius=1.4)
        sigma = linear_homotopy(without_curvature_bound(ellipse(1.0, 0.9)), outer)
        xs, _, _ = sigma.shared_vertices(0.01)
        # four quarter-arc pieces, each at the larger end path's Lipschitz bound
        lipschitz = 2 * math.pi * 1.4
        assert xs.size - 1 == 4 * (math.floor(3 * 0.25 * lipschitz / 0.01) + 1)
        # the rule of one path's polygonal approximation, at the same bounds
        single = polygonal_approximation(without_curvature_bound(outer), 0.01)
        assert np.array_equal(single.path.breakpoints, xs)

    def test_panel_budget_refused_like_one_slice(self):
        sigma = linear_homotopy(circle(), ellipse(2.0, 1.0))
        with pytest.raises(InvalidEpsilon, match="exceeds the budget"):
            polygonal_approximation(sigma.gamma1, 1e-14)
        with pytest.raises(InvalidEpsilon, match="exceeds the budget"):
            sigma.shared_vertices(1e-14)


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
        g = circle()
        sigma = linear_homotopy(g, g)
        chain = build_chain(sigma, g, g, ANNULUS)
        eps = chain.epsilon
        for member in chain.members:
            assert sup_distance(member, g, eps / 24).lo <= eps / 6
        for entry in chain.certificate.entries:
            assert entry.sampled.lo <= entry.analytic

    def test_endpoints_by_identity(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        assert chain.members[0] is g0
        assert chain.members[-1] is g1

    def test_certificate_pattern(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        eps = chain.epsilon
        bounds = [e.analytic for e in chain.certificate.entries]
        assert bounds[0] == eps / 3 and bounds[-1] == eps / 3
        assert all(b == eps / 2 for b in bounds[1:-1])
        assert len(chain.members) == len(bounds) + 1

    def test_vertex_membership_in_inflated_carrier(self):
        # every swept point keeps m - eta = 2 margin from the complement, and
        # every member vertex is a swept point, up to the blend's rounding
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        all_vertices = np.concatenate([m.vertices() for m in chain.members])
        margin = chain.containment.margin
        assert np.all(ANNULUS.complement_distances(all_vertices) >= 2 * margin * (1 - 1e-12))

    def test_margin_relation(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        assert chain.epsilon == chain.containment.margin / 2
        assert chain.containment.margin > 4 * chain.containment.net_resolution

    @pytest.mark.parametrize("radius", [1.6, 1.8, 2.0, 2.5])
    def test_margin_within_the_exact_distance_of_the_swept_region(self, radius):
        # the star of a polygon onto 0 sweeps the polygon, whose farthest
        # points from 0 are vertices; the corners sit between 1-D net points
        verts = [1.2 + 0.3j, -0.2 + 1.4j, -1.3 - 0.1j, 0.1 - 1.1j]
        g = polyline(verts)
        sigma = star_null_homotopy(g, 0j)
        chain = build_chain(sigma, g, sigma.gamma1, Disk(0j, radius))
        assert 2 * chain.containment.margin <= radius - max(abs(v) for v in verts)

    def test_refuses_star_through_puncture(self):
        g = circle()
        sigma = star_null_homotopy(g, 0j)
        with pytest.raises(ContainmentNotCertified):
            build_chain(sigma, g, sigma.gamma1, PuncturedPlane((0j,)))

    def test_refusal_is_genuine(self):
        # the sampled homotopy grid really does approach the puncture
        sigma = star_null_homotopy(circle(), 0j)
        with pytest.raises(ContainmentNotCertified) as exc_info:
            build_chain(sigma, circle(), sigma.gamma1, PuncturedPlane((0j,)))
        eta = exc_info.value.resolution
        assert eta is not None
        net = homotopy_carrier(sigma, eta)
        assert float(np.abs(net.net).min()) <= 2 * eta

    def test_endpoint_mismatch_detected(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        sigma = linear_homotopy(g0, g1)
        with pytest.raises(EndpointMismatch):
            build_chain(sigma, g1, g0, ANNULUS)

    def test_deterministic_rebuild(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        c1 = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        c2 = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        assert len(c1.members) == len(c2.members)
        assert c1.epsilon == c2.epsilon
        for m1, m2 in zip(c1.members, c2.members):
            assert np.array_equal(m1.vertices(), m2.vertices())
        for e1, e2 in zip(c1.certificate.entries, c2.certificate.entries):
            assert e1.sampled.lo == e2.sampled.lo

    def test_eps_override(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        sigma = linear_homotopy(g0, g1)
        chain = build_chain(sigma, g0, g1, ANNULUS, eps=0.1)
        assert chain.epsilon == 0.1
        with pytest.raises(InvalidEpsilon):
            build_chain(sigma, g0, g1, ANNULUS, eps=10.0)

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

    def test_foreign_polyline_end_is_exact(self):
        # an end path that is not the homotopy's own object is evaluated on
        # the shared partition; a polyline with its breakpoints there is exact
        g0, g1 = square(2.0), circle(radius=1.8)
        same = square(2.0)
        chain = build_chain(linear_homotopy(g0, g1), same, g1, WIDE_ANNULUS)
        first = chain.certificate.entries[0]
        assert chain.members[0] is same and first.exact
        assert first.sampled == polyline_sup_distance(same, chain.members[1])

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
        eps, entries = chain.epsilon, chain.certificate.entries
        assert [e.analytic for e in entries] == [eps / 3] + [eps / 2] * (len(entries) - 2) + [eps / 3]
        for entry in entries:
            assert entry.sampled.hi <= entry.analytic

    def test_slice_cap_applies(self):
        g0, g1 = circle(radius=1.0), circle(radius=2.0)
        with pytest.raises(ValueError, match="time slices"):
            build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS, eps=1e-4)

    @staticmethod
    def _coarse_partition(monkeypatch):
        # time steps five times too coarse: the gap is understated fivefold
        partition = homotopy_module._time_partition
        monkeypatch.setattr(homotopy_module, "_time_partition",
                            lambda gap, eps, rounding: partition(gap / 5, eps, rounding))

    def test_broken_time_constant_raises(self, monkeypatch):
        g0, g1 = circle(radius=1.0), circle(radius=2.0)
        self._coarse_partition(monkeypatch)
        with pytest.raises(CertificateViolation, match="vertex sup-distance"):
            build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)

    def test_exact_check_alone_catches_it(self, monkeypatch):
        # with the end pairs' check silenced, the interior pairs of a chain
        # five times too coarse in time must still be refused
        g0, g1 = circle(radius=1.0), circle(radius=2.0)
        self._coarse_partition(monkeypatch)
        monkeypatch.setattr(homotopy_module, "_end_pair",
                            lambda path, own, own_values, xs, member, eps: (Bounds(0.0, 0.0), False))
        with pytest.raises(CertificateViolation, match="exact sup-distance"):
            build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)


def _gap(sigma, chain):
    """max |P1 - P0| over the chain's shared partition."""
    _, p0, p1 = sigma.shared_vertices(chain.epsilon / 6)
    return float(np.abs(p1 - p0).max())


class TestTimePartition:
    """The time axis is split by the exact gap of the end paths on the shared partition."""

    @pytest.fixture
    def blends(self):
        """(homotopy, chain) for a circle blended into a circle and into an ellipse."""
        g0 = circle(radius=1.0)
        out = []
        for g1 in (circle(radius=1.5), ellipse(2.0, 1.2)):
            sigma = linear_homotopy(g0, g1)
            out.append((sigma, build_chain(sigma, g0, g1, WIDE_ANNULUS)))
        return out

    def test_time_constant_is_the_certified_gap(self, blends):
        # interior members differ by exactly |dt| max |P1 - P0|, at a vertex
        for sigma, chain in blends:
            gap, ts = _gap(sigma, chain), chain.partition
            for t0, t1, p, q in zip(ts[1:-2], ts[2:-1], chain.members[1:-2], chain.members[2:-1]):
                assert polyline_sup_distance(p, q).contains((t1 - t0) * gap)

    def test_step_below_a_sixth_of_eps(self, blends):
        for sigma, chain in blends:
            gap, ts, eps = _gap(sigma, chain), chain.partition, chain.epsilon
            assert ts[0] == 0.0 and ts[-1] == 1.0
            assert ts[1] == pytest.approx(eps / (6 * gap), rel=1e-13)
            assert ts[1] * gap <= eps / 6 and (1 - ts[-2]) * gap <= eps / 6
            assert np.all(np.diff(ts[1:-1]) * gap <= eps / 2)

    def test_member_count_from_time_constant(self, blends):
        # the interior steps are as few as keep every pair within eps/2:
        # one fewer breaks eps/2
        for sigma, chain in blends:
            eps, ts = chain.epsilon, chain.partition
            steps = len(ts) - 3
            assert steps >= 2
            end = ts[1]
            coarser = end + (1 - 2 * end) * np.arange(steps) / (steps - 1)
            members = _members(sigma, coarser, eps / 6)
            worst = max(polyline_sup_distance(p, q).hi for p, q in zip(members, members[1:]))
            assert worst > eps / 2
            assert all(e.sampled.hi <= eps / 2 for e in chain.certificate.entries[1:-1])

    def test_members_within_a_ninth_of_eps_of_their_slices(self, blends):
        for sigma, chain in blends:
            eps = chain.epsilon
            xs, p0, p1 = sigma.shared_vertices(eps / 6)
            for t, member in zip(chain.partition[1:-1], chain.members[1:-1]):
                assert np.array_equal(member.breakpoints, xs)
                assert np.array_equal(member.vertices(), (1 - t) * p0 + t * p1)
                n = _oracle_points(member, sigma, eps / 2000)
                assert slice_sup_upper(member, sigma, t, n) <= eps / 9

    def test_constant_homotopy_takes_one_interior_member(self):
        g = ellipse(2.0, 1.0)
        chain = build_chain(linear_homotopy(g, g), g, g, WIDE_ANNULUS)
        assert np.array_equal(chain.partition, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("center, radius", [(0j, 1e-12), (1e6 + 0j, 1.0)],
                         ids=["radius-1e-12", "center-1e6"])
class TestEndpointCheckScale:
    """The endpoint check is relative to the magnitude of the values."""

    def test_each_path_evaluated_once(self, center, radius, monkeypatch):
        g0, g1 = circle(center, radius), circle(center, 1.5 * radius)
        noisy = circle(center + 1e-14 * (abs(center) + radius), radius)
        calls = []
        for name, path in (("g0", g0), ("g1", g1), ("noisy", noisy)):
            def counted(xs, path=path, name=name):
                calls.append(name)
                return type(path).values(path, xs)
            monkeypatch.setattr(path, "values", counted)
        sigma = linear_homotopy(g0, g1)
        # the homotopy's own ends are its end slices exactly: nothing to evaluate
        homotopy_module._check_endpoint_slices(sigma, g0, g1)
        assert calls == []
        # a foreign end is compared with its own end's values alone
        homotopy_module._check_endpoint_slices(sigma, noisy, g1)
        assert sorted(calls) == ["g0", "noisy"]
        with pytest.raises(EndpointMismatch, match="differs from gamma0"):
            homotopy_module._check_endpoint_slices(sigma, g1, g0)
        with pytest.raises(EndpointMismatch, match="differs from gamma1"):
            homotopy_module._check_endpoint_slices(sigma, g0, g0)

    def test_true_mismatch_refused(self, center, radius):
        g0, g1 = circle(center, radius), circle(center, 1.5 * radius)
        with pytest.raises(EndpointMismatch):
            build_chain(linear_homotopy(g0, g1), g1, g0,
                        Annulus(center, 0.5 * radius, 2.5 * radius))

    def test_float_noise_passes(self, center, radius):
        # gamma0 moved by 1e-14 of the magnitude of its values
        g0, g1 = circle(center, radius), circle(center, 1.5 * radius)
        noisy = circle(center + 1e-14 * (abs(center) + radius), radius)
        chain = build_chain(linear_homotopy(g0, g1), noisy, g1,
                            Annulus(center, 0.5 * radius, 2.5 * radius))
        assert chain.members[0] is noisy
        assert all(e.sampled.lo <= e.analytic for e in chain.certificate.entries)

    def test_foreign_end_takes_its_own_values_and_chord_slack(self, center, radius, monkeypatch):
        # a foreign end with no |z''| bound keeps the Lipschitz chord slack
        g0, g1 = circle(center, radius), circle(center, 1.5 * radius)
        moved = circle(center + 1e-14 * (abs(center) + radius), radius)
        noisy = without_curvature_bound(moved)
        seen = []

        def recorded(xs):
            seen.append(np.array(xs))
            return type(noisy).values(noisy, xs)

        monkeypatch.setattr(noisy, "values", recorded)
        sigma = linear_homotopy(g0, g1)
        chain = build_chain(sigma, noisy, g1, Annulus(center, 0.5 * radius, 2.5 * radius))
        xs, _, _ = sigma.shared_vertices(chain.epsilon / 6)
        assert any(np.array_equal(called, xs) for called in seen)
        vertex = Bounds.from_arrays(*paths_module._consecutive_gaps(
            np.stack([type(noisy).values(noisy, xs), chain.members[1].vertices()])))[0]
        slack = noisy.lipschitz_bound * float(np.diff(xs).max()) / 2
        entry = chain.certificate.entries[0]
        assert not entry.exact
        assert entry.sampled == Bounds(vertex.lo, vertex.hi + slack)
        assert entry.sampled.lo <= entry.analytic

    def test_foreign_curved_end_takes_its_interpolation_bound(self, center, radius):
        # a foreign circle has |z''| bounds and its breakpoints on the shared
        # partition, so its slack is max h^2 M2 / 8, not the chord bound
        g0, g1 = circle(center, radius), circle(center, 1.5 * radius)
        noisy = circle(center + 1e-14 * (abs(center) + radius), radius)
        sigma = linear_homotopy(g0, g1)
        chain = build_chain(sigma, noisy, g1, Annulus(center, 0.5 * radius, 2.5 * radius))
        xs, _, _ = sigma.shared_vertices(chain.epsilon / 6)
        entry = chain.certificate.entries[0]
        assert not entry.exact
        assert entry.sampled.hi / entry.analytic <= 0.85
        chord = noisy.lipschitz_bound * float(np.diff(xs).max()) / 2
        assert entry.sampled.hi < entry.sampled.lo + chord
        assert entry.sampled.lo <= dense_sup_upper(noisy, chain.members[1])
        assert dense_sup(noisy, chain.members[1]) <= entry.sampled.hi


def _reference_containment(sigma, domain, max_refinements):
    """The plain halving loop that evaluates every net level in turn, kept as
    the reference for ``_certify_containment``'s one round."""
    grid = sigma.grid_values(np.arange(9) / 8, np.arange(17) / 16).ravel()
    diameter = math.hypot(grid.real.max() - grid.real.min(), grid.imag.max() - grid.imag.min())
    eta = 0.05 * diameter if diameter > 0 else 0.05
    last_failure = None
    for _ in range(max_refinements + 1):
        steps = max(1, math.ceil(sigma.lipschitz / (2 * eta)))
        if steps + 1 > homotopy_module._NET_BUDGET:
            raise ContainmentNotCertified(
                "containment not certified within the sampling budget"
                + (f": {last_failure}" if last_failure else ""),
                min_complement_distance=getattr(last_failure, "min_complement_distance", None),
                resolution=eta)
        xs = np.arange(steps + 1) / steps
        m = float(domain.segment_complement_distances(sigma.gamma0.values(xs),
                                                      sigma.gamma1.values(xs)).min())
        if m <= 0:
            raise ContainmentNotCertified(
                f"the homotopy sweeps outside the domain: min complement distance {m:.6g} "
                f"on the time segments of a net of resolution {eta:.6g}",
                min_complement_distance=m, resolution=eta)
        try:
            cert = margin_certificate(m, eta)
            if cert.margin > 4 * eta:
                return cert
            last_failure = ContainmentNotCertified(
                f"margin {cert.margin:.6g} not above 4*eta={4 * eta:.6g}", resolution=eta)
        except ContainmentNotCertified as exc:
            last_failure = exc
        eta /= 2
    raise ContainmentNotCertified(
        f"containment not certified after {max_refinements} refinements: {last_failure}",
        min_complement_distance=getattr(last_failure, "min_complement_distance", None),
        resolution=getattr(last_failure, "resolution", None))


def _containment_outcome(certify, sigma, domain, max_refinements):
    """The certificate, or the refusal's type, message, resolution and margin."""
    try:
        return certify(sigma, domain, max_refinements)
    except ContainmentNotCertified as exc:
        return type(exc), str(exc), exc.resolution, exc.min_complement_distance


def _same_containment(sigma, domain, max_refinements):
    new = _containment_outcome(homotopy_module._certify_containment, sigma, domain,
                               max_refinements)
    assert new == _containment_outcome(_reference_containment, sigma, domain, max_refinements)
    return new


def _random_containment_case(rng):
    """A random homotopy of circles, ellipses and polygons with a domain
    around it, from roomy to tight to crossing the homotopy."""
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
    return linear_homotopy(g0, g1), domain, rng.randint(0, 10)


class TestContainmentRound:
    """Skipping the net levels that cannot certify gives the outcome of
    evaluating every level, in one net round as a rule."""

    def test_matches_the_plain_halving_loop(self, monkeypatch):
        rounds = []
        halving_loop = homotopy_module._halving_loop

        def counted(*args):
            rounds.append(args[-1] if len(args) == 5 else None)
            return halving_loop(*args)

        monkeypatch.setattr(homotopy_module, "_halving_loop", counted)
        rng = random.Random(13)
        outcomes = set()
        for _ in range(240):
            sigma, domain, refinements = _random_containment_case(rng)
            outcomes.add(type(_same_containment(sigma, domain, refinements)).__name__)
        # the draws reach certificates, refusals and skipped levels
        assert outcomes == {"ContainmentCertificate", "tuple"}
        assert sum(upper is not None for upper in rounds) >= 50

    def test_sweeping_outside_on_the_coarse_grid(self):
        # M <= 0: nothing is skipped, and the first net refuses
        sigma = linear_homotopy(circle(radius=1.0), circle(radius=3.0))
        assert homotopy_module._coarse_grid(sigma, WIDE_ANNULUS)[1] <= 0
        assert "sweeps outside" in _same_containment(sigma, WIDE_ANNULUS, 8)[1]

    @staticmethod
    def _spiked_square(tip):
        # a square with a spike at x = 1/32, between the coarse grid's points
        g = square(2.0)
        xs = np.arange(65) / 64
        verts = g.values(xs)
        verts[2] = tip
        return PiecewisePath.from_vertices(verts, xs, closed=True)

    def test_sweeping_outside_between_coarse_points(self):
        # M > 0 and no level skipped in a roomy disk: the first net sees the spike
        sigma = star_null_homotopy(self._spiked_square(40.0 + 0j), 0j)
        domain = Disk(0j, 20.0)
        diameter, upper = homotopy_module._coarse_grid(sigma, domain)
        assert upper >= homotopy_module._NET_SKIP * 0.05 * diameter
        assert "sweeps outside" in _same_containment(sigma, domain, 8)[1]

    def test_sweeping_outside_that_the_coarse_grid_misses(self):
        # M > 0 but small: levels are skipped, a finer net refuses, and the
        # refusal replays every level to name the plain loop's first one
        sigma = star_null_homotopy(self._spiked_square(2.0 + 0j), 0j)
        domain = Disk(0j, 1.5)
        diameter, upper = homotopy_module._coarse_grid(sigma, domain)
        assert 0 < upper < homotopy_module._NET_SKIP * 0.05 * diameter
        refusal = _same_containment(sigma, domain, 8)
        assert "sweeps outside" in refusal[1] and refusal[2] == 0.05 * diameter

    def test_budget_exceeded(self):
        # a margin of 1e-6 needs eta near 1e-7, far past the net budget
        sigma = linear_homotopy(circle(radius=1.0), circle(radius=1.5))
        assert "sampling budget" in _same_containment(sigma, Annulus(0j, 1.0 - 1e-6, 2.0), 40)[1]

    def test_refinements_exhausted(self):
        sigma = linear_homotopy(circle(radius=1.0), circle(radius=1.5))
        assert "after 2 refinements" in _same_containment(sigma, Annulus(0j, 0.99, 2.0), 2)[1]


class TestChainWork:
    """One chain build does a fixed number of array passes."""

    def test_each_end_path_evaluated_at_most_three_times(self, monkeypatch):
        # the coarse grid, one net round and the shared partition
        g0, g1 = circle(radius=1.0), circle(radius=1.2)
        calls = {id(g0): 0, id(g1): 0}
        values = PiecewisePath.values

        def counted(self, xs):
            if id(self) in calls:
                calls[id(self)] += 1
            return values(self, xs)

        monkeypatch.setattr(PiecewisePath, "values", counted)
        build_chain(linear_homotopy(g0, g1), g0, g1, Annulus(0j, 0.8, 1.4))
        assert calls[id(g0)] <= 3 and calls[id(g1)] <= 3

    @staticmethod
    def _corrupt_gaps(monkeypatch, corrupt):
        gaps = homotopy_module._consecutive_gaps

        def corrupted(rows):
            lo, hi = gaps(rows)
            corrupt(lo, hi)
            return lo, hi

        monkeypatch.setattr(homotopy_module, "_consecutive_gaps", corrupted)

    @pytest.mark.parametrize("corrupt", [
        lambda lo, hi: hi.__setitem__(2, lo[2] - 1.0),
        lambda lo, hi: lo.__setitem__(2, np.nan),
        lambda lo, hi: hi.__setitem__(2, np.inf),
    ], ids=["inverted", "nan-lo", "inf-hi"])
    def test_bad_pair_bound_refused(self, monkeypatch, corrupt):
        g0, g1 = circle(radius=1.0), circle(radius=2.0)
        self._corrupt_gaps(monkeypatch, corrupt)
        with pytest.raises(ValueError):
            build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)

    def test_violation_names_the_lowest_failing_pair(self, monkeypatch):
        g0, g1 = circle(radius=1.0), circle(radius=2.0)

        def corrupt(lo, hi):
            lo[[5, 3]] = hi[[5, 3]] = 1e3

        self._corrupt_gaps(monkeypatch, corrupt)
        with pytest.raises(CertificateViolation, match="exact sup-distance .* for pair 3;"):
            build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)

    def test_pair_bound_arrays_checked_once(self):
        assert Bounds.from_arrays([0.0, 1.0], [0.5, 1.0]) == [Bounds(0.0, 0.5), Bounds(1.0, 1.0)]
        for lo, hi in (([0.0, 2.0], [1.0, 1.0]), ([0.0, np.nan], [1.0, 1.0]),
                       ([0.0, 0.0], [1.0, np.inf])):
            with pytest.raises(ValueError):
                Bounds.from_arrays(lo, hi)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            Bounds.from_arrays(*paths_module._consecutive_gaps(
                np.array([[0j, 1 + 0j], [np.inf + 0j, 1 + 0j]])))
