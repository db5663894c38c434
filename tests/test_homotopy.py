import math

import numpy as np
import pytest

from contourchain import (
    Annulus,
    Bounds,
    CertificateViolation,
    ContainmentNotCertified,
    Containment,
    Disk,
    EndpointMismatch,
    Homotopy,
    InvalidEpsilon,
    MismatchedDomains,
    PiecewisePath,
    PuncturedPlane,
    SmoothSegment,
    build_chain,
    circle,
    consecutive_polyline_distances,
    constant_path,
    dist_to_carrier,
    ellipse,
    homotopy_carrier,
    inflate_contains,
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
from conftest import dense_sup, dense_sup_upper

ANNULUS = Annulus(0j, 0.25, 3.0)
WIDE_ANNULUS = Annulus(0j, 0.5, 2.5)


class TestStarHomotopy:
    def test_constant_input_stays_constant(self):
        center = 1 - 1j
        sigma = star_null_homotopy(constant_path(center), center)
        for t in [0.0, 0.3, 1.0]:
            assert sigma.value(t, 0.5) == center

    def test_circle_slices_shrink(self):
        sigma = star_null_homotopy(circle(), 0j)
        # slice at t = 0.5 is the circle of radius 0.5
        xs = np.linspace(0, 1, 64)
        expected = 0.5 * np.exp(2j * math.pi * xs)
        assert np.abs(sigma.slice_at(0.5).values(xs) - expected).max() < 1e-12

    def test_final_slice_is_constant(self):
        sigma = star_null_homotopy(circle(), 0.25j)
        assert sigma.value(1.0, 0.7) == 0.25j
        assert sigma.gamma1.value(0.3) == 0.25j

    def test_grid_matches_pointwise(self):
        sigma = star_null_homotopy(square(2.0), 0.1 + 0.1j)
        ts = np.array([0.0, 0.4, 1.0])
        xs = np.array([0.0, 0.3, 0.9])
        grid = sigma.grid_values(ts, xs)
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                assert grid[i, j] == sigma.value(float(t), float(x))


class TestLinearHomotopy:
    def test_equal_endpoints_give_constant_slices(self):
        g = circle()
        sigma = linear_homotopy(g, g)
        xs = np.linspace(0, 1, 50)
        for t in [0.0, 0.5, 1.0]:
            assert np.abs(sigma.slice_at(t).values(xs) - g.values(xs)).max() == 0.0

    def test_circle_blend_radius(self):
        sigma = linear_homotopy(circle(radius=1.0), circle(radius=1.5))
        xs = np.linspace(0, 1, 32)
        expected = 1.25 * np.exp(2j * math.pi * xs)
        assert np.abs(sigma.slice_at(0.5).values(xs) - expected).max() < 1e-12

    def test_circle_square_blend_slices_are_closed(self):
        sigma = linear_homotopy(circle(), square(2.0))
        for t in np.linspace(0, 1, 9):
            s = sigma.slice_at(float(t))  # construction enforces closedness
            assert s.value(0.0) == s.value(1.0)

    def test_mismatched_intervals_rejected(self):
        with pytest.raises(MismatchedDomains):
            linear_homotopy(circle(), circle(interval=(0.0, 2.0)))

    def test_open_path_rejected(self):
        with pytest.raises(ValueError, match="gamma1 must be closed"):
            linear_homotopy(circle(), polyline([1 + 0j, 1j, -1 + 0j], closed=False))

    def test_slice_pieces_blend_the_segment_bounds(self):
        # triangle breakpoints 0, 1/3, 2/3, 1 and quarter arcs: six pieces
        g0 = polyline([1 + 0j, -0.5 + 0.8j, -0.5 - 0.8j])
        g1 = circle(radius=1.5)
        t = 0.3
        piece = linear_homotopy(g0, g1).slice_at(t)
        assert np.array_equal(piece.breakpoints, np.union1d(g0.breakpoints, g1.breakpoints))
        assert piece.num_segments == 6
        owner0 = np.searchsorted(g0.breakpoints, piece.breakpoints[:-1], side="right") - 1
        line_speed = np.abs(np.diff(g0.vertices())) * 3
        arc_speed, arc_curvature = 1.5 * 2 * math.pi, 1.5 * (2 * math.pi) ** 2
        assert np.allclose(piece.derivative_bounds,
                           (1 - t) * line_speed[owner0] + t * arc_speed, rtol=1e-14)
        assert np.allclose(piece.second_derivative_bounds, t * arc_curvature, rtol=1e-14)
        assert piece.lipschitz_bound == piece.derivative_bounds.max()

    def test_endpoint_slices_exact(self):
        g0, g1 = circle(), ellipse(2.0, 1.0)
        sigma = linear_homotopy(g0, g1)
        xs = np.linspace(0, 1, 257)
        assert np.abs(sigma.grid_values([0.0], xs)[0] - g0.values(xs)).max() == 0.0
        assert np.abs(sigma.grid_values([1.0], xs)[0] - g1.values(xs)).max() == 0.0


def _ellipse_without_curvature_bound(a, b):
    """ellipse(a, b) whose single segment carries no |z''| bound."""
    seg = ellipse(a, b).segments[0]
    return PiecewisePath([SmoothSegment(seg.evaluator, seg.derivative, seg.derivative_bound,
                                        seg.s0, seg.s1)], closed=True)


class TestPolygonalSlices:
    """Slice polylines share one partition and blend the end paths' values on it."""

    @pytest.mark.parametrize("make", [
        lambda: linear_homotopy(circle(), ellipse(2.0, 1.0)),
        lambda: linear_homotopy(square(2.0), circle(radius=1.8)),
        lambda: star_null_homotopy(square(2.0, center=0.1 + 0.1j), 0.1 + 0.1j),
        lambda: linear_homotopy(_ellipse_without_curvature_bound(1.0, 0.9), circle(radius=1.4)),
    ], ids=["circle-ellipse", "square-circle", "star-square", "no-curvature-bound"])
    @pytest.mark.parametrize("eps", [0.1, 0.005])
    def test_same_polylines_as_one_slice_at_a_time(self, make, eps):
        sigma = make()
        ts = np.arange(1, 12) / 12
        xs, p0, p1 = sigma.shared_vertices(eps)
        assert np.all(np.isin(sigma.gamma0.breakpoints, xs))
        assert np.all(np.isin(sigma.gamma1.breakpoints, xs))
        batch = sigma.polygonal_slices(ts, eps)
        assert len(batch) == ts.size
        for t, member in zip(ts, batch):
            single = sigma.polygonal_slices([t], eps)[0]
            assert np.array_equal(member.breakpoints, xs)
            assert np.array_equal(member.vertices(), (1 - t) * p0 + t * p1)
            assert np.array_equal(member.vertices(), single.vertices())
        # each member is within 2 eps / 3 of its slice, by a certified upper bound
        for t, member in zip(ts[::5], batch[::5]):
            assert sup_distance(member, sigma.slice_at(t), eps / 1000).hi <= 2 * eps / 3

    def test_no_curvature_bound_takes_the_first_order_rule(self):
        sigma = linear_homotopy(_ellipse_without_curvature_bound(1.0, 0.9), circle(radius=1.4))
        member = sigma.polygonal_slices([0.5], 0.01)[0]
        # four quarter-arc pieces, each at the larger end path's Lipschitz bound
        lipschitz = 2 * math.pi * 1.4
        assert member.num_segments == 4 * (math.floor(3 * 0.25 * lipschitz / 0.01) + 1)

    def test_panel_budget_refused_like_one_slice(self):
        sigma = linear_homotopy(circle(), ellipse(2.0, 1.0))
        with pytest.raises(InvalidEpsilon, match="exceeds the budget"):
            polygonal_approximation(sigma.slice_at(0.5), 1e-14)
        with pytest.raises(InvalidEpsilon, match="exceeds the budget"):
            sigma.polygonal_slices([0.25, 0.5], 1e-14)


class TestHomotopyCarrier:
    def test_constant_homotopy_of_a_point(self):
        sigma = star_null_homotopy(constant_path(2j), 2j)
        net = homotopy_carrier(sigma, 0.05)
        assert np.all(net.net == 2j)

    def test_ring_carrier(self):
        sigma = linear_homotopy(circle(radius=1.0), circle(radius=1.5))
        net = homotopy_carrier(sigma, 0.05)
        b = dist_to_carrier(0j, net)
        assert b.lo - 1e-12 <= 1.0 <= b.hi + 1e-12
        radii = np.abs(net.net)
        assert radii.min() >= 1.0 - 1e-9 and radii.max() <= 1.5 + 1e-9

    def test_star_carrier_covers_disk(self):
        sigma = star_null_homotopy(circle(), 0j)
        net = homotopy_carrier(sigma, 0.05)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(400, 2))
        pts = pts[:, 0] + 1j * pts[:, 1]
        pts = pts[np.abs(pts) <= 1.0]
        assert net.nearest_distances(pts).max() <= 0.05 + 1e-12


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
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        eps, eta = chain.epsilon, chain.carrier.resolution
        all_vertices = np.concatenate([m.vertices() for m in chain.members])
        raw = chain.carrier.nearest_distances(all_vertices)
        # not-outside means the certified lower bound cannot exceed eps/6
        assert np.all(raw - eta <= eps / 6)
        for v in all_vertices[:: max(1, len(all_vertices) // 37)]:
            assert inflate_contains(chain.carrier, eps / 6, complex(v)) is not Containment.OUTSIDE

    def test_carrier_built_on_first_read(self):
        g0, g1 = circle(radius=1.0), circle(radius=1.5)
        chain = build_chain(linear_homotopy(g0, g1), g0, g1, ANNULUS)
        assert "carrier" not in vars(chain)
        carrier = chain.carrier
        assert carrier is chain.carrier
        assert carrier.resolution == chain.containment.net_resolution
        assert np.array_equal(carrier.net,
                              homotopy_carrier(chain.homotopy, carrier.resolution).net)

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
            members = sigma.polygonal_slices(coarser, eps / 6)
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
                assert sup_distance(member, sigma.slice_at(t), eps / 2000).hi <= eps / 9

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
        homotopy_module._check_endpoint_slices(sigma, g0, g1)
        assert sorted(calls) == ["g0", "g1"]
        calls.clear()
        homotopy_module._check_endpoint_slices(sigma, noisy, g1)
        assert sorted(calls) == ["g0", "g1", "noisy"]
        with pytest.raises(EndpointMismatch, match="differs from gamma0"):
            homotopy_module._check_endpoint_slices(sigma, g1, g0)

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
        g0, g1 = circle(center, radius), circle(center, 1.5 * radius)
        noisy = circle(center + 1e-14 * (abs(center) + radius), radius)
        seen = []

        def recorded(xs):
            seen.append(np.array(xs))
            return type(noisy).values(noisy, xs)

        monkeypatch.setattr(noisy, "values", recorded)
        sigma = linear_homotopy(g0, g1)
        chain = build_chain(sigma, noisy, g1, Annulus(center, 0.5 * radius, 2.5 * radius))
        xs, _, _ = sigma.shared_vertices(chain.epsilon / 6)
        assert any(np.array_equal(called, xs) for called in seen)
        vertex = consecutive_polyline_distances(
            np.stack([type(noisy).values(noisy, xs), chain.members[1].vertices()]))[0]
        slack = noisy.lipschitz_bound * float(np.diff(xs).max()) / 2
        entry = chain.certificate.entries[0]
        assert not entry.exact
        assert entry.sampled == Bounds(vertex.lo, vertex.hi + slack)
        assert entry.sampled.lo <= entry.analytic
