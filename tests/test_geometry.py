import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contourchain
from contourchain import (
    Annulus,
    Bounds,
    CompactCarrier,
    Disk,
    PuncturedPlane,
    Rectangle,
    carrier_of_path,
    circle,
)
from contourchain.geometry import _segment_point_distances, polyline_clearances, well_contained

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def unit_circle_net(eta):
    return carrier_of_path(circle(), eta)


def net_distance(z: complex, carrier: CompactCarrier) -> float:
    """The plain minimum distance from ``z`` to the net's points."""
    return float(np.abs(carrier.net - z).min())


class TestDistToCarrier:
    """The net minimum d brackets the distance to the carrier's set: net
    points lie on the set, so it is at most d, and the set lies within eta
    of the net, so it is at least d - eta."""

    def test_net_point_has_zero_lower_bound(self):
        net = CompactCarrier(np.array([1 + 2j, -0.5j]), resolution=0.1)
        assert net_distance(1 + 2j, net) == 0.0

    def test_center_of_unit_circle(self):
        # exact distance from the center to the circle is 1
        net = unit_circle_net(0.01)
        d = net_distance(0j, net)
        assert d - net.resolution - 1e-12 <= 1.0 <= d + 1e-12

    def test_outside_point(self):
        # exact circle geometry: rho(3, circle) = 2
        net = unit_circle_net(0.01)
        d = net_distance(3 + 0j, net)
        assert d - net.resolution - 1e-12 <= 2.0 <= d + 1e-12

    def test_interval_contains_min_net_distance(self):
        # the exact distance | |z| - 1 | to the unit circle lies in [d - eta, d]
        rng = random.Random(7)
        net = unit_circle_net(0.05)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            d = net_distance(z, net)
            assert d - net.resolution - 1e-12 <= abs(abs(z) - 1) <= d + 1e-12

    @given(z1=st.tuples(finite, finite), z2=st.tuples(finite, finite))
    @settings(max_examples=80, deadline=None)
    def test_bounds_are_one_lipschitz(self, z1, z2):
        net = CompactCarrier(np.array([0j, 1 + 1j, -2j]), resolution=0.25)
        a, b = complex(*z1), complex(*z2)
        assert abs(net_distance(a, net) - net_distance(b, net)) <= abs(a - b) + 1e-9


class TestCompactCarrier:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CompactCarrier(np.array([]), resolution=0.1)
        with pytest.raises(ValueError):
            CompactCarrier(np.array([0j]), resolution=0.0)
        with pytest.raises(ValueError):
            CompactCarrier(np.array([complex("nan")]), resolution=0.1)

    def test_net_is_immutable(self):
        net = CompactCarrier(np.array([0j, 1j]), resolution=0.1)
        with pytest.raises(ValueError):
            net.net[0] = 5.0

    def test_package_runs_without_scipy(self):
        # a None entry in sys.modules makes every import of scipy fail
        src = Path(contourchain.__file__).resolve().parents[1]
        probe = """
import sys
sys.modules["scipy"] = None
from click.testing import CliRunner
from contourchain import (Annulus, build_chain, carrier_of_path, circle, ellipse,
                          linear_homotopy, parse_function, verify_homotopy_invariance)
from contourchain.cli import main
g0, g1 = circle(), ellipse(2.0, 1.0)
sigma = linear_homotopy(g0, g1)
build_chain(sigma, g0, g1, Annulus(0j, 0.25, 3.0))
report = verify_homotopy_invariance(parse_function("1/z", [0j]), g0, g1, sigma,
                                    Annulus(0j, 0.25, 3.0), 1e-9)
carrier_of_path(g1, 0.05)
result = CliRunner().invoke(main, ["wind", "--path", "ellipse(2, 1)", "--point", "0"])
print(report.passed, result.exit_code)
"""
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["True", "0"]


def _boundary_samples(domain, n=400_000):
    theta = 2 * math.pi * np.arange(n) / n
    ring = np.cos(theta) + 1j * np.sin(theta)
    if isinstance(domain, Disk):
        return domain.center + domain.radius * ring
    if isinstance(domain, Annulus):
        inner = domain.center + domain.r_inner * ring if domain.r_inner > 0 else np.array([domain.center])
        return np.concatenate([inner, domain.center + domain.r_outer * ring])
    if isinstance(domain, Rectangle):
        lo, hi = domain.corner_lo, domain.corner_hi
        ts = np.arange(n // 4 + 1) / (n // 4)
        bottom = lo + (hi.real - lo.real) * ts
        top = complex(lo.real, hi.imag) + (hi.real - lo.real) * ts
        left = lo + 1j * (hi.imag - lo.imag) * ts
        right = complex(hi.real, lo.imag) + 1j * (hi.imag - lo.imag) * ts
        return np.concatenate([bottom, top, left, right])
    if isinstance(domain, PuncturedPlane):
        return np.array(domain.excluded)
    raise AssertionError(domain)


class TestDistToComplement:
    def test_disk_center(self):
        assert Disk(0j, 1.0).complement_distance(0j) == 1.0

    def test_reach_is_the_largest_defining_modulus(self):
        # the scale the closed-form distances round relative to
        assert Disk(3 + 4j, 2.0).reach == 5.0
        assert Annulus(1j, 0.5, 7.0).reach == 7.0
        assert Rectangle(-6 - 8j, 1 + 1j).reach == 10.0
        assert PuncturedPlane((1j, -3 + 0j)).reach == 3.0
        assert PuncturedPlane(()).reach == 0.0

    def test_annulus_example(self):
        # min(1 - 0.5, 2 - 1) = 0.5
        assert Annulus(0j, 0.5, 2.0).complement_distance(1 + 0j) == 0.5

    def test_punctured_plane_example(self):
        # |3 + 4i| = 5
        assert PuncturedPlane((0j,)).complement_distance(3 + 4j) == 5.0

    def test_empty_puncture_list_is_whole_plane(self):
        assert PuncturedPlane(()).complement_distance(7 - 2j) == math.inf

    def test_rectangle_edges(self):
        rect = Rectangle(0j, 4 + 2j)
        assert rect.complement_distance(1 + 1j) == 1.0
        assert rect.complement_distance(2 + 1.5j) == 0.5
        assert rect.complement_distance(-1 + 1j) == -1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Disk(0j, 1.0).complement_distance(complex("inf"))

    def test_batched_distances_match_scalar(self):
        domain = Annulus(0.1j, 0.5, 2.0)
        zs = np.array([0j, 3 + 0j, 1j, 0.5 - 0.2j])
        batched = domain.complement_distances(zs)
        for z, d in zip(zs, batched):
            assert domain.complement_distance(complex(z)) == d

    def test_nonpositive_outside(self):
        assert Disk(0j, 1.0).complement_distance(2 + 0j) <= 0
        assert PuncturedPlane((0j,)).complement_distance(0j) == 0.0

    @pytest.mark.parametrize("domain", [
        Disk(0.5 - 0.25j, 1.25),
        Annulus(0j, 0.25, 3.0),
        PuncturedPlane((0j, 1 + 1j, -2j)),
    ])
    def test_exact_against_boundary_sampling(self, domain):
        # brute-force oracle: min distance to a dense boundary sample; circle
        # sampling error is bounded by the sagitta h^2 / (8 r)
        boundary = _boundary_samples(domain)
        rng = random.Random(13)
        checked = 0
        while checked < 12:
            z = complex(rng.uniform(-3.2, 3.2), rng.uniform(-3.2, 3.2))
            exact = domain.complement_distance(z)
            if exact <= 1e-3:
                continue
            sampled = float(np.abs(boundary - z).min())
            assert abs(exact - sampled) <= 1e-9 + 1e-8 * abs(exact)
            checked += 1


class TestSegmentComplementDistances:
    """The closed-form minimum over a segment agrees with a dense sample of it."""

    @pytest.mark.parametrize("domain, through", [
        (Disk(0.5 - 0.25j, 1.25), None),
        (Rectangle(-1 - 0.5j, 2 + 1.5j), None),
        (Annulus(0.2j, 0.5, 2.5), 0.2j),
        (PuncturedPlane((0j, 1 + 1j, -2j)), 1 + 1j),
    ], ids=["disk", "rectangle", "annulus", "punctured"])
    def test_against_a_sampled_minimum(self, domain, through):
        rng = np.random.default_rng(23)
        a = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
        b = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
        # segments through the annulus hole's center and through a puncture
        if through is not None:
            a[:5], b[:5] = through - (b[:5] - through), b[:5]
        exact = domain.segment_complement_distances(a, b)
        s = np.arange(10_001) / 10_000
        for k in range(a.size):
            samples = domain.complement_distances(a[k] + s * (b[k] - a[k]))
            sampled, step = float(samples.min()), abs(b[k] - a[k]) / 10_000
            # sampled points lie on the segment; every point is within step/2
            # of one, and the distance is 1-Lipschitz
            assert sampled - step / 2 - 1e-12 <= exact[k] <= sampled + 1e-12
        if through is not None:
            assert np.all(exact[:5] <= 1e-12 - getattr(domain, "r_inner", 0.0))

    def test_whole_plane_is_unbounded(self):
        a = np.array([0j, 1 + 1j])
        assert np.all(PuncturedPlane(()).segment_complement_distances(a, a + 3) == math.inf)

    @pytest.mark.parametrize("length", [1.38e154, 1e200, 1e300])
    def test_long_segments_measure_their_distance(self, length):
        # |b - a|^2 overflows past about 1.34e154; the point is 0.5 above
        # the middle of the first segment and of the third, reversed
        a = np.array([0, length, length + 1j, 1j])
        p = length / 2 + 0.5j
        assert _segment_point_distances(a, np.roll(a, -1), p).tolist() == \
            [0.5, length / 2, 0.5, length / 2]
        assert PuncturedPlane((p,)).segment_complement_distances(a, np.roll(a, -1)).tolist() == \
            [0.5, length / 2, 0.5, length / 2]

    def test_short_segments_measure_their_distance(self):
        # |b - a|^2 underflows below about 1e-162; a point over 2^1000
        # segment lengths away overflows once scaled, and is as far from
        # either end
        a = np.array([0j, 1e-170 + 0j])
        assert _segment_point_distances(a, a[::-1], 0.5e-170 + 0.25e-170j).tolist() == \
            [0.25e-170, 0.25e-170]
        for b, p in ((1e-300 + 0j, -1e9 + 0j), (1e-300j, 1e9 + 1e9j), (5e-324 + 0j, 100 + 0j)):
            assert _segment_point_distances(np.array([0j]), np.array([b]), p).tolist() == [abs(p)]

    def test_scaled_projection_is_the_unscaled_one(self):
        # where |b - a|^2 is representable, the power-of-two scaling changes
        # no bit of the unscaled projection
        def unscaled(a, b, p):
            d = b - a
            length2 = d.real ** 2 + d.imag ** 2
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.where(length2 > 0, ((p - a) * d.conjugate()).real / length2, 0.0)
            return np.abs(a + np.clip(s, 0.0, 1.0) * d - p)

        rng = np.random.default_rng(29)
        for scale in 10.0 ** rng.uniform(-100, 100, 400):
            a, b = ((rng.normal(size=(2, 30, 1)) + 1j * rng.normal(size=(2, 30, 1))) * scale)
            a[:3] = b[:3]  # degenerate segments are their point a
            p = (rng.normal(size=4) + 1j * rng.normal(size=4)) * scale
            assert _segment_point_distances(a, b, p).tobytes() == unscaled(a, b, p).tobytes()


class TestPolylineClearances:
    """One routine measures a stack of polylines against any domain."""

    @pytest.mark.parametrize("domain", [
        Disk(0.5 - 0.25j, 3.0), Rectangle(-3 - 2.5j, 2 + 3.5j), Annulus(0.2j, 0.25, 3.5),
        PuncturedPlane((0.1j, 1 + 1j, -2j)), PuncturedPlane(()),
    ], ids=["disk", "rectangle", "annulus", "punctured", "plane"])
    def test_rows_measure_as_one_minimum_each(self, domain):
        # closed rows, as the chain's: each row's exact minimum over its
        # segments less the allowance at its largest |vertex| or the reach
        rng = np.random.default_rng(37)
        rows = rng.uniform(-2, 2, (6, 9)) + 1j * rng.uniform(-2, 2, (6, 9))
        rows[:, -1] = rows[:, 0]
        rounding = 64 * np.finfo(np.float64).eps
        exact = domain.segment_complement_distances(rows[:, :-1], rows[:, 1:]).min(axis=1)
        expected = exact - rounding * np.maximum(np.abs(rows).max(axis=1), domain.reach)
        got = polyline_clearances(rows[:, :-1].ravel(), rows[:, 1:].ravel(), np.arange(6) * 8,
                                  domain, rounding)
        assert got.tobytes() == expected.tobytes()

    def test_polylines_of_different_lengths(self):
        # 0 -> 1 -> 100, then 100 -> 1: an open polyline's last vertex
        # counts towards its allowance, here 1/2 of its largest |vertex|
        z0, z1 = np.array([0j, 1, 100]), np.array([1 + 0j, 100, 1])
        got = polyline_clearances(z0, z1, [0, 2], PuncturedPlane((-1 + 0j,)), 0.5)
        assert got.tolist() == [1 - 50, 2 - 50]

    def test_past_the_float_range_certifies_nothing(self):
        # a vertex whose modulus overflows leaves an infinite allowance
        z = np.array([1.5e308 + 1.5e308j, 1.5e308 + 1.4e308j])
        got = polyline_clearances(z, z[::-1], [0], PuncturedPlane(()), 16e-16)
        assert not got[0] > 0


class TestPuncturedPlaneBroadcast:
    def test_one_pass_is_the_loop_over_its_points(self):
        # the per-point loop that measured a punctured plane, kept as the
        # oracle: the broadcast pass gives the same bits, in any shape
        def loop(points, a, b):
            out = np.full(np.shape(a), np.inf)
            for p in points:
                out = np.minimum(out, _segment_point_distances(a, b, p))
            return out

        rng = np.random.default_rng(41)
        for count in (1, 2, 7):
            for scale in (1e-6, 1.0, 1e9):
                points = tuple((rng.normal(size=count) + 1j * rng.normal(size=count)) * scale)
                a, b = (rng.normal(size=(2, 5, 12)) + 1j * rng.normal(size=(2, 5, 12))) * scale
                a[0, :3] = b[0, :3]  # degenerate segments
                a[1, 0] = points[0]  # a segment through a puncture
                plane = PuncturedPlane(points)
                assert plane.segment_complement_distances(a, b).tobytes() == \
                    loop(points, a, b).tobytes()
                assert plane.segment_complement_distances(a[0], b[0]).tobytes() == \
                    loop(points, a[0], b[0]).tobytes()


class TestWellContained:
    """``well_contained`` is the net's minimum complement distance less its
    resolution: a lower bound for every point of the net's set."""

    def test_circle_in_annulus_margin(self):
        # m = 0.5 on the unit circle's net, eta = 0.001
        bound = well_contained(unit_circle_net(0.001), Annulus(0j, 0.5, 2.0))
        assert bound == pytest.approx(0.499, abs=1e-12)

    def test_refuses_tight_disk(self):
        # m is about 0.0005 <= eta: the bound certifies nothing
        assert well_contained(unit_circle_net(0.001), Disk(0j, 1.0005)) <= 0

    def test_single_point_net(self):
        net = CompactCarrier(np.array([1 + 1j]), resolution=0.001)
        assert well_contained(net, Disk(1 + 1j, 2.0)) == 2.0 - 0.001

    def test_margin_spot_check(self):
        # every point within the bound of a net point stays inside the domain
        domain = Annulus(0j, 0.5, 2.0)
        net = unit_circle_net(0.001)
        bound = well_contained(net, domain)
        rng = random.Random(99)
        for _ in range(200):
            zeta = complex(net.net[rng.randrange(len(net))])
            angle = rng.uniform(0, 2 * math.pi)
            w = zeta + rng.uniform(0, bound) * complex(math.cos(angle), math.sin(angle))
            assert domain.complement_distance(w) > 0

    def test_certificate_invariant(self):
        # every point of the set, not only the net's, keeps the bound: the
        # set is the unit circle, within eta = 0.05 of each net point
        for domain in (Annulus(0j, 0.5, 2.0), Disk(0.1j, 1.3), Rectangle(-1.2 - 1.4j, 1.5 + 1.1j)):
            bound = well_contained(unit_circle_net(0.05), domain)
            dense = circle().values(np.arange(20_001) / 20_000)
            assert 0 < bound <= float(domain.complement_distances(dense).min())

    def test_whole_plane_margin_is_unbounded(self):
        assert well_contained(unit_circle_net(0.001), PuncturedPlane(())) == math.inf


class TestBounds:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Bounds(1.0, 0.5)

    @given(lo=finite, width=st.floats(min_value=0, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_contains_endpoints(self, lo, width):
        b = Bounds(lo, lo + width)
        assert b.contains(lo) and b.contains(lo + width)
        assert b.width == pytest.approx(width, abs=1e-12)
