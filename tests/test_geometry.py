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
    Containment,
    ContainmentCertificate,
    ContainmentNotCertified,
    Disk,
    PuncturedPlane,
    Rectangle,
    carrier_of_path,
    circle,
    dist_to_carrier,
    dist_to_complement,
    inflate_contains,
    well_contained,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def unit_circle_net(eta):
    return carrier_of_path(circle(), eta)


class TestDistToCarrier:
    def test_net_point_has_zero_lower_bound(self):
        net = CompactCarrier(np.array([1 + 2j, -0.5j]), resolution=0.1)
        b = dist_to_carrier(1 + 2j, net)
        assert b.lo == 0.0
        assert b.hi == 0.0

    def test_center_of_unit_circle(self):
        # exact distance from the center to the circle is 1
        b = dist_to_carrier(0j, unit_circle_net(0.01))
        assert b.width <= 0.02
        assert b.lo - 1e-12 <= 1.0 <= b.hi + 1e-12

    def test_outside_point(self):
        # exact circle geometry: rho(3, circle) = 2
        b = dist_to_carrier(3 + 0j, unit_circle_net(0.01))
        assert b.lo - 1e-12 <= 2.0 <= b.hi + 1e-12

    def test_interval_contains_min_net_distance(self):
        rng = random.Random(7)
        net = CompactCarrier(np.array([complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                       for _ in range(40)]), resolution=0.05)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            d = float(np.abs(net.net - z).min())
            b = dist_to_carrier(z, net)
            assert b.lo <= d <= b.hi
            assert b.width <= 2 * net.resolution

    @given(z1=st.tuples(finite, finite), z2=st.tuples(finite, finite))
    @settings(max_examples=80, deadline=None)
    def test_bounds_are_one_lipschitz(self, z1, z2):
        net = CompactCarrier(np.array([0j, 1 + 1j, -2j]), resolution=0.25)
        a, b = complex(*z1), complex(*z2)
        ba, bb = dist_to_carrier(a, net), dist_to_carrier(b, net)
        shift = abs(a - b) + 1e-9
        assert abs(ba.hi - bb.hi) <= shift
        assert abs(ba.lo - bb.lo) <= shift

    def test_rejects_nonfinite(self):
        net = CompactCarrier(np.array([0j]), resolution=0.1)
        with pytest.raises(ValueError):
            dist_to_carrier(complex("inf"), net)


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

    def test_import_leaves_the_kd_tree_unloaded(self):
        # scipy.spatial is imported by the first query that builds a KD-tree
        env = dict(os.environ, PYTHONPATH=str(Path(contourchain.__file__).resolve().parents[1]))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, contourchain; print('scipy.spatial' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True)
        assert probe.stdout.split() == ["False"]

    def test_kd_tree_query_matches_the_direct_minimum(self):
        rng = np.random.default_rng(7)
        net = CompactCarrier(rng.standard_normal(1000) + 1j * rng.standard_normal(1000), 0.1)
        zs = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        direct = np.abs(zs[:, None] - net.net[None, :]).min(axis=1)
        assert np.allclose(net.nearest_distances(zs), direct, rtol=1e-12, atol=0)

    def test_batched_distances_match_scalar(self):
        net = unit_circle_net(0.05)
        zs = np.array([0j, 3 + 0j, 1j, 0.5 - 0.2j])
        batched = net.nearest_distances(zs)
        for z, d in zip(zs, batched):
            assert dist_to_carrier(complex(z), net).hi == pytest.approx(d, abs=0)


class TestInflateContains:
    def test_net_point_inside_at_zero_radius(self):
        net = CompactCarrier(np.array([2j]), resolution=0.1)
        assert inflate_contains(net, 0.0, 2j) is Containment.INSIDE

    def test_center_outside_half_inflation(self):
        assert inflate_contains(unit_circle_net(0.01), 0.5, 0j) is Containment.OUTSIDE

    def test_point_near_inflation_boundary(self):
        # rho(1.49, circle) = 0.49 < 0.5, certifiable at eta = 0.001
        assert inflate_contains(unit_circle_net(0.001), 0.5, 1.49 + 0j) is Containment.INSIDE

    def test_uncertain_when_interval_straddles(self):
        net = CompactCarrier(np.array([0j]), resolution=0.1)
        assert inflate_contains(net, 0.95, 1 + 0j) is Containment.UNCERTAIN

    def test_negative_radius_rejected(self):
        net = CompactCarrier(np.array([0j]), resolution=0.1)
        with pytest.raises(ValueError):
            inflate_contains(net, -0.1, 0j)


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
        assert dist_to_complement(0j, Disk(0j, 1.0)) == 1.0

    def test_annulus_example(self):
        # min(1 - 0.5, 2 - 1) = 0.5
        assert dist_to_complement(1 + 0j, Annulus(0j, 0.5, 2.0)) == 0.5

    def test_punctured_plane_example(self):
        # |3 + 4i| = 5
        assert dist_to_complement(3 + 4j, PuncturedPlane((0j,))) == 5.0

    def test_empty_puncture_list_is_whole_plane(self):
        assert dist_to_complement(7 - 2j, PuncturedPlane(())) == math.inf

    def test_rectangle_edges(self):
        rect = Rectangle(0j, 4 + 2j)
        assert dist_to_complement(1 + 1j, rect) == 1.0
        assert dist_to_complement(2 + 1.5j, rect) == 0.5
        assert dist_to_complement(-1 + 1j, rect) == -1.0

    def test_nonpositive_outside(self):
        assert dist_to_complement(2 + 0j, Disk(0j, 1.0)) <= 0
        assert dist_to_complement(0j, PuncturedPlane((0j,))) == 0.0

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
            exact = dist_to_complement(z, domain)
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


class TestWellContained:
    def test_circle_in_annulus_margin(self):
        # m = 0.5, eta = 0.001 -> margin = (0.5 - 0.001) / 2 = 0.2495
        cert = well_contained(unit_circle_net(0.001), Annulus(0j, 0.5, 2.0))
        assert cert.margin == pytest.approx(0.2495, abs=1e-6)
        assert cert.net_resolution == 0.001

    def test_refuses_tight_disk(self):
        # m is about 0.0005 <= eta
        with pytest.raises(ContainmentNotCertified):
            well_contained(unit_circle_net(0.001), Disk(0j, 1.0005))

    def test_single_point_net(self):
        net = CompactCarrier(np.array([1 + 1j]), resolution=0.001)
        cert = well_contained(net, Disk(1 + 1j, 2.0))
        assert cert.margin == pytest.approx((2.0 - 0.001) / 2, abs=1e-12)

    def test_margin_spot_check(self):
        # every point within the margin of a net point stays inside the domain
        domain = Annulus(0j, 0.5, 2.0)
        net = unit_circle_net(0.001)
        cert = well_contained(net, domain)
        rng = random.Random(99)
        for _ in range(200):
            zeta = complex(net.net[rng.randrange(len(net))])
            angle = rng.uniform(0, 2 * math.pi)
            w = zeta + rng.uniform(0, cert.margin) * complex(math.cos(angle), math.sin(angle))
            assert dist_to_complement(w, domain) > 0

    def test_certificate_invariant(self):
        with pytest.raises(ValueError):
            ContainmentCertificate(margin=0.1, net_resolution=0.06)
        ContainmentCertificate(margin=0.1, net_resolution=0.01)

    def test_whole_plane_margin_is_unbounded(self):
        cert = well_contained(unit_circle_net(0.001), PuncturedPlane(()))
        assert cert.margin == math.inf
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="finite or"):
                ContainmentCertificate(margin=bad, net_resolution=0.01)


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
