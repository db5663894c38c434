"""Homotopies of closed paths and certified interpolation chains.

A homotopy here is the linear blend sigma(t, x) = (1-t) gamma0(x) + t gamma1(x)
of two closed piecewise paths on [0, 1].  For a fixed x its time line is the
straight segment [gamma0(x), gamma1(x)], and every slice is L-Lipschitz in x
with L = max(L0, L1).  ``build_chain`` decides everything on one partition of
[0, 1] shared by all members:

* Containment.  The minimum complement distance over each time segment has a
  closed form (``DomainDescriptor.segment_complement_distances``).  On a 1-D
  x-net of spacing h every swept point is within eta = L h / 2 of a net
  point's segment, so the net's minimum, less eta, bounds the whole swept
  region's distance to the complement.
* Members.  The partition takes, on each piece between breakpoints of either
  end path, the larger of the two end paths' second-order panel counts at
  eps/6 (or the first-order count at the larger Lipschitz bound when a piece
  has no |z''| bound).  With P0 and P1 the end paths' values there, the
  member at time t is the polyline through (1-t) P0 + t P1.  Interpolation
  commutes with the blend, so it is the blend of the end paths' own
  polylines and lies within eps/9 of the slice.
* Time steps.  Two interior members differ by exactly |t - t'| |P1 - P0|,
  largest at a vertex.  With D+ that maximum rounded up, the end steps are
  min(eps/(6 D+), 1/2), so an end pair is within eps/9 + eps/6 < eps/3, and the
  interior steps are equal with step * D+ at most eps/2 less a rounding
  allowance.

The certificate keeps the bounds eps/3, eps/2, ..., eps/2, eps/3.  Interior
pairs are cross-checked by their exact polyline distance, the two end pairs,
where one member may be curved, by sampling; a violation fails hard, since it
would mean a broken bound upstream.  The swept region's eta-net
(``homotopy_carrier``) is not needed for any of this and is built only when
``Chain.carrier`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# perfbench/tracing.py wraps these layer functions under this module's name,
# so they stay importable here even where build_chain no longer calls them
from .approx import (  # noqa: F401
    partition_points,
    polygonal_approximation,
    second_order_panels,
)
from .errors import (
    CertificateViolation,
    ContainmentNotCertified,
    EndpointMismatch,
    InvalidEpsilon,
    MismatchedDomains,
)
from .geometry import (  # noqa: F401
    Bounds,
    CompactCarrier,
    ContainmentCertificate,
    DomainDescriptor,
    margin_certificate,
    well_contained,
)
from .paths import (
    Path,
    PiecewisePath,
    constant_path,
    polyline_sup_distance,
    reparametrize_to_unit,
    sup_distance,
)

__all__ = [
    "Homotopy",
    "linear_homotopy",
    "star_null_homotopy",
    "homotopy_carrier",
    "PairBound",
    "ChainCertificate",
    "Chain",
    "build_chain",
]

_MAX_SLICES = 4000
# Largest 1-D containment net and largest swept-region carrier, in points.
_NET_BUDGET = 1_000_000
_CARRIER_BUDGET = 20_000_000
# Slice/path gap this small relative to their magnitude is float noise; the
# reference is the values themselves, not 1, so tiny paths are checked too.
_ENDPOINT_TOL = 1e-9
# Rounding of the members' blend, of the times and of polyline_sup_distance's
# own widening (16 ulps), relative to the largest |vertex|.
_BLEND_ROUNDING = 64 * np.finfo(np.float64).eps


class Homotopy:
    """Linear blend sigma(t, x) = (1 - t) gamma0(x) + t gamma1(x) of two closed
    piecewise paths on [0, 1], built by ``linear_homotopy``.

    ``lipschitz`` = max(L0, L1) bounds every slice's Lipschitz constant in x.
    ``slice_at(t)`` is the time-t slice as a piecewise path whose segments
    carry the bounds its polygonal approximation reads.  ``shared_vertices``
    gives the one partition on which all slices are approximated, with both
    end paths' values there, and ``polygonal_slices`` the members built on it.

    Slices are split at the union of both paths' breakpoints.  On each piece
    both paths are single segments, so the slice's |z'| and |z''| are at most
    (1-t) times gamma0's segment bound plus t times gamma1's; the slice gets
    no second-derivative bound where either segment lacks one.
    """

    def __init__(self, gamma0: PiecewisePath, gamma1: PiecewisePath):
        self.gamma0 = gamma0
        self.gamma1 = gamma1
        self.lipschitz = max(gamma0.lipschitz_bound, gamma1.lipschitz_bound)
        self._breaks = np.union1d(gamma0.breakpoints, gamma1.breakpoints)
        mids = (self._breaks[:-1] + self._breaks[1:]) / 2
        (first0, second0), (first1, second1) = (_piece_bounds(g, mids) for g in (gamma0, gamma1))
        self._first = (first0, first1)
        self._second = None if second0 is None or second1 is None else (second0, second1)

    def value(self, t: float, x: float) -> complex:
        return complex(self.grid_values([t], [x])[0, 0])

    def grid_values(self, ts, xs) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        xs = np.asarray(xs, dtype=np.float64)
        return np.outer(1.0 - ts, self.gamma0.values(xs)) + np.outer(ts, self.gamma1.values(xs))

    def slice_at(self, t: float) -> PiecewisePath:
        t = float(t)
        g0, g1 = self.gamma0, self.gamma1

        def values(xs):
            return (1.0 - t) * g0.values(xs) + t * g1.values(xs)

        def derivatives(xs):
            return (1.0 - t) * g0.eval_with_derivative(xs)[1] + t * g1.eval_with_derivative(xs)[1]

        second = None if self._second is None else (1.0 - t) * self._second[0] + t * self._second[1]
        return PiecewisePath.from_evaluator(values, derivatives, self._breaks,
                                            (1.0 - t) * self._first[0] + t * self._first[1],
                                            second, closed=True)

    def shared_vertices(self, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xs, P0, P1): one partition of [0, 1] and both end paths' values on it.

        Each piece between breakpoints gets the larger of the two end paths'
        second-order panel counts at ``eps``, or, when a piece has no |z''|
        bound, floor(3 w L / eps) + 1 panels for its width w and larger
        Lipschitz bound L.  Either way the polyline through P0 (or P1) is
        within 2 eps/3 of its path, and so the polyline through
        (1-t) P0 + t P1 is within 2 eps/3 of ``slice_at(t)``.  The closing
        value is snapped to the first, as a closed path's values are.
        """
        eps = float(eps)
        if not (math.isfinite(eps) and eps > 0):
            raise InvalidEpsilon(f"eps must be a positive finite number, got {eps!r}")
        widths = np.diff(self._breaks)
        if self._second is None:
            counts = np.floor(3 * widths * np.maximum(*self._first) / eps) + 1
        else:
            counts = second_order_panels(widths, np.maximum(*self._second), eps)
        xs = partition_points(self._breaks, counts)
        p0, p1 = self.gamma0.values(xs), self.gamma1.values(xs)
        p0[-1], p1[-1] = p0[0], p1[0]
        return xs, p0, p1

    def polygonal_slices(self, ts, eps: float) -> list[PiecewisePath]:
        """The polylines within 2 eps/3 of ``slice_at(t)`` for every t in
        ``ts``, all on the partition of ``shared_vertices(eps)``."""
        return _blend_polylines(ts, *self.shared_vertices(eps))


def _blend_polylines(ts, xs: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> list[PiecewisePath]:
    """The closed polylines through (1 - t) P0 + t P1 at ``xs``, one per t."""
    w = np.asarray(ts, dtype=np.float64)[:, None]
    verts = (1.0 - w) * p0 + w * p1
    return [PiecewisePath.from_vertices(row, xs, closed=True) for row in verts]


def _check_end_path(path: Path, name: str):
    if not isinstance(path, PiecewisePath):
        raise TypeError(f"{name} must be a piecewise-differentiable path")
    if not path.is_closed:
        raise ValueError(f"{name} must be closed")
    if path.interval != (0.0, 1.0):
        raise MismatchedDomains(
            f"{name} must live on [0, 1] (reparametrize_to_unit first), got {path.interval}")


def _piece_bounds(path: PiecewisePath, mids: np.ndarray):
    """The bounds on |z'| and |z''| (None if absent) of the segments holding ``mids``."""
    k = np.searchsorted(path.breakpoints, mids, side="right") - 1
    second = path.second_derivative_bounds
    return path.derivative_bounds[k], None if second is None else second[k]


def linear_homotopy(gamma0: PiecewisePath, gamma1: PiecewisePath) -> Homotopy:
    """Pointwise convex blend (1-t) gamma0 + t gamma1 of two closed paths on [0, 1]."""
    for name, path in (("gamma0", gamma0), ("gamma1", gamma1)):
        _check_end_path(path, name)
    return Homotopy(gamma0, gamma1)


def star_null_homotopy(gamma: PiecewisePath, center: complex) -> Homotopy:
    """Contract a closed path onto a point along straight rays.

    This is the linear homotopy onto the constant path at the center.  Whether
    the swept cone stays inside a given domain is not checked here but by the
    chain builder's containment certificate.
    """
    return linear_homotopy(reparametrize_to_unit(gamma), constant_path(center))


def homotopy_carrier(sigma: Homotopy, eta: float) -> CompactCarrier:
    """Eta-net of the closure of the homotopy's range, on a (t, x) grid.

    The x-spacing is at most eta/L, so every x is within eta/(2L) of a grid
    column and every slice moves by at most eta/2 over that; each column's
    time segment [gamma0(x), gamma1(x)] is split into steps of length at most
    eta, so every point of it is within eta/2 of a grid point.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    columns = max(1, math.ceil(sigma.lipschitz / eta))
    xs = np.arange(columns + 1) / columns
    p0, p1 = sigma.gamma0.values(xs), sigma.gamma1.values(xs)
    rows = max(1, math.ceil(float(np.abs(p1 - p0).max()) / eta))
    if (rows + 1) * (columns + 1) > _CARRIER_BUDGET:
        raise ValueError(f"carrier grid of {(rows + 1) * (columns + 1)} points exceeds the budget")
    ts = np.arange(rows + 1)[:, None] / rows
    return CompactCarrier(((1.0 - ts) * p0 + ts * p1).ravel(), eta)


@dataclass(frozen=True)
class PairBound:
    """Certified bound for one consecutive pair, with its cross-check.

    ``sampled`` encloses the pair's sup-distance: exact up to rounding for
    two polylines (``exact``), a sampled lower bound plus the modulus slack
    when one member is curved.
    """

    analytic: float
    sampled: Bounds
    exact: bool


@dataclass(frozen=True)
class ChainCertificate:
    entries: tuple[PairBound, ...]

    def worst_ratio(self, exact: bool) -> float:
        """Largest measured/analytic ratio over the exact or the sampled entries."""
        return max((e.sampled.lo / e.analytic for e in self.entries if e.exact == exact),
                   default=0.0)

    def summary_text(self) -> str:
        return (f"{len(self.entries)} consecutive bounds, worst ratio to the bound "
                f"{self.worst_ratio(True):.3f} exact (interior pairs), "
                f"{self.worst_ratio(False):.3f} sampled (end pairs)")


@dataclass(frozen=True, eq=False)
class Chain:
    """Run of closed piecewise paths interpolating a homotopy.

    Members are [gamma0, phi_1, ..., phi_{n-1}, gamma1] at the times
    ``partition``; the interior members are polylines on one shared
    partition.  The certificate holds one entry per consecutive pair (eps/3
    at the ends, eps/2 inside), and the containment certificate witnesses
    that the swept region's eps-inflation stays inside the domain.
    ``carrier`` is the swept region's net at the certified resolution, built
    on first use.
    """

    members: tuple[PiecewisePath, ...]
    epsilon: float
    certificate: ChainCertificate
    containment: ContainmentCertificate
    partition: np.ndarray
    homotopy: Homotopy

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def carrier(self) -> CompactCarrier:
        return homotopy_carrier(self.homotopy, self.containment.net_resolution)

    def to_dict(self) -> dict:
        """The chain's certificate block of the JSON reports; an unbounded
        margin (the whole plane) is written as null."""
        margin = self.containment.margin
        return {
            "members": len(self.members),
            "epsilon": self.epsilon,
            "margin": margin if math.isfinite(margin) else None,
            "net_resolution": self.containment.net_resolution,
            "certificate": [
                {"analytic": e.analytic, "exact": e.exact,
                 "sampled_lo": e.sampled.lo, "sampled_hi": e.sampled.hi}
                for e in self.certificate.entries
            ],
        }


def _check_endpoint_slices(sigma: Homotopy, gamma0: Path, gamma1: Path):
    xs = np.arange(257) / 256
    for t, path, name in ((0.0, gamma0, "gamma0"), (1.0, gamma1, "gamma1")):
        slice_values = sigma.grid_values(np.array([t]), xs)[0]
        path_values = path.values(xs)
        gap = float(np.abs(slice_values - path_values).max())
        allowed = _ENDPOINT_TOL * float(np.abs(np.concatenate([slice_values, path_values])).max())
        if gap > allowed:
            raise EndpointMismatch(
                f"homotopy slice at t={t} differs from {name} by {gap:.3g} "
                f"(> {_ENDPOINT_TOL} x magnitude = {allowed:.3g})")


def _estimate_diameter(sigma: Homotopy) -> float:
    grid = sigma.grid_values(np.arange(9) / 8, np.arange(17) / 16).ravel()
    width = grid.real.max() - grid.real.min()
    height = grid.imag.max() - grid.imag.min()
    return math.hypot(width, height)


def _certify_containment(sigma: Homotopy, domain: DomainDescriptor,
                         max_refinements: int) -> ContainmentCertificate:
    """Certify the swept region's margin on a 1-D x-net, halving eta until
    the margin clears 4 eta.

    A net of spacing h <= 2 eta / L puts every x within eta/L of a net point,
    so every swept point is within eta of the time segment of a net point;
    the segments' exact minimum complement distance, less eta, bounds the
    region's.  A nonpositive minimum refuses at once.
    """
    diameter = _estimate_diameter(sigma)
    eta = 0.05 * diameter if diameter > 0 else 0.05
    last_failure = None
    for _ in range(max_refinements + 1):
        steps = max(1, math.ceil(sigma.lipschitz / (2 * eta)))
        if steps + 1 > _NET_BUDGET:
            raise ContainmentNotCertified(
                "containment not certified within the sampling budget"
                + (f": {last_failure}" if last_failure else ""),
                min_complement_distance=getattr(last_failure, "min_complement_distance", None),
                resolution=eta)
        xs = np.arange(steps + 1) / steps
        m = float(domain.segment_complement_distances(sigma.gamma0.values(xs),
                                                      sigma.gamma1.values(xs)).min())
        if m <= 0:
            # an exact segment minimum: a swept point lies outside, so no
            # finer net can help
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


def _time_partition(gap: float, eps: float, rounding: float) -> np.ndarray:
    """Times 0 = t_0 < ... < t_n = 1 for members ``gap`` apart per unit time.

    The end steps are min(eps/(6 gap), 1/2); the interior steps are equal
    and as few as keep step * gap + ``rounding`` within eps/2.
    """
    if gap <= eps / 3:
        return np.array([0.0, 0.5, 1.0])
    end = eps / (6 * gap)
    budget = eps / 2 - rounding
    steps = (1 - 2 * end) * gap / budget if budget > 0 else math.inf
    if not steps + 2 <= _MAX_SLICES:
        raise ValueError(
            f"chain would need {steps + 2:.6g} time slices; homotopy moves too fast in time "
            f"for eps {eps:.3g}")
    steps = max(1, math.ceil(steps))
    inner = end + (1 - 2 * end) * np.arange(steps + 1) / steps
    inner[-1] = 1.0 - end
    return np.concatenate([[0.0], inner, [1.0]])


def build_chain(sigma: Homotopy, gamma0: PiecewisePath, gamma1: PiecewisePath,
                domain: DomainDescriptor, *, eps: float | None = None,
                max_refinements: int = 8) -> Chain:
    """Discretize a homotopy into a chain with certified consecutive bounds.

    Steps: certify the swept region's containment on a 1-D net of exact
    segment distances (halving eta until the margin clears 4*eta); set eps to
    half the certified margin, unless overridden (a whole-plane domain has no
    finite margin and needs the override); evaluate both end paths once on
    the shared partition for eps/6 (``Homotopy.shared_vertices``); take the
    time steps from the exact vertex gap D+ = max |P1 - P0|, rounded up
    (``_time_partition``); blend the interior members in one batch; and
    record the eps/3 - eps/2 - eps/3 bounds with their cross-checks: the
    exact distance of two polylines inside, a sampled one at the two curved
    ends.
    """
    for name, path in (("gamma0", gamma0), ("gamma1", gamma1)):
        _check_end_path(path, name)
    _check_endpoint_slices(sigma, gamma0, gamma1)

    containment = _certify_containment(sigma, domain, max_refinements)
    if eps is None:
        if not math.isfinite(containment.margin):
            raise InvalidEpsilon(
                "the domain has no finite containment margin to take eps from; "
                "give eps explicitly (tolerances.eps in a spec)")
        eps = containment.margin / 2
    else:
        eps = float(eps)
        if not (0 < eps <= containment.margin * 6 / 7 and math.isfinite(eps)):
            raise InvalidEpsilon(
                f"eps override {eps} outside (0, {containment.margin * 6 / 7:.6g}] "
                "allowed by the containment margin")

    xs, p0, p1 = sigma.shared_vertices(eps / 6)
    gap = float(np.abs(p1 - p0).max()) * (1 + _BLEND_ROUNDING)
    scale = max(float(np.abs(p0).max()), float(np.abs(p1).max()))
    ts = _time_partition(gap, eps, _BLEND_ROUNDING * scale)
    n = len(ts) - 1

    members = [gamma0, *_blend_polylines(ts[1:-1], xs, p0, p1), gamma1]
    bounds = [eps / 3] + [eps / 2] * (n - 2) + [eps / 3]

    entries = []
    # an end pair is within eps/9 + eps/6, so a sampled enclosure of width
    # eps/24 still certifies it below eps/3
    tol_cc = eps / 48
    for j, bound in enumerate(bounds):
        exact = 0 < j < n - 1
        if exact:
            measured = polyline_sup_distance(members[j], members[j + 1])
        else:
            measured = sup_distance(members[j], members[j + 1], tol_cc)
        if measured.lo > bound:
            raise CertificateViolation(
                f"{'exact' if exact else 'sampled'} sup-distance lower bound {measured.lo:.6g} "
                f"exceeds the certified bound {bound:.6g} for pair {j}; "
                "a bound upstream is broken")
        entries.append(PairBound(analytic=bound, sampled=measured, exact=exact))

    return Chain(members=tuple(members), epsilon=eps,
                 certificate=ChainCertificate(tuple(entries)),
                 containment=containment, partition=ts, homotopy=sigma)
