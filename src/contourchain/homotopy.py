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
  region's distance to the complement.  The minimum M over 17 segments,
  taken with the diameter estimate, bounds the region's from above, so every
  halving of eta whose net could not clear 4 eta (M < 7.99 eta) is skipped
  unevaluated: one net round is the rule.
* Members.  The partition takes, on each piece between breakpoints of either
  end path, the panel count of ``approx.panel_counts`` at eps/6 for the
  larger of the two end paths' |z''| bounds there.  With P0 and P1 the end
  paths' values there, the member at time t is the polyline through
  (1-t) P0 + t P1.
  Interpolation commutes with the blend, so it is the blend of the end
  paths' own polylines and lies within eps/9 of the slice.  All interior
  members are blended at once into one (k, m+1) vertex array, validated
  once, and each member is a view of its row
  (``PiecewisePath.from_vertex_rows``).
* Time steps.  Two interior members differ by exactly |t - t'| |P1 - P0|,
  largest at a vertex.  With D+ that maximum rounded up, the end steps are
  min(eps/(6 D+), 1/2), so an end pair is within eps/9 + eps/6 < eps/3, and the
  interior steps are equal with step * D+ at most eps/2 less a rounding
  allowance.

The certificate keeps the bounds eps/3, eps/2, ..., eps/2, eps/3, each
cross-checked from the values already on the shared partition, with no
sampling.  All n pairs are bounded in one step from one (n+1, m+1) vertex
array, the blend at every time including 0 and 1, whose first and last rows
are P0 and P1: max |V_j - V_j+1| widened by the rounding allowance at the
pair's largest |vertex|, as ``polyline_sup_distance`` gives it, validated
once for all pairs.  That is exact for two polylines; at a curved end it is
the vertex maximum, a true lower bound, and adding the end path's eps/9
interpolation bound on the partition gives an upper bound.  An end path
made of lines with its breakpoints on the partition is exact with no slack.
The lower bounds are checked against the analytic ones in one comparison;
one above its bound fails hard, naming the lowest such pair, since it
would mean a broken bound upstream.  No 2-D net of the swept region is
built: containment and every pair bound come from closed forms on 1-D
partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py wraps these layer functions under this module's name,
# so they stay importable here even where build_chain no longer calls them
from .approx import panel_counts, partition_points, polygonal_approximation  # noqa: F401
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
from .paths import (  # noqa: F401
    PiecewisePath,
    _consecutive_gaps,
    constant_path,
    reparametrize_to_unit,
    sup_distance,
)

__all__ = [
    "Homotopy",
    "linear_homotopy",
    "star_null_homotopy",
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
# A net of resolution eta certifies only if its minimum m clears 9 eta, and
# m <= M + eta for the coarse grid's minimum M, so a level with M below this
# many eta is skipped unevaluated (8, less 0.01 of room for rounding).
_NET_SKIP = 7.99


class Homotopy:
    """Linear blend sigma(t, x) = (1 - t) gamma0(x) + t gamma1(x) of two closed
    piecewise paths on [0, 1], built by ``linear_homotopy``.

    ``lipschitz`` = max(L0, L1) bounds every slice's Lipschitz constant in x,
    and ``grid_values`` evaluates slices on a (t, x) grid.
    ``shared_vertices`` gives the one partition on which all slices are
    approximated, with both end paths' values there.

    The partition splits [0, 1] at the union of both paths' breakpoints.  On
    each piece both paths are single segments, so a slice's |z''| is at most
    (1-t) times gamma0's segment bound plus t times gamma1's, and so at most
    the larger of the two, which sizes the piece's panels.
    """

    def __init__(self, gamma0: PiecewisePath, gamma1: PiecewisePath):
        self.gamma0 = gamma0
        self.gamma1 = gamma1
        self.lipschitz = max(gamma0.lipschitz_bound, gamma1.lipschitz_bound)
        self._breaks = np.union1d(gamma0.breakpoints, gamma1.breakpoints)
        mids = (self._breaks[:-1] + self._breaks[1:]) / 2
        self._second = np.maximum(_piece_bounds(gamma0, mids), _piece_bounds(gamma1, mids))

    def grid_values(self, ts, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        return _blend(ts, self.gamma0.values(xs), self.gamma1.values(xs))

    def shared_vertices(self, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xs, P0, P1): one partition of [0, 1] and both end paths' values on it.

        Each piece between breakpoints gets ``panel_counts`` at ``eps`` for
        the larger of the two end paths' bounds there.  The polyline through
        P0 (or P1) is within 2 eps/3 of its path, and so the polyline through
        (1-t) P0 + t P1 is within 2 eps/3 of the slice at t.  The closing
        value is snapped to the first, as a closed path's values are.
        """
        eps = float(eps)
        if not (math.isfinite(eps) and eps > 0):
            raise InvalidEpsilon(f"eps must be a positive finite number, got {eps!r}")
        xs = partition_points(self._breaks,
                              panel_counts(np.diff(self._breaks), self._second, eps))
        p0, p1 = self.gamma0.values(xs), self.gamma1.values(xs)
        p0[-1], p1[-1] = p0[0], p1[0]
        return xs, p0, p1


def _blend(ts, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """The rows (1 - t) P0 + t P1, one per t."""
    ts = np.asarray(ts, dtype=np.float64)
    return np.outer(1.0 - ts, p0) + np.outer(ts, p1)


def _check_end_path(path: PiecewisePath, name: str):
    if not isinstance(path, PiecewisePath):
        raise TypeError(f"{name} must be a piecewise-differentiable path")
    if not path.is_closed:
        raise ValueError(f"{name} must be closed")
    if path.interval != (0.0, 1.0):
        raise MismatchedDomains(
            f"{name} must live on [0, 1] (reparametrize_to_unit first), got {path.interval}")


def _piece_bounds(path: PiecewisePath, mids: np.ndarray) -> np.ndarray:
    """The |z''| bounds of the segments holding ``mids``."""
    return path.second_derivative_bounds[np.searchsorted(path.breakpoints, mids, side="right") - 1]


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


# no caller in the package: the benchmark's tracer wraps it (perfbench/tracing.py)
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
    two polylines (``exact``); at a curved end path, the vertex maximum on
    the shared partition as the lower bound, plus the end path's
    interpolation bound there as the upper bound.  The field keeps its name,
    as do the JSON keys ``sampled_lo``/``sampled_hi`` read from it.
    """

    analytic: float
    sampled: Bounds
    exact: bool


@dataclass(frozen=True)
class ChainCertificate:
    entries: tuple[PairBound, ...]

    def worst_ratio(self, exact: bool) -> float | None:
        """Largest lower-bound/analytic ratio over the exact or the curved
        entries, or None when the chain has no entry of that kind."""
        return max((e.sampled.lo / e.analytic for e in self.entries if e.exact == exact),
                   default=None)

    def summary_text(self) -> str:
        exact, vertex = (self.worst_ratio(kind) for kind in (True, False))
        return (f"{len(self.entries)} consecutive bounds, worst ratio to the bound "
                f"{_ratio_text(exact)} exact (polyline pairs), "
                f"{_ratio_text(vertex)} vertex (curved end pairs)")


def _ratio_text(ratio: float | None) -> str:
    return "none" if ratio is None else f"{ratio:.3f}"


@dataclass(frozen=True, eq=False)
class Chain:
    """Run of closed piecewise paths interpolating a homotopy.

    Members are [gamma0, phi_1, ..., phi_{n-1}, gamma1] at the times
    ``partition``; the interior members are polylines on one shared
    partition.  The certificate holds one entry per consecutive pair (eps/3
    at the ends, eps/2 inside), and the containment certificate witnesses
    that the swept region's eps-inflation stays inside the domain.
    """

    members: tuple[PiecewisePath, ...]
    epsilon: float
    certificate: ChainCertificate
    containment: ContainmentCertificate
    partition: np.ndarray

    def __len__(self) -> int:
        return len(self.members)

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


def _check_endpoint_slices(sigma: Homotopy, gamma0: PiecewisePath, gamma1: PiecewisePath):
    """Refuse end paths that differ from the homotopy's end slices beyond
    float noise.

    The slice at t = 0 is 1.0 P0 + 0.0 P1 == P0 and the slice at t = 1 is P1,
    bit for bit up to the sign of a zero, so the homotopy's own end is its
    slice with a gap of exactly 0 and is not evaluated; any other path is
    compared with the values of its own end alone.
    """
    xs = np.arange(257) / 256
    for t, path, own, name in ((0.0, gamma0, sigma.gamma0, "gamma0"),
                               (1.0, gamma1, sigma.gamma1, "gamma1")):
        if path is own:
            continue
        slice_values, path_values = own.values(xs), path.values(xs)
        gap = float(np.abs(slice_values - path_values).max())
        allowed = _ENDPOINT_TOL * float(np.abs(np.concatenate([slice_values, path_values])).max())
        if gap > allowed:
            raise EndpointMismatch(
                f"homotopy slice at t={t} differs from {name} by {gap:.3g} "
                f"(> {_ENDPOINT_TOL} x magnitude = {allowed:.3g})")


def _coarse_grid(sigma: Homotopy, domain: DomainDescriptor) -> tuple[float, float]:
    """(diameter, M) from both end paths' values on 17 points of [0, 1].

    The diameter is that of the bounding box of 9 slices there, an estimate
    that only sets the first net's resolution.  M is the smallest exact
    complement distance over those 17 time segments: a minimum over part of
    the swept region, so at least the minimum m* over all of it.
    """
    xs = np.arange(17) / 16
    p0, p1 = sigma.gamma0.values(xs), sigma.gamma1.values(xs)
    grid = _blend(np.arange(9) / 8, p0, p1).ravel()
    width = grid.real.max() - grid.real.min()
    height = grid.imag.max() - grid.imag.min()
    return math.hypot(width, height), float(domain.segment_complement_distances(p0, p1).min())


def _certify_containment(sigma: Homotopy, domain: DomainDescriptor,
                         max_refinements: int) -> ContainmentCertificate:
    """Certify the swept region's margin on a 1-D x-net, halving eta until
    the margin clears 4 eta, in one net round as a rule.

    A net of spacing h <= 2 eta / L puts every x within eta/L of a net point,
    so every swept point is within eta of the time segment of a net point;
    the segments' exact minimum complement distance m, less eta, bounds the
    region's.  A nonpositive m refuses at once.

    One round.  With m* the minimum over the whole swept region, the net
    point nearest to where m* is attained has a time segment within eta of
    that one, so m <= m* + eta; and m* <= M, the minimum over the 17 time
    segments of ``_coarse_grid``.  A level certifies only if
    (m - eta)/2 > 4 eta, that is m > 9 eta, which needs M > 8 eta.  So a
    level with 0 < M < 7.99 eta (0.01 eta of room for rounding) cannot
    certify whatever its net, and is skipped unevaluated; the budget is
    still checked there.  Nothing is skipped when M <= 0, and the last
    level is always evaluated.  The first level evaluated is then the first
    that can certify, and a certificate from it is the one the plain loop,
    evaluating every level in turn, returns: no skipped level could have
    certified, nor refused with m <= 0, since that needs m* <= 0 and leaves
    every later level with m <= eta.  A refusal's level is not so
    determined (a region that leaves the domain between the 17 points has
    M > 0 > m*), so a refusal after a skip runs the plain loop again from
    the first level and raises that loop's refusal, with the level and
    margin it finds.  Refusals are rare, and the replay at most doubles one.
    """
    diameter, upper = _coarse_grid(sigma, domain)
    eta = 0.05 * diameter if diameter > 0 else 0.05
    if not (max_refinements > 0 and 0 < upper < _NET_SKIP * eta):
        return _halving_loop(sigma, domain, eta, max_refinements)
    try:
        return _halving_loop(sigma, domain, eta, max_refinements, upper)
    except ContainmentNotCertified:
        return _halving_loop(sigma, domain, eta, max_refinements)


def _halving_loop(sigma: Homotopy, domain: DomainDescriptor, eta: float,
                  max_refinements: int, upper: float = 0.0) -> ContainmentCertificate:
    """The net levels eta, eta/2, ... in turn, skipping those with
    0 < ``upper`` < 7.99 eta but the last (see ``_certify_containment``)."""
    last_failure = None
    for level in range(max_refinements + 1):
        steps = max(1, math.ceil(sigma.lipschitz / (2 * eta)))
        if steps + 1 > _NET_BUDGET:
            raise ContainmentNotCertified(
                "containment not certified within the sampling budget"
                + (f": {last_failure}" if last_failure else ""),
                min_complement_distance=getattr(last_failure, "min_complement_distance", None),
                resolution=eta)
        if 0 < upper < _NET_SKIP * eta and level < max_refinements:
            eta /= 2
            continue
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


def _end_values(path: PiecewisePath, xs: np.ndarray) -> np.ndarray:
    """A path's values on ``xs`` with the closing value snapped to the first."""
    values = path.values(xs)
    values[-1] = values[0]
    return values


def _end_pair(path: PiecewisePath, own: PiecewisePath, values: np.ndarray,
              xs: np.ndarray, pair: Bounds, eps: float) -> tuple[Bounds, bool]:
    """Enclosure of sup |path - member| for an end path and its neighbouring
    member, from ``pair``, the polyline distance of its row ``values`` = Q
    (the path's values on ``xs``) and the member's, and whether it is exact.

    The vertex maximum of |Q - member| is attained, so it is a lower bound;
    |polyline through Q - member| peaks at a vertex, so that maximum plus
    sup |path - polyline through Q| is an upper bound.  The homotopy's own
    end (``own``) has Q from ``shared_vertices(eps/6)``, within eps/9 of it.
    Any other path was evaluated on xs: with its breakpoints in xs it is
    within max h^2 M2 / 8 over the panels h of its polyline, for its |z''|
    bounds M2 (the Peano kernel of linear interpolation, (x - a)(b - x)/2 >= 0
    on a panel [a, b], holds for complex values too), plus the rounding
    allowance at its largest |value|; otherwise within its Lipschitz chord
    bound L max(h) / 2.  A path of lines whose breakpoints are all in xs is
    its own polyline through Q, so the pair is exact with no slack; xs holds
    every breakpoint of the homotopy's ends.
    """
    aligned = path is own or bool(np.isin(path.breakpoints, xs).all())
    if path._all_lines and aligned:
        return pair, True
    if path is own:
        return Bounds(pair.lo, pair.hi + eps / 9), False
    panels = np.diff(xs)
    if aligned:
        second = _piece_bounds(path, (xs[:-1] + xs[1:]) / 2)
        slack = (float((panels * panels * second).max()) / 8
                 + _BLEND_ROUNDING * float(np.abs(values).max()))
    else:
        slack = path.lipschitz_bound * float(panels.max()) / 2
    return Bounds(pair.lo, pair.hi + slack), False


def build_chain(sigma: Homotopy, gamma0: PiecewisePath, gamma1: PiecewisePath,
                domain: DomainDescriptor, *, eps: float | None = None,
                max_refinements: int = 8) -> Chain:
    """Discretize a homotopy into a chain with certified consecutive bounds.

    Steps, each a fixed number of array passes: certify the swept region's
    containment on a 1-D net of exact segment distances, in one net round as
    a rule (``_certify_containment`` skips every level that cannot clear
    4*eta); set eps to half the certified margin, unless overridden (a
    whole-plane domain has no finite margin and needs the override);
    evaluate both end paths once on the shared partition for eps/6
    (``Homotopy.shared_vertices``); take the time steps from the exact
    vertex gap D+ = max |P1 - P0|, rounded up (``_time_partition``); blend
    all members at once into one vertex array whose first and last rows are
    P0 and P1 (an end path that is not the homotopy's own replaces its row
    with its values); and bound every consecutive pair from that array in
    one step.  The interior pairs' polyline distances are exact; an end pair
    adds its curved end's slack (``_end_pair``).  The eps/3 - eps/2 - eps/3
    bounds are checked against all lower bounds in one comparison, which
    names the lowest failing pair.
    """
    if not (isinstance(max_refinements, int) and max_refinements >= 0):
        raise ValueError(f"max_refinements must be a non-negative integer, got {max_refinements!r}")
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

    rows = _blend(ts, p0, p1)
    members = [gamma0, *PiecewisePath.from_vertex_rows(rows[1:-1], xs, closed=True), gamma1]
    ends = ((0, gamma0, sigma.gamma0), (-1, gamma1, sigma.gamma1))
    for row, path, own in ends:
        if path is not own:
            rows[row] = _end_values(path, xs)
    lo, hi = _consecutive_gaps(rows)
    exact = [True] * n
    for row, path, own in ends:
        pair, exact[row] = _end_pair(path, own, rows[row], xs, Bounds(lo[row], hi[row]), eps)
        lo[row], hi[row] = pair.lo, pair.hi

    analytic = np.full(n, eps / 2)
    analytic[[0, -1]] = eps / 3
    over = np.flatnonzero(lo > analytic)
    if over.size:
        j = int(over[0])
        raise CertificateViolation(
            f"{'exact' if exact[j] else 'vertex'} sup-distance lower bound {lo[j]:.6g} "
            f"exceeds the certified bound {analytic[j]:.6g} for pair {j}; "
            "a bound upstream is broken")
    entries = tuple(map(PairBound, analytic.tolist(), Bounds.from_arrays(lo, hi), exact))

    return Chain(members=tuple(members), epsilon=eps,
                 certificate=ChainCertificate(entries),
                 containment=containment, partition=ts)
