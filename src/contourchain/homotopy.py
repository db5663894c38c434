"""Homotopies of closed paths and certified interpolation chains.

A homotopy here is the linear blend of two closed piecewise paths on
[0, 1].  It carries an explicit two-variable modulus (measured against the
euclidean distance of parameter pairs), used to sample its carrier, and a
time-Lipschitz constant, used to split time.  ``build_chain`` discretizes a
homotopy into a finite run of closed polylines: pick a containment margin for
the carrier, split the time axis by the time-Lipschitz constant finely enough
that neighbouring slices stay within a sixth of the budget, replace each
interior slice by its polygonal approximation, and certify every consecutive
sup-distance with the triangle-inequality bounds eps/3, eps/2, ..., eps/2,
eps/3.  Every certified bound is cross-checked and a violation fails hard,
since it would mean a broken modulus upstream.  Two interior members are
both polylines, so their distance is taken exactly on the union of their
breakpoints; the two end pairs, where one member may be curved, are sampled.

A slice of a linear blend is a piecewise path split at the union of the two
end paths' breakpoints, and each piece carries bounds on |z'| and |z''|
blended from the end paths' segments.  Its polygonal approximation therefore
takes the second-order rule (panels sized by the |z''| bound, every
breakpoint a vertex), which needs far fewer segments than the first-order
rule; a slice with a piece lacking a |z''| bound takes the first-order rule
on its Lipschitz modulus.  Either rule certifies the same 2/3 of its budget,
so the chain's bounds do not depend on which one ran.  ``build_chain`` builds
all interior slices' polylines in one batch: the partitions are concatenated,
each end path is evaluated once over all of them, and the blend is formed per
point with its slice's time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# polygonal_approximation is the single-slice form of Homotopy.polygonal_slices;
# perfbench/tracing.py wraps it under this module's name
from .approx import (
    first_order_panels,
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
from .geometry import (
    Bounds,
    CompactCarrier,
    ContainmentCertificate,
    DomainDescriptor,
    well_contained,
)
from .paths import (
    LipschitzModulus,
    Modulus,
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

_SMALL_TOL = 1e-3
_GAP_TOL_FLOOR = 1e-6
_GRID_BUDGET = 4_000_000
_MAX_SLICES = 4000
# Slice/path gap this small relative to their magnitude is float noise; the
# reference is the values themselves, not 1, so tiny paths are checked too.
_ENDPOINT_TOL = 1e-9


class Homotopy:
    """Linear blend sigma(t, x) = (1 - t) gamma0(x) + t gamma1(x) of two closed
    piecewise paths on [0, 1], built by ``linear_homotopy``.

    ``modulus2d`` is a modulus for the pair (t, x) under the euclidean
    distance; ``time_lipschitz`` bounds sup over x of
    |sigma(t, x) - sigma(t', x)| / |t - t'|, which alone sets the time
    partition of a chain.  ``slice_at(t)`` is the time-t slice as a piecewise
    path whose segments carry the bounds its polygonal approximation reads,
    and ``polygonal_slices`` builds those approximations for many times at once.

    Slices are split at the union of both paths' breakpoints.  On each piece
    both paths are single segments, so the slice's |z'| and |z''| are at most
    (1-t) times gamma0's segment bound plus t times gamma1's; the slice gets
    no second-derivative bound where either segment lacks one.
    """

    def __init__(self, gamma0: PiecewisePath, gamma1: PiecewisePath, time_lipschitz: float,
                 modulus2d: Modulus):
        self.gamma0 = gamma0
        self.gamma1 = gamma1
        self.time_lipschitz = float(time_lipschitz)
        self.modulus2d = modulus2d
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

    def polygonal_slices(self, ts, eps: float) -> list[PiecewisePath]:
        """``polygonal_approximation(self.slice_at(t), eps).path`` for every t in ``ts``.

        Every slice's partition comes from its blended piece bounds by the
        same rule, all partitions are evaluated with one call per end path,
        and the blend is formed as ``slice_at`` forms it, so the polylines are
        the same to the bit.
        """
        eps = float(eps)
        if not (math.isfinite(eps) and eps > 0):
            raise InvalidEpsilon(f"eps must be a positive finite number, got {eps!r}")
        ts = np.asarray(ts, dtype=np.float64)
        w = ts[:, None]
        if self._second is None:
            lipschitz = ((1.0 - w) * self._first[0] + w * self._first[1]).max(axis=1)
            with np.errstate(divide="ignore"):
                delta = np.where(lipschitz > 0, eps / 3 / lipschitz, np.inf)
            breaks, counts = np.array([0.0, 1.0]), first_order_panels(delta)[:, None]
        else:
            m2 = (1.0 - w) * self._second[0] + w * self._second[1]
            breaks = self._breaks
            counts = second_order_panels(np.diff(breaks), m2, eps)
        xs = partition_points(breaks, counts)
        sizes = counts.sum(axis=1).astype(np.int64) + 1
        blend = np.repeat(ts, sizes)
        verts = (1.0 - blend) * self.gamma0.values(xs) + blend * self.gamma1.values(xs)
        ends = np.cumsum(sizes)
        members = []
        for start, end in zip(ends - sizes, ends):
            # both end paths are closed, so a slice closes up to float noise;
            # its last vertex is snapped to the first as a closed slice's values are
            verts[end - 1] = verts[start]
            members.append(PiecewisePath.from_vertices(verts[start:end], xs[start:end],
                                                       closed=True))
        return members


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
    """Pointwise convex blend (1-t) gamma0 + t gamma1 of two closed paths on [0, 1].

    sigma(t, x) - sigma(t', x) = (t - t') (gamma1(x) - gamma0(x)), so the
    certified upper bound ``gap`` on sup |gamma1 - gamma0| is the exact
    time-Lipschitz constant.  With L = max(L0, L1) bounding every slice,
    |d sigma| <= L |dx| + gap |dt| <= hypot(L, gap) |(dt, dx)| by
    Cauchy-Schwarz, which is the two-variable modulus.
    """
    for name, path in (("gamma0", gamma0), ("gamma1", gamma1)):
        _check_end_path(path, name)
    lipschitz = max(gamma0.lipschitz_bound, gamma1.lipschitz_bound)
    # the gap is certified to within 2e-3, or to within 2e-3 of the paths'
    # Lipschitz constant when that is smaller, so tiny paths keep a gap (and
    # hence a time partition) of their own size; the floor at 1e-6 L keeps
    # the sampling grid of large paths within 10^6 steps
    tol = max(_SMALL_TOL * min(1.0, lipschitz or 1.0), _GAP_TOL_FLOOR * lipschitz)
    gap = sup_distance(gamma0, gamma1, tol).hi
    return Homotopy(gamma0, gamma1, gap, LipschitzModulus(math.hypot(lipschitz, gap)))


def star_null_homotopy(gamma: PiecewisePath, center: complex) -> Homotopy:
    """Contract a closed path onto a point along straight rays.

    This is the linear homotopy onto the constant path at the center.  Whether
    the swept cone stays inside a given domain is not checked here but by the
    chain builder's containment certificate.
    """
    return linear_homotopy(reparametrize_to_unit(gamma), constant_path(center))


def _grid_steps(sigma: Homotopy, eta: float) -> int:
    spacing = sigma.modulus2d.delta(eta) / math.sqrt(2.0)
    return max(1, math.ceil(1.0 / min(spacing, 1.0)))


def homotopy_carrier(sigma: Homotopy, eta: float) -> CompactCarrier:
    """Eta-net of the closure of the homotopy's range, by uniform grid sampling.

    Grid spacing is delta(eta)/sqrt(2) in each axis so every parameter pair is
    within euclidean distance delta(eta) of a grid point.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    steps = _grid_steps(sigma, eta)
    if (steps + 1) ** 2 > 5 * _GRID_BUDGET:
        raise ValueError(f"carrier grid of {(steps + 1) ** 2} points exceeds the budget")
    ts = np.arange(steps + 1) / steps
    grid = sigma.grid_values(ts, ts)
    return CompactCarrier(grid.ravel(), eta)


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

    Members are [gamma0, phi_1, ..., phi_{n-1}, gamma1]; the certificate holds
    one entry per consecutive pair (eps/3 at the ends, eps/2 inside), and the
    containment certificate witnesses that the carrier's eps-inflation stays
    inside the domain.
    """

    members: tuple[PiecewisePath, ...]
    epsilon: float
    certificate: ChainCertificate
    containment: ContainmentCertificate
    carrier: CompactCarrier
    partition: np.ndarray

    def __len__(self) -> int:
        return len(self.members)

    def to_dict(self) -> dict:
        """The chain's certificate block of the JSON reports."""
        return {
            "members": len(self.members),
            "epsilon": self.epsilon,
            "margin": self.containment.margin,
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


def _certify_containment(sigma: Homotopy, domain: DomainDescriptor, max_refinements: int):
    diameter = _estimate_diameter(sigma)
    eta = 0.05 * diameter if diameter > 0 else 0.05
    last_failure = None
    for _ in range(max_refinements + 1):
        if (_grid_steps(sigma, eta) + 1) ** 2 > _GRID_BUDGET:
            raise ContainmentNotCertified(
                "containment not certified within the sampling budget"
                + (f": {last_failure}" if last_failure else ""),
                min_complement_distance=getattr(last_failure, "min_complement_distance", None),
                resolution=eta)
        carrier = homotopy_carrier(sigma, eta)
        try:
            cert = well_contained(carrier, domain)
            if cert.margin > 4 * eta:
                return carrier, cert
            last_failure = ContainmentNotCertified(
                f"margin {cert.margin:.6g} not above 4*eta={4 * eta:.6g}", resolution=eta)
        except ContainmentNotCertified as exc:
            last_failure = exc
        eta /= 2
    raise ContainmentNotCertified(
        f"containment not certified after {max_refinements} refinements: {last_failure}",
        min_complement_distance=getattr(last_failure, "min_complement_distance", None),
        resolution=getattr(last_failure, "resolution", None))


def _time_slices(time_lipschitz: float, eps: float) -> int:
    """Smallest n >= 2 with time_lipschitz / n < eps / 6.

    Slices 1/n apart then differ by less than eps/6 at every parameter.  At
    least one interior member is kept, so every chain has three members or
    more.
    """
    return max(2, math.floor(6 * time_lipschitz / eps) + 1)


def build_chain(sigma: Homotopy, gamma0: PiecewisePath, gamma1: PiecewisePath,
                domain: DomainDescriptor, *, eps: float | None = None,
                max_refinements: int = 8) -> Chain:
    """Discretize a homotopy into a chain with certified consecutive bounds.

    Steps: certify the carrier's containment (refining the net until the
    margin clears 4*eta), set eps to half the certified margin so the
    eps/6-inflated carrier still sits well inside the domain, split the time
    axis into n steps with sigma.time_lipschitz / n < eps/6 so neighbouring
    slices differ by less than eps/6, polygonally approximate all interior
    slices to eps/6 in one batch (``Homotopy.polygonal_slices``), and record
    the eps/3 - eps/2 - eps/3 bounds with their cross-checks: the exact
    distance of two polylines inside, a sampled one at the two curved ends.
    The containment net still samples at the two-variable modulus, since it
    must cover the whole swept region.
    """
    for name, path in (("gamma0", gamma0), ("gamma1", gamma1)):
        _check_end_path(path, name)
    _check_endpoint_slices(sigma, gamma0, gamma1)

    carrier, containment = _certify_containment(sigma, domain, max_refinements)
    if eps is None:
        eps = containment.margin / 2
    else:
        eps = float(eps)
        if not (0 < eps <= containment.margin * 6 / 7):
            raise InvalidEpsilon(
                f"eps override {eps} outside (0, {containment.margin * 6 / 7:.6g}] "
                "allowed by the containment margin")

    n = _time_slices(sigma.time_lipschitz, eps)
    if n > _MAX_SLICES:
        raise ValueError(
            f"chain would need {n} time slices; homotopy moves too fast in time for margin "
            f"{containment.margin:.3g}")
    ts = np.arange(n + 1) / n
    ts[-1] = 1.0

    members = [gamma0, *sigma.polygonal_slices(ts[1:-1], eps / 6), gamma1]
    bounds = [eps / 3] + [eps / 2] * (n - 2) + [eps / 3]

    entries = []
    tol_cc = eps / 12
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
                "a modulus upstream is broken")
        entries.append(PairBound(analytic=bound, sampled=measured, exact=exact))

    return Chain(members=tuple(members), epsilon=eps,
                 certificate=ChainCertificate(tuple(entries)),
                 containment=containment, carrier=carrier, partition=ts)
