"""Homotopies of closed paths and certified interpolation chains.

A homotopy is a continuous map on [0,1]^2 whose time slices are closed
paths.  It carries an explicit two-variable modulus (measured against the
euclidean distance of parameter pairs), used to sample its carrier, and a
time-Lipschitz constant, used to split time.  ``build_chain`` discretizes a
homotopy into a finite run of closed polylines: pick a containment margin for
the carrier, split the time axis by the time-Lipschitz constant finely enough
that neighbouring slices stay within a sixth of the budget, replace each
interior slice by its polygonal approximation, and
certify every consecutive sup-distance with the triangle-inequality bounds
eps/3, eps/2, ..., eps/2, eps/3.  Every certified bound is cross-checked
against a sampled lower bound and a violation fails hard, since it would mean
a broken modulus upstream.

A slice of a linear blend is a piecewise path split at the union of the two
end paths' breakpoints, and each piece carries bounds on |z'| and |z''|
blended from the end paths' segments.  Its polygonal approximation therefore
takes the second-order rule (panels sized by the |z''| bound, every
breakpoint a vertex), which needs far fewer segments than the first-order
rule; a slice with a piece lacking a |z''| bound falls back to the
first-order rule on its Lipschitz modulus.  Either rule certifies the same
2/3 of its budget, so the chain's bounds do not depend on which one ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import polygonal_approximation
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
_GRID_BUDGET = 4_000_000
_MAX_SLICES = 4000
# Slice/path gap this small relative to their magnitude is float noise; the
# reference is the values themselves, not 1, so tiny paths are checked too.
_ENDPOINT_TOL = 1e-9


class Homotopy:
    """Continuous interpolation between two closed paths on [0,1]^2.

    ``grid(ts, xs)`` evaluates the homotopy on the product of two parameter
    arrays.  ``modulus2d`` is a modulus for the pair (t, x) under the euclidean
    distance; ``time_lipschitz`` bounds sup over x of
    |sigma(t, x) - sigma(t', x)| / |t - t'|, which alone sets the time
    partition of a chain; ``slice_at(t)`` is the time-t slice as a piecewise
    path whose segments carry the bounds its polygonal approximation reads.
    """

    def __init__(self, grid, modulus2d: Modulus, time_lipschitz: float, slicer,
                 gamma0: Path, gamma1: Path):
        self._grid = grid
        self.modulus2d = modulus2d
        self.time_lipschitz = float(time_lipschitz)
        self._slicer = slicer
        self.gamma0 = gamma0
        self.gamma1 = gamma1

    def value(self, t: float, x: float) -> complex:
        return complex(self.grid_values([t], [x])[0, 0])

    def grid_values(self, ts, xs) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        xs = np.asarray(xs, dtype=np.float64)
        return np.asarray(self._grid(ts, xs), dtype=np.complex128)

    def slice_at(self, t: float) -> PiecewisePath:
        return self._slicer(float(t))


def _require_unit_closed(path: Path, name: str):
    if path.interval != (0.0, 1.0):
        raise MismatchedDomains(
            f"{name} must live on [0, 1] (reparametrize_to_unit first), got {path.interval}")


def _piece_bounds(path: PiecewisePath, mids: np.ndarray):
    """The bounds on |z'| and |z''| (None if absent) of the segments holding ``mids``."""
    k = np.searchsorted(path.breakpoints, mids, side="right") - 1
    second = path.second_derivative_bounds
    return path.derivative_bounds[k], None if second is None else second[k]


def linear_homotopy(gamma0: PiecewisePath, gamma1: PiecewisePath) -> Homotopy:
    """Pointwise convex blend (1-t) gamma0 + t gamma1.

    sigma(t, x) - sigma(t', x) = (t - t') (gamma1(x) - gamma0(x)), so the
    certified upper bound ``gap`` on sup |gamma1 - gamma0| is the exact
    time-Lipschitz constant.  With L = max(L0, L1) bounding every slice,
    |d sigma| <= L |dx| + gap |dt| <= hypot(L, gap) |(dt, dx)| by
    Cauchy-Schwarz, which is the two-variable modulus.

    Slices are split at the union of both paths' breakpoints.  On each piece
    both paths are single segments, so the slice's |z'| and |z''| are at most
    (1-t) times gamma0's segment bound plus t times gamma1's; the slice gets
    no second-derivative bound where either segment lacks one.
    """
    for name, path in (("gamma0", gamma0), ("gamma1", gamma1)):
        if not isinstance(path, PiecewisePath):
            raise TypeError(f"{name} must be a piecewise-differentiable path")
    if gamma0.interval != gamma1.interval:
        raise MismatchedDomains(
            f"paths live on {gamma0.interval} and {gamma1.interval}")
    _require_unit_closed(gamma0, "gamma0")
    lipschitz = max(gamma0.lipschitz_bound, gamma1.lipschitz_bound)
    # the gap is certified to within 2e-3, or to within 2e-3 of the paths'
    # Lipschitz constant when that is smaller, so tiny paths keep a gap (and
    # hence a time partition) of their own size
    gap = sup_distance(gamma0, gamma1, _SMALL_TOL * min(1.0, lipschitz or 1.0)).hi
    breaks = np.union1d(gamma0.breakpoints, gamma1.breakpoints)
    mids = (breaks[:-1] + breaks[1:]) / 2
    first0, second0 = _piece_bounds(gamma0, mids)
    first1, second1 = _piece_bounds(gamma1, mids)

    def grid(ts, xs):
        return np.outer(1.0 - ts, gamma0.values(xs)) + np.outer(ts, gamma1.values(xs))

    def slicer(t):
        def values(xs):
            return (1.0 - t) * gamma0.values(xs) + t * gamma1.values(xs)

        def derivatives(xs):
            _, d0 = gamma0.eval_with_derivative(xs)
            _, d1 = gamma1.eval_with_derivative(xs)
            return (1.0 - t) * d0 + t * d1

        second = None
        if second0 is not None and second1 is not None:
            second = (1.0 - t) * second0 + t * second1
        return PiecewisePath.from_evaluator(values, derivatives, breaks,
                                            (1.0 - t) * first0 + t * first1, second,
                                            closed=True)

    return Homotopy(grid, LipschitzModulus(math.hypot(lipschitz, gap)), gap, slicer,
                    gamma0, gamma1)


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
    """Certified bound for one consecutive pair, with its sampled cross-check."""

    analytic: float
    sampled: Bounds


@dataclass(frozen=True)
class ChainCertificate:
    entries: tuple[PairBound, ...]


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
    slices differ by less than eps/6, polygonally approximate every interior
    slice to eps/6 (by the second-order rule when the slice carries |z''|
    bounds, else the first-order one), and record the eps/3 - eps/2 - eps/3
    bounds with sampled cross-checks.  The containment net still samples at
    the two-variable modulus, since it must cover the whole swept region.
    """
    for name, path in (("gamma0", gamma0), ("gamma1", gamma1)):
        if not isinstance(path, PiecewisePath):
            raise TypeError(f"{name} must be a piecewise-differentiable path")
        if not path.is_closed:
            raise ValueError(f"{name} must be closed")
        _require_unit_closed(path, name)
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

    members: list[PiecewisePath] = [gamma0]
    for i in range(1, n):
        members.append(polygonal_approximation(sigma.slice_at(ts[i]), eps / 6).path)
    members.append(gamma1)

    bounds = [eps / 3] + [eps / 2] * (n - 2) + [eps / 3]

    entries = []
    tol_cc = eps / 12
    for j, bound in enumerate(bounds):
        sampled = sup_distance(members[j], members[j + 1], tol_cc)
        if sampled.lo > bound:
            raise CertificateViolation(
                f"sampled sup-distance lower bound {sampled.lo:.6g} exceeds the certified "
                f"bound {bound:.6g} for pair {j}; a modulus upstream is broken")
        entries.append(PairBound(analytic=bound, sampled=sampled))

    return Chain(members=tuple(members), epsilon=eps,
                 certificate=ChainCertificate(tuple(entries)),
                 containment=containment, carrier=carrier, partition=ts)
