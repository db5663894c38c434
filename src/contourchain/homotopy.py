"""Homotopies of closed paths and chains certified by the small-disk lemma.

A homotopy here is the linear blend sigma(t, x) = (1-t) gamma0(x) + t gamma1(x)
of two closed piecewise paths on [0, 1], which are the chain's two ends.  It
only proposes the members between them, as the vertex rows of
``Homotopy.rows``; the chain certifies itself by the small-disk lemma of the
homotopy form of Cauchy's theorem (e.g. Conway, Functions of One Complex
Variable I, IV.6): for closed paths sigma and tau on [0, 1], if
|sigma(x) - tau(x)| < rho and the disk D(sigma(x), rho) lies in U for every
x, then every f analytic on U has the same integral along sigma and tau.
``build_chain`` checks that hypothesis for every consecutive pair, in closed
form on one (n+1, m+1) vertex array, and its docstring holds the proof.  The
interior members are polylines on one shared partition
(``Homotopy.shared_vertices``), at uniform time steps bisected where a pair
fails.  Their clearances are exact minima over their segments
(``_certify_containment``), an end path's less its interpolation bound
(``_end_slack``), and two of them are furthest apart at a vertex
(``_consecutive_gaps``).

On each piece between the union of both ends' breakpoints, each end is one
segment, found once when the homotopy is built.  ``partition_points`` gives
the piece of every panel, and that one index serves both ends: each is
evaluated from its own tables on its pieces' rows, and its slack gathers its
pieces' |z''| bounds.  Partition points lie in [0, 1] by construction, so no
range check or search is run on them.

The rows are the chain's data: a ``Chain`` holds its interior rows, their
shared partition and its two end paths, and its reports, its CSV and the
quadrature along it (``integrate.integral_along_chain``) read the rows.  A
member becomes a ``PiecewisePath`` only when asked for (``Chain.members``).

No net of the swept region is built, and nothing is sampled.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py wraps these layer functions under this module's name,
# so they stay importable here even where build_chain no longer calls them
from .approx import panel_counts, partition_points, polygonal_approximation  # noqa: F401
from .errors import ContainmentNotCertified, EndpointMismatch, InvalidEpsilon
from .geometry import Bounds, CompactCarrier, DomainDescriptor, well_contained  # noqa: F401
from .geometry import polyline_clearances
from .paths import (  # noqa: F401
    PiecewisePath,
    _consecutive_gaps,
    _segment_values,
    constant_path,
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

# Most members in a chain, most vertices in all its members, most
# bisections of one time step, and most rebuilds of the shared partition
# with panels half as wide
_MAX_SLICES = 4000
_MAX_VERTICES = 2_000_000
_MAX_DEPTH = 20
_FINER_PARTITIONS = 6
# The shared partition is sized for this fraction of the coarse grid's
# clearance (or of eps, when smaller)
_PARTITION_FRACTION = 0.25
# The coarse grid's abscissae (see _coarse_grid)
_COARSE_XS = np.arange(17) / 16
# Largest swept-region carrier, in points
_CARRIER_BUDGET = 20_000_000
# Rounding of the members' blend, of the times, of the closed-form distances
# and of polyline_sup_distance's own widening (16 ulps), relative to the
# largest magnitude involved.
_BLEND_ROUNDING = 64 * np.finfo(np.float64).eps


class Homotopy:
    """Linear blend sigma(t, x) = (1 - t) gamma0(x) + t gamma1(x) of two closed
    piecewise paths on [0, 1], built by ``linear_homotopy``.

    ``lipschitz`` = max(L0, L1) bounds every slice's Lipschitz constant in x,
    and ``rows`` proposes the chain's vertex rows from both end paths' values.
    ``shared_vertices`` gives the one partition on which all slices are
    approximated, with both end paths' values there, cut into ``panels``.

    The partition splits [0, 1] at the union of both paths' breakpoints.  On
    each piece both paths are single segments, so a slice's |z''| is at most
    (1-t) times gamma0's segment bound plus t times gamma1's, and so at most
    the larger of the two, which sizes the piece's panels.  Each end's table
    row and |z''| bound on each piece are kept, read straight from the path
    when its breakpoints are the union.
    """

    def __init__(self, gamma0: PiecewisePath, gamma1: PiecewisePath):
        for name, path in (("gamma0", gamma0), ("gamma1", gamma1)):
            if not isinstance(path, PiecewisePath):
                raise TypeError(f"{name} must be a piecewise-differentiable path")
            if not path.is_closed:
                raise ValueError(f"{name} must be closed")
        self.gamma0 = gamma0
        self.gamma1 = gamma1
        self.lipschitz = max(gamma0.lipschitz_bound, gamma1.lipschitz_bound)
        self._breaks = _union(gamma0.breakpoints, gamma1.breakpoints)
        union, mids, ends = self._breaks.tobytes(), None, []
        for path in (gamma0, gamma1):
            if path.breakpoints.tobytes() == union:  # piece k is segment k
                ends.append((path._rows, path.second_derivative_bounds))
                continue
            if mids is None:
                mids = (self._breaks[:-1] + self._breaks[1:]) / 2
            segments = np.searchsorted(path.breakpoints, mids, side="right") - 1
            ends.append((path._rows[segments], path.second_derivative_bounds[segments]))
        # each end's table row (lines first) and |z''| bound on each piece
        (self._rows0, self._second0), (self._rows1, self._second1) = ends
        self._second = np.maximum(self._second0, self._second1)

    def rows(self, ts, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        """The rows (1 - t) P0 + t P1, one per t, for P0 and P1 the end
        paths' values on one partition.  ``build_chain`` takes any proposal
        whose rows close as P0 and P1 do, with P0 at t = 0 and P1 at t = 1
        (here bit for bit up to the sign of a zero), and certifies the rows
        between, whatever they are."""
        ts = np.asarray(ts, dtype=np.float64).reshape(-1, 1)
        return (1.0 - ts) * p0 + ts * p1

    def shared_vertices(self, panels: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(xs, pieces, P0, P1): the partition of [0, 1] into ``panels(eps)``,
        the piece between breakpoints of each panel (``partition_points``'
        index), and both end paths' values on it.

        The polyline through P0 (or P1) is within 2 eps/3 of its path, and so
        the polyline through (1-t) P0 + t P1 is within 2 eps/3 of the slice
        at t.  Each end is evaluated from its own tables on the rows of its
        segments holding the pieces: every point but the last lies in its
        panel's piece, and every partition point lies in [0, 1] by
        construction, so no range check or search is needed.  The closing
        value is snapped to the first, as a closed path's values are.
        """
        xs, pieces = partition_points(self._breaks, panels)
        inner = xs[:-1]
        values = []
        for path, rows in ((self.gamma0, self._rows0), (self.gamma1, self._rows1)):
            p = np.empty(xs.size, dtype=np.complex128)
            p[:-1] = _segment_values(path._lines, path._arcs, rows[pieces], inner, False)[0]
            p[-1] = p[0]
            values.append(p)
        return xs, pieces, *values

    def panels(self, eps: float) -> np.ndarray:
        """The panels of each piece between breakpoints: ``panel_counts`` at
        ``eps`` for the larger of the two end paths' bounds there, one panel
        for an infinite ``eps``.  Their sum sizes ``shared_vertices`` before
        it is built."""
        eps = float(eps)
        if not eps > 0:
            raise InvalidEpsilon(f"eps must be a positive number, got {eps!r}")
        return panel_counts(self._breaks[1:] - self._breaks[:-1], self._second, eps)


def _union(breaks0: np.ndarray, breaks1: np.ndarray) -> np.ndarray:
    """``np.union1d`` of two ends' strictly increasing breakpoints, bit for
    bit: one end's own when the other's are the same, or are only its first
    and last (one segment, as a star's constant path has)."""
    bits0, bits1 = breaks0.tobytes(), breaks1.tobytes()
    if bits0 == bits1 or bits1 == breaks0[[0, -1]].tobytes():
        return breaks0
    if bits0 == breaks1[[0, -1]].tobytes():
        return breaks1
    return np.union1d(breaks0, breaks1)


def linear_homotopy(gamma0: PiecewisePath, gamma1: PiecewisePath) -> Homotopy:
    """Pointwise convex blend (1-t) gamma0 + t gamma1 of two closed paths on [0, 1]."""
    return Homotopy(gamma0, gamma1)


def star_null_homotopy(gamma: PiecewisePath, center: complex) -> Homotopy:
    """Contract a closed path onto a point along straight rays.

    This is the linear homotopy onto the constant path at the center.  Whether
    it stays inside a given domain is not checked here: the chain builder
    certifies its members instead.
    """
    return linear_homotopy(gamma, constant_path(center))


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
    steps = max(1, math.ceil(float(np.abs(p1 - p0).max()) / eta))
    if (steps + 1) * (columns + 1) > _CARRIER_BUDGET:
        raise ValueError(f"carrier grid of {(steps + 1) * (columns + 1)} points exceeds the budget")
    return CompactCarrier(sigma.rows(np.arange(steps + 1) / steps, p0, p1).ravel(), eta)


@dataclass(frozen=True)
class PairBound:
    """Certified bound for one consecutive pair, with its gap's enclosure.

    ``sampled`` encloses the pair's sup-distance: exact up to rounding for
    two polylines (``exact``); at a curved end path, the vertex maximum on
    the shared partition as the lower bound, plus the end path's
    interpolation bound there as the upper bound.  ``analytic`` is the bound
    the pair was checked against, and ``sampled.hi`` is below it: the larger
    of the two members' certified clearances, or ``eps`` when that is
    smaller.
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
        return (f"{len(self.entries)} consecutive bounds, each below a member's clearance "
                f"(small-disk lemma), worst ratio to the bound "
                f"{_ratio_text(exact)} exact (polyline pairs), "
                f"{_ratio_text(vertex)} vertex (curved end pairs)")


def _ratio_text(ratio: float | None) -> str:
    return "none" if ratio is None else f"{ratio:.3f}"


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


@dataclass(frozen=True, eq=False)
class Chain:
    """Run of closed piecewise paths interpolating a homotopy.

    Members are [gamma0, phi_1, ..., phi_{n-1}, gamma1] at the times
    ``partition``.  The interior members phi_k are the closed polylines
    through the rows of the (n-1, m+1) array ``rows``, at the shared
    ``breakpoints``; the rows, the breakpoints and the two end paths are
    the chain's data.  ``clearances`` holds each member's certified distance
    to the domain's complement, and the certificate one entry per
    consecutive pair, whose gap is below the larger of its two members'
    clearances.  ``epsilon`` is the cap on those bounds, or None.
    """

    gamma0: PiecewisePath
    rows: np.ndarray
    breakpoints: np.ndarray
    gamma1: PiecewisePath
    epsilon: float | None
    certificate: ChainCertificate
    partition: np.ndarray
    clearances: np.ndarray

    def __len__(self) -> int:
        return len(self.rows) + 2

    @functools.cached_property
    def members(self) -> tuple[PiecewisePath, ...]:
        """(gamma0, phi_1, ..., phi_{n-1}, gamma1), the interior members as
        ``PiecewisePath.from_vertex_rows`` views of their rows, built on the
        first call."""
        return (self.gamma0,
                *PiecewisePath.from_vertex_rows(self.rows, self.breakpoints, closed=True),
                self.gamma1)

    @property
    def margin(self) -> float:
        """The smallest member clearance."""
        return float(self.clearances.min())

    def to_dict(self) -> dict:
        """The chain's certificate block of the JSON reports; an unbounded
        margin or bound (the whole plane) is written as null."""
        return {
            "members": len(self),
            "epsilon": self.epsilon,
            "margin": _finite_or_none(self.margin),
            "certificate": [
                {"analytic": _finite_or_none(e.analytic), "exact": e.exact,
                 "sampled_lo": e.sampled.lo, "sampled_hi": e.sampled.hi}
                for e in self.certificate.entries
            ],
        }


def _coarse_grid(sigma: Homotopy, domain: DomainDescriptor) -> tuple[float, float]:
    """(M, D): the smallest exact complement distance over the time segments
    [gamma0(x), gamma1(x)] at 17 points x of [0, 1], and their largest length.

    The blend sweeps each of those segments, so M <= 0 means the homotopy
    leaves the domain.  A positive M only sizes the proposal: it is at least
    the minimum over the whole swept region, and certifies nothing.  The
    members move by at least D in all, so steps of at most M take at least
    D / M of them.
    """
    # the fixed points lie in [0, 1], so they are not checked
    p0, p1 = (path._on_segments(path._segment_indices(_COARSE_XS), _COARSE_XS)[0]
              for path in (sigma.gamma0, sigma.gamma1))
    with np.errstate(over="ignore", invalid="ignore"):
        return (float(domain.segment_complement_distances(p0, p1).min()),
                float(np.abs(p1 - p0).max()))


def _certify_containment(rows: np.ndarray, reach: np.ndarray,
                         domain: DomainDescriptor) -> np.ndarray:
    """The certified clearance of the polyline through each row of ``rows``,
    whose largest |vertex| is ``reach``: ``polyline_clearances`` at
    ``_BLEND_ROUNDING``; nonpositive certifies nothing."""
    count, columns = rows.shape
    return polyline_clearances(rows[:, :-1].ravel(), rows[:, 1:].ravel(),
                               np.arange(count) * (columns - 1), domain, _BLEND_ROUNDING, reach)


def _end_slack(path: PiecewisePath, second: np.ndarray, pieces: np.ndarray, widths: np.ndarray,
               reach: float) -> float:
    """A bound on sup |path - Q| for Q the polyline through the values of
    one of the homotopy's ends on a partition of panels ``widths``, with
    largest |value| ``reach``; 0 when Q is the path itself.  Panel j lies
    in the piece between breakpoints ``pieces[j]`` (``partition_points``'
    index), and so in the segment of the path holding that piece, whose
    |z''| bound is ``second`` at the piece: gathered, not searched.

    The partition holds every breakpoint of both ends, so Q is within
    max h^2 M2 / 8 over its panels h (the Peano kernel of linear
    interpolation, (x - a)(b - x)/2 >= 0 on a panel [a, b], holds for
    complex values too), plus the rounding allowance at its largest
    |value|; and a path of lines is Q.

    A closed path's value at 1 is its start S, but a last arc runs to its
    own end E, g = |E - S| off (``PiecewisePath._seam_gap``).  On the last
    panel the path is within h^2 M2 / 8 of the chord to E, and Q's chord to
    S is within g of that chord, so g is added.
    """
    if path._all_lines:
        return 0.0
    return (float((widths * widths * second[pieces]).max()) / 8 + _BLEND_ROUNDING * float(reach)
            + path._seam_gap)


def _check_proposal(rows: np.ndarray, ts: np.ndarray, size: int, ends=()):
    """Refuse the rows of a proposal other than the blend, one per time of
    ``ts`` on a partition of ``size`` points, unless each closes and the
    first and last are ``ends``, the end values P0 and P1 when given, under
    == (zeros of either sign agree)."""
    if rows.shape != (ts.size, size):
        raise ValueError(f"the proposal gave rows of shape {rows.shape} for {ts.size} times "
                         f"on {size} points")
    open_rows = (rows[:, -1] != rows[:, 0]).nonzero()[0]
    if open_rows.size:
        raise ValueError(f"the proposal's row at t={ts[open_rows[0]]:.6g} does not close")
    for k, name, values in zip((0, -1), ("gamma0", "gamma1"), ends):
        if not (rows[k] == values).all():
            raise ValueError(f"the proposal's row at t={ts[k]:.6g} is not {name}'s values "
                             "on the partition")


def _check_budget(members: float, vertices: float, gap: float, scale: float):
    """Refuse a chain of ``members`` rows of ``vertices`` points over the
    budgets, before it is blended."""
    if members > _MAX_SLICES:
        need = f"{members:.3g} members, over the budget of {_MAX_SLICES} time slices"
    elif members * vertices > _MAX_VERTICES:
        need = (f"{members:.3g} members of {vertices:.3g} vertices, over the budget of "
                f"{_MAX_VERTICES} vertices")
    else:
        return
    raise ContainmentNotCertified(
        f"the chain would need {need}: the homotopy moves {gap:.6g} per unit time against a "
        f"clearance of {scale:.6g}", min_complement_distance=scale)


def build_chain(sigma: Homotopy, gamma0: PiecewisePath, gamma1: PiecewisePath,
                domain: DomainDescriptor, *, eps: float | None = None) -> Chain:
    """Discretize a homotopy into a chain whose integrals are certified equal.

    The homotopy proposes the members and the chain certifies itself.  With
    M and D from ``_coarse_grid`` and r = min(M, eps) (M alone without ``eps``),
    the shared partition xs is ``Homotopy.shared_vertices(panels(r/4))``, and
    the rows of one (n+1, m+1) vertex array are ``sigma.rows``, (1 - t) P0 +
    t P1, at n uniform steps in t, n = ceil(D+ / r) for D+ = max |P1 - P0|,
    rounded up.  The interior members are the polylines through the rows;
    the first and last rows are the end paths' values on xs.  The ends are
    ``sigma``'s own objects, ``gamma0`` and ``gamma1`` (``EndpointMismatch``
    for any other), so xs holds both ends' breakpoints.  Then, all in array
    passes:

    * Clearance.  An interior member's certified clearance rho_k is the exact
      minimum complement distance over its segments, less 64 ulps of the
      larger of its largest |vertex| and ``domain.reach``, more than the few
      ulps by which the closed forms round (``_certify_containment``).  An
      end path is within its slack s (``_end_slack``) of the polyline
      through its row, and the distance to the complement is 1-Lipschitz, so
      that polyline's clearance less s is the end path's.
    * Gap.  Two polylines on one partition differ by a polyline, largest at
      a vertex, so ``_consecutive_gaps`` encloses each pair's sup-distance,
      widened by its rounding allowance; through the end path's polyline,
      an end pair's upper bound adds the end's slack.
    * Check.  Pair k passes when its gap's upper bound is below
      min(max(rho_k, rho_k+1), eps), its ``analytic`` bound.  Let j be the
      member with the larger clearance.  Every disk D(member_j(x), rho_j)
      lies in the domain, and the other member's point at x lies inside it,
      which is the small-disk lemma's hypothesis: the two members have the
      same integral of every f analytic on the domain.  Along the chain, so
      do gamma0 and gamma1, however sigma moves between the members' times.

    M only sizes the proposal: from 17 points it may overstate the swept
    region's clearance m by any factor, and so may r/4 the partition's
    fineness.  Each member is within the larger slack s of its slice (or
    end path), and the closed forms are 1-Lipschitz in the point, so a
    member with rho <= -2s has its path outside the domain, while one with
    -2s < rho <= 0 may have a partition too coarse for a path inside it.
    While the smallest rho is such and s > 0, xs is rebuilt with panels
    half as wide (for a quarter of its tolerance), keeping the times, up to
    ``_FINER_PARTITIONS`` times; once 2s < m (less rounding) no rho is
    <= 0.  Then a member with rho <= 0 refuses: the homotopy sweeps outside
    the domain, or within 2s of its boundary.  So does M <= 0, an exact
    minimum over swept segments.  A failing pair's time
    step is bisected, up to ``_MAX_DEPTH`` times (a blend across a puncture
    keeps failing where it crosses), but one whose bound is past the float
    range refuses at once (``ValueError``); the bounds of the chain returned
    are checked once, by ``Bounds.from_arrays``.  Every array is checked
    against ``_MAX_SLICES`` members and ``_MAX_VERTICES`` vertices before it
    is built, from D / r + 1 members before the first partition is; so do a
    count, D or ``domain.reach`` past the float range.  ``eps`` must be
    positive and finite when given.  A domain with no complement, and no
    eps, takes one step: the chain is its ends.

    A proposal other than the blend (a ``rows`` that overrides
    ``Homotopy.rows``) is held to its contract, each time it gives rows:
    every row closes, and the first rows start at P0 and end at P1 under ==
    (``_check_proposal``, ``ValueError`` naming the row).  The blend's rows
    keep it by construction and are not checked.
    """
    for name, path, own in (("gamma0", gamma0, sigma.gamma0), ("gamma1", gamma1, sigma.gamma1)):
        if path is not own:
            raise EndpointMismatch(f"{name} is not the homotopy's own {name}")
    cap = math.inf
    if eps is not None:
        cap = eps = float(eps)
        if not (math.isfinite(eps) and eps > 0):
            raise InvalidEpsilon(f"eps must be a positive finite number, got {eps!r}")

    upper, moves = _coarse_grid(sigma, domain)
    if not (math.isfinite(domain.reach) and math.isfinite(moves)):
        raise ContainmentNotCertified(
            f"past the float range: the domain's largest modulus is {domain.reach:.6g}, and the "
            f"homotopy moves a point by {moves:.6g} at 17 points")
    if not upper > 0:
        raise ContainmentNotCertified(
            f"the homotopy sweeps outside the domain: min complement distance {upper:.6g} "
            "on its time segments at 17 points", min_complement_distance=upper)
    scale = min(upper, cap)
    tolerance = _PARTITION_FRACTION * scale
    # in floats, which read inf past their range, before a tiny scale makes
    # the partition or the array huge
    members = max(1.0, np.ceil(moves / scale)) + 1
    panels = sigma.panels(tolerance)
    _check_budget(members, panels.sum() + 1, moves, scale)
    xs, pieces, p0, p1 = sigma.shared_vertices(panels)
    with np.errstate(over="ignore"):
        gap = float(np.abs(p1 - p0).max()) * (1 + _BLEND_ROUNDING)
    steps = max(1.0, np.ceil(gap / scale))
    _check_budget(steps + 1, xs.size, gap, scale)
    ts = np.arange(int(steps) + 1) / steps

    blend = type(sigma).rows is Homotopy.rows  # a proposal of another kind is checked
    depth = 0
    for refinement in itertools.count():
        rows = sigma.rows(ts, p0, p1)
        if not blend:
            _check_proposal(rows, ts, xs.size, (p0, p1))
        # each row's largest |vertex|, for its clearance, its gaps and an end's slack
        reach = np.abs(rows).max(axis=1)
        widths = xs[1:] - xs[:-1]
        slack = np.array([_end_slack(gamma0, sigma._second0, pieces, widths, reach[0]),
                          _end_slack(gamma1, sigma._second1, pieces, widths, reach[-1])])
        radius = _certify_containment(rows, reach, domain)
        radius[0] -= slack[0]
        radius[-1] -= slack[1]
        band = 2 * slack.max()
        finer = slack.any() and refinement < _FINER_PARTITIONS

        lowest = radius.min()
        while not (finer and -band < lowest <= 0):
            if not lowest > 0:
                k = int((~(radius > 0)).nonzero()[0][0])
                near = f" or within {band:.3g} of its boundary" if radius[k] > -band else ""
                what = ("past the float range" if math.isnan(radius[k])  # an overflow
                        else f"the homotopy sweeps outside the domain{near}")
                raise ContainmentNotCertified(
                    f"{what}: the member at t={ts[k]:.6g} has certified clearance {radius[k]:.6g}",
                    min_complement_distance=float(radius[k]))
            lo, hi = _consecutive_gaps(rows, reach)
            hi[0] += slack[0]
            hi[-1] += slack[1]
            bound = np.minimum(np.maximum(radius[:-1], radius[1:]), cap)
            failing = (~(hi < bound)).nonzero()[0]
            if not failing.size:
                # every hi is below a bound, so finite: from_arrays checks the rest once
                exact = [True] * (ts.size - 1)
                exact[0] = bool(slack[0] == 0)
                exact[-1] = exact[-1] and bool(slack[1] == 0)
                entries = tuple(map(PairBound, bound.tolist(), Bounds.from_arrays(lo, hi), exact))
                return Chain(gamma0=gamma0, rows=rows[1:-1], breakpoints=xs, gamma1=gamma1,
                             epsilon=eps, certificate=ChainCertificate(entries), partition=ts,
                             clearances=radius)
            if not np.isfinite(hi[failing]).all():  # no bisection mends it
                raise ValueError("lo and hi must be finite")
            if depth == _MAX_DEPTH:
                j = int(failing[0])
                raise ContainmentNotCertified(
                    f"pair {j} of the chain, between its members at t={ts[j]:.6g} and "
                    f"{ts[j + 1] - ts[j]:.3g} later, is up to {hi[j]:.6g} apart, not below its "
                    f"bound {bound[j]:.6g}, after {depth} bisections of its time step",
                    min_complement_distance=float(bound[j]))
            _check_budget(ts.size + failing.size, xs.size, gap, scale)
            mids = (ts[failing] + ts[failing + 1]) / 2
            new = sigma.rows(mids, p0, p1)
            if not blend:
                _check_proposal(new, mids, xs.size)
            new_reach = np.abs(new).max(axis=1)
            ts = np.insert(ts, failing + 1, mids)
            rows = np.insert(rows, failing + 1, new, axis=0)
            reach = np.insert(reach, failing + 1, new_reach)
            radius = np.insert(radius, failing + 1, _certify_containment(new, new_reach, domain))
            lowest = radius.min()
            depth += 1

        tolerance /= 4
        panels = sigma.panels(tolerance)
        _check_budget(ts.size, panels.sum() + 1, gap, scale)
        xs, pieces, p0, p1 = sigma.shared_vertices(panels)
