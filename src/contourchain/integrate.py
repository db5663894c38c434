"""Contour integration along piecewise-differentiable paths.

The integral of f along a path is the parametric integral of f(path(x)) times
the path derivative.  Each piece of a segment is handled by a nested
Gauss(7)/Kronrod(15) rule pair; a piece is accepted when the rule-pair
discrepancy fits its share of the tolerance (allocated proportionally to
derivative bound times span) or is down to rounding, and split into quarters
otherwise, each with a quarter of its share, up to a depth cap of 40 halvings
per segment.  As in QUADPACK, the discrepancy is rounding once it is at most
50 machine epsilons times the K15 integral of |integrand|: splitting further
cannot shrink it.  Those pieces still count their discrepancy in the error
estimate, and a total above tol still fails.

The first pieces are a path's segments, graded towards the integrand's
declared poles where they come close (``_first_pieces``): from the known
distance to each pole, a segment is cut at x* +- t0 r^k about the parameter
x* nearest the pole, so that G7 on each piece sees the pole at least as far
off, relative to the piece, as on the central piece.  Near a pole the loop
then finishes in one or two rounds, where from whole segments it took five
to eight, each paying numpy's fixed cost per call; a member with no segment
near a pole starts from its segments, as before.  A graded piece carries the
halvings of its segment it stands for, so the depth cap still bounds every
piece to 2**-40 of its segment.  A quarter is cut as two bisections cut it,
so every later piece is a quarter of a piece from the round before, with a
quarter of its share, bit for bit.

Every member of a chain goes through one quadrature loop, and a single path
is a chain of one member.  A chain's interior members are read from its
rows (``_Members``): their segments' fields are the rows' vertices on the
shared partition, stacked with those of the end paths made of lines, and a
row becomes a path object only where grading needs one.  A piece carries
only its bounds and its origin, the segment it was cut from; its member,
share of tol and line fields are looked up per origin.  Each round evaluates
all pieces in one batch: the straight segments of every member (every
interior member, squares, polylines, constants) from stacked segment
arrays, each curved member (at most the chain's two end paths) with one
``eval_with_derivative`` call, and the integrand with one call over all
nodes.  A member's value, error estimate and evaluation count are one
``np.bincount`` each at the end, over its pieces in the order it makes them
alone, so it keeps, bit for bit, all it has alone: all of tol, its rounding
stop, depth and piece caps, integral, error estimate and evaluation count.  When several members fail, the lowest
index is reported, as integrating them one after the other would.  A round
holds no more pieces than one member may (``_MAX_PIECES``); past that, the
highest members wait for a later batch.  The rule sums run through
``np.einsum`` on the real view of the integrand, not ``@``: numpy hands a
complex batch to multithreaded BLAS, no faster and up to twice the CPU time,
and BLAS's blocking makes one piece's sum depend on the others in its batch,
where einsum's many-column loop does not (``_rule_sums``).

Paths must keep a certified clearance of 1e-9 from every declared singularity
of the integrand (``paths.certified_clearances``), in closed form for every
path: the projection onto each line segment, and for an arc the clamp of the
angle onto the unit arc after scaling by the semi-axes; all rows of a chain
are measured in one evaluation.  A member whose rule sums are not
finite (the integrand overflows on it) fails with ``ToleranceNotReached`` in
the round that finds it, with numpy's overflow warnings silenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import InvalidEpsilon, NearSingularity, ToleranceNotReached
from .expressions import AnalyticFunction
# carrier_of_path is unused here but stays importable: perfbench/tracing.py wraps it
from .paths import PiecewisePath, carrier_of_path, certified_clearances  # noqa: F401
from .paths import _finite_points, _line_clearances, nearest_parameters

__all__ = ["IntegralResult", "ChainIntegrals", "contour_integral", "integral_along_chain"]

# 15-point Kronrod extension of 7-point Gauss (nodes ascending; the embedded
# Gauss rule sits at the odd indices).
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

_ROUNDING = 50 * np.finfo(np.float64).eps
_POLE_CLEARANCE = 1e-9
# halvings per segment; even, since each round splits a piece into quarters
# (two halvings), so the finest piece evaluated is 2**-40 of its segment
_MAX_DEPTH = 40
_MAX_PIECES = 200_000
# first pieces graded towards the declared poles (see _first_pieces): a
# member is graded when its certified clearance is below 1/_GRADE_GATE of
# its heaviest segment's weight
_GRADE_GATE = 3.0
_CENTRAL = 0.5  # kappa: the central piece covers at most kappa d of the path
_RATIO = 1.5  # r: each ladder piece is r - 1 times its distance from the foot
# no interior rows, as in the member table of a lone path
_NO_ROWS = np.empty((0, 2), dtype=np.complex128)


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class ChainIntegrals:
    """Per-member integrals over a chain plus the worst pairwise disagreement."""

    results: tuple[IntegralResult, ...]
    max_deviation: float


def contour_integral(f: AnalyticFunction, path: PiecewisePath, tol: float) -> IntegralResult:
    """Integrate f along the path with total error estimate at most tol."""
    results, failure = _integrate(f, _Members((path,)), tol)
    if failure is not None:
        raise failure[1]
    return results[0]


def integral_along_chain(f: AnalyticFunction, chain, tol: float) -> ChainIntegrals:
    """Integrate every chain member; report the max pairwise value deviation.

    All members are integrated in one batch, the interior ones read from the
    chain's rows.  A member's failure is raised unchanged with a
    ``member_index`` attribute attached; when several members fail, the
    lowest index is raised.
    """
    members = _Members((chain.gamma0,), chain.rows, chain.breakpoints, (chain.gamma1,))
    results, failure = _integrate(f, members, tol)
    if failure is not None:
        index, exc = failure
        exc.member_index = index
        raise exc
    values = np.array([r.value for r in results], dtype=np.complex128)
    return ChainIntegrals(tuple(results), _max_deviation(values))


def _max_deviation(values: np.ndarray) -> float:
    """max |a - b| over all pairs of ``values``, 256 rows of the pair matrix
    at a time, so a long chain never holds all n² differences."""
    return max(float(np.abs(values[i:i + 256, None] - values).max())
               for i in range(0, values.size, 256))


class _Members:
    """The members to integrate, in order: the paths ``head``, the closed
    polylines through the rows of ``rows`` at the shared ``breaks`` (a
    chain's interior members), and the paths ``tail``.  ``given`` lists
    (index, path) for every member given as a path.

    A row's line fields are read from the array, the same values in the
    same order as a ``PiecewisePath.from_vertex_rows`` view of it holds, and
    a row becomes such a view only where a path is needed (``path``).
    """

    def __init__(self, head: tuple, rows: np.ndarray = _NO_ROWS, breaks=None, tail=()):
        self.head, self.rows, self.breaks, self.tail = head, rows, breaks, tail
        self.count = len(head) + len(rows) + len(tail)
        self.given = [*enumerate(head), *enumerate(tail, len(head) + len(rows))]

    def __len__(self) -> int:
        return self.count

    def window(self, start: int, stop: int) -> "_Members":
        """Members ``start`` up to ``stop``."""
        if start == 0 and stop == self.count:
            return self
        h, k = len(self.head), len(self.rows)
        return _Members(self.head[start:stop], self.rows[max(0, start - h):max(0, stop - h)],
                        self.breaks, self.tail[max(0, start - h - k):max(0, stop - h - k)])

    def path(self, m: int) -> PiecewisePath:
        """Member m as a path, for a row a view of it made now."""
        h, k = len(self.head), len(self.rows)
        if h <= m < h + k:
            return PiecewisePath.from_vertex_rows(self.rows[m - h:m - h + 1], self.breaks,
                                                  closed=True)[0]
        return dict(self.given)[m]

    def lines(self):
        """(ids, breaks, fields) of the line members: their indices and
        breakpoints, in order, and their segments' (z0, z1, s0, span)
        stacked in that order, None for no line member."""
        h, k = len(self.head), len(self.rows)
        lines = [(m, path) for m, path in self.given if path._all_lines]
        ids = [m for m, _ in lines]
        breaks = [path.breakpoints for _, path in lines]
        fields = [(path._z0, path._z1, path._s0, path._span) for _, path in lines]
        if k:
            at = sum(m < h for m in ids)  # the rows' place among them
            ids[at:at] = range(h, h + k)
            breaks[at:at] = [self.breaks] * k
            fields.insert(at, (self.rows[:, :-1].ravel(), self.rows[:, 1:].ravel(),
                               np.tile(self.breaks[:-1], k), np.tile(np.diff(self.breaks), k)))
        return ids, breaks, [_joined(list(column)) for column in zip(*fields)] if ids else None

    def clearances(self, points) -> np.ndarray:
        """``paths.certified_clearances`` of every member from ``points``, the
        rows' from one evaluation over all of their segments."""
        out = certified_clearances([path for _, path in self.given], points)
        k = len(self.rows)
        if not k:
            return out
        rows, pts = self.rows, _finite_points(points)
        inner = np.full(k, math.inf) if not pts.size else _line_clearances(
            rows[:, :-1].ravel(), rows[:, 1:].ravel(), np.arange(k) * (rows.shape[1] - 1),
            rows[:, 0], pts)
        return np.insert(out, len(self.head), inner)


def _integrate(f: AnalyticFunction, members: _Members, tol: float):
    """(results, failure): the results of the members before the first one
    that fails, and that one's (index, exception), or None if none fails."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0):
        return [], (0, InvalidEpsilon(f"tol must be a positive finite number, got {tol!r}"))
    count, failure = len(members), None
    for i, path in members.given:
        if not isinstance(path, PiecewisePath):
            count, failure = i, (i, TypeError("only piecewise-differentiable paths can be integrated"))
            break
    clearances = members.window(0, count).clearances(f.singularities).tolist()
    blocked = next((i for i, c in enumerate(clearances) if not c > _POLE_CLEARANCE), None)
    if blocked is not None:
        count, failure = blocked, (blocked, NearSingularity(
            f"path not certifiably clear of declared singularities "
            f"(best certified clearance {clearances[blocked]:.3g}, required {_POLE_CLEARANCE})"))
    # the members go through _batch together; one that defers its highest
    # members leaves them to the next
    results = []
    while len(results) < count:
        batch, batch_failure = _batch(f, members.window(len(results), count), tol,
                                      clearances[len(results):count])
        if batch_failure is not None:
            return results + batch, (len(results) + batch_failure[0], batch_failure[1])
        results += batch
    return results, failure


class _Lines(NamedTuple):
    """The segments of every line member, stacked, one row per origin (the
    line members' origins come first).  ``speed`` is each segment's
    derivative (z1 - z0) / span."""

    z0: np.ndarray
    z1: np.ndarray
    s0: np.ndarray
    span: np.ndarray
    speed: np.ndarray


def _first_pieces(members: _Members, tol: float, clearances, poles):
    """The members' first pieces, the line members' first, and the
    per-origin tables that every piece cut from them reads.

    Returns (lows, highs, owner, share, depth, lines, curved), one entry per
    first piece: its bounds, its member's index (``owner``), its share of its
    member's tol (``share``), the halvings of its segment it stands for
    (``depth``, at least log2 of the segment's span over its own) and its
    segment's fields in ``lines``; ``curved`` lists the members that are not
    line paths as (index, path).  A member shares out all of tol over its
    pieces in proportion to |z'| bound times span (|z1 - z0| on a line
    segment), a segment's weight, or evenly over its segments when that is
    zero throughout.

    A member is graded when its heaviest segment weighs more than
    ``_GRADE_GATE`` times its certified clearance from f's declared poles
    (``clearances``); every other member keeps its segments as first
    pieces, bit for bit.  Each segment of a graded member is cut at
    x* +- t0 r^k, k = 0, 1, ..., about the parameter x* of its point nearest
    to its nearest pole, at distance d, with t0 = kappa d / (2 L) and L its
    |z'| bound, as far as the pieces stay within the segment
    (``_graded_points``).  The constants come from G7's error on a piece,
    which falls as rho^-14, rho the Bernstein ellipse through the pole in
    the piece's own frame (Trefethen, ATAP Thm 19.3), and each piece's
    share, which is proportional to its length:

    - the central piece x* +- t0 is at most kappa d long on the path, with
      the pole off its middle, 2 / kappa half-lengths away: kappa = 1/2
      puts it at 4, rho = 4 + sqrt(17) ~ 8.1 and rho^-14 ~ 2e-13;
    - a ladder piece from x* + t0 r^k to x* + t0 r^(k+1) has the pole, at
      worst on its line, (r + 1) / (r - 1) half-lengths from its middle:
      r = 3/2 gives 5, rho = 5 + sqrt(24) ~ 9.9 and rho^-14 ~ 1e-14;
    - the piece at a segment's end takes the rest of the segment: its own
      ladder piece and less than the next, at most 1 + r of its own, so
      the pole is still 2.6 half-lengths off, rho ~ 5.0, rho^-14 ~ 2e-10.

    So G7's error on a ladder piece is near 1e-13 of the integral of |f|
    over it, at a share of tol that shrinks with the piece; at tol 1e-9
    that accepts most first pieces for poles a few thousandths of the
    path's length away, and whatever misses, an end piece most often, is
    quartered as any other piece.  The first pieces are only proposed;
    each is accepted by the same test as every piece.  A member is graded
    from its own segments and the poles alone, so it gets the same pieces
    alone and in a chain.
    """
    line_ids, breaks, fields = members.lines()
    curved = [(m, path) for m, path in members.given if not path._all_lines]
    breaks += [path.breakpoints for _, path in curved]
    sizes = [b.size - 1 for b in breaks]
    lows = _joined([b[:-1] for b in breaks])
    highs = _joined([b[1:] for b in breaks])
    ids = line_ids + [m for m, _ in curved]
    owner = np.array(ids).repeat(sizes)
    weights = [path.derivative_bounds * (b[1:] - b[:-1])
               for (_, path), b in zip(curved, breaks[len(line_ids):])]
    lines = None
    if line_ids:
        z0, z1, s0, span = fields
        lines = _Lines(z0, z1, s0, span, (z1 - z0) / span)
        weights.insert(0, np.abs(z1 - z0))
    weights = _joined(weights)
    offsets = list(accumulate(sizes[:-1], initial=0))
    totals = np.add.reduceat(weights, offsets)
    graded = {}  # a graded member's place in ``ids``: (points, pieces per segment)
    if len(poles):
        near = np.maximum.reduceat(weights, offsets) > _GRADE_GATE * np.take(clearances, ids)
        for i in np.flatnonzero(near).tolist():
            cut = _graded_points(members.path(ids[i]), weights[offsets[i]:offsets[i] + sizes[i]], poles)
            if cut is not None:
                graded[i] = cut
    if not totals.all():
        even = totals == 0
        weights = np.where(np.repeat(even, sizes), 1.0, weights)
        totals = np.where(even, sizes, totals)
    totals = totals.repeat(sizes)
    depth = np.zeros(lows.size)
    if graded:
        # each segment's row becomes one row per piece cut from it
        counts = np.ones(lows.size, dtype=np.int64)
        for i, (_, pieces) in graded.items():
            counts[offsets[i]:offsets[i] + sizes[i]] = pieces
        points = [graded[i][0] if i in graded else b for i, b in enumerate(breaks)]
        spans = np.repeat(highs - lows, counts)
        lows, highs = _joined([b[:-1] for b in points]), _joined([b[1:] for b in points])
        part = (highs - lows) / spans  # 1.0 on a segment that is not cut
        depth = np.ceil(-np.log2(part))
        weights = np.repeat(weights, counts) * part
        owner, totals = np.repeat(owner, counts), np.repeat(totals, counts)
        if lines is not None:
            lines = _Lines(*(np.repeat(x, counts[:x.size]) for x in lines))
    share = tol * weights / totals
    return lows, highs, owner, share, depth, lines, curved


def _graded_points(path: PiecewisePath, weights: np.ndarray, poles):
    """(points, pieces) for ``path``, whose segments weigh ``weights``: its
    breakpoints and the points inside its segments at which
    ``_first_pieces`` cuts it, in order, and the number of pieces of each
    segment; None when no segment is cut.

    Each segment is graded towards the foot x* of its nearest pole.  On a
    closed path of one segment (``ellipse``) the seam joins the two ends, so
    the foot also grades from its images x* +- span: the segment is cut
    halfway between the feet, and each foot's ladder keeps to its part.  A
    path that mixes lines and arcs is not cut."""
    nearest = nearest_parameters(path, poles)
    if nearest is None:
        return None
    pole = nearest[1].argmin(axis=1)
    feet, distance = (a[np.arange(pole.size), pole].tolist() for a in nearest)
    breaks = path.breakpoints.tolist()
    seam = path.closed and len(breaks) == 2
    points, pieces = [], []
    for k, (x, d, weight) in enumerate(zip(feet, distance, weights.tolist())):
        low, high = breaks[k], breaks[k + 1]
        cuts = []
        if weight > 0:
            span = high - low
            # the smallest piece a ladder leaves is (r - 1) t0 = t0 / 2; at
            # 2**-39 of the span it stays within the depth cap, so grading
            # proposes no piece the loop could not reach
            t0 = max(_CENTRAL * d * span / (2 * weight), span * 2.0 ** (2 - _MAX_DEPTH))
            if not seam:
                cuts = _ladder(x, t0, low, high)
            else:
                left, right = x - span / 2, x + span / 2
                cuts = (_ladder(x - span, t0, low, left)
                        + _ladder(x, t0, max(low, left), min(right, high))
                        + _ladder(x + span, t0, right, high))
                if cuts:
                    cuts = sorted(cuts + [m for m in (left, right) if low < m < high])
        points += [low] + cuts
        pieces.append(len(cuts) + 1)
    if len(points) == len(pieces):  # one point per segment: none is cut
        return None
    return np.array(points + [breaks[-1]]), pieces


def _ladder(x: float, t0: float, a: float, b: float) -> list:
    """The cuts x +- t0 r^k, k = 0, 1, ..., in order, each kept when the
    ladder pieces on both sides of it lie within [a, b]: the last piece
    towards b takes the rest up to b, and a foot x below a starts its
    pieces at a."""
    return [-c for c in reversed(_ladder_side(-x, t0, -b, -a))] + _ladder_side(x, t0, a, b)


def _ladder_side(x: float, t0: float, a: float, b: float) -> list:
    """The cuts x + t0 r^k of ``_ladder``: k runs up to the last cut whose
    next one stays within b, and from the first whose previous one (x for
    k = 0) is at a or past it."""
    if not b - x >= t0 * _RATIO:
        return []
    last = int(math.log((b - x) / t0) / math.log(_RATIO)) - 1
    first = 0 if x >= a else 1 + max(0, math.ceil(math.log((a - x) / t0) / math.log(_RATIO)))
    return [x + t0 * _RATIO ** k for k in range(first, last + 1)]


def _joined(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


# an overflow shows as a non-finite rule sum, which fails its member, not as a warning
@np.errstate(over="ignore", invalid="ignore")
def _batch(f: AnalyticFunction, members: _Members, tol: float, clearances):
    """One quadrature loop over all of ``members``, whose certified clearances
    from f's declared singularities are ``clearances``: the results of the
    members below ``limit``, and the lowest failure or None.  ``limit`` is
    the lowest failing member, or the first member deferred so that no round
    holds more pieces than one member may (``_MAX_PIECES``).  A member whose
    K15 sum or discrepancy is not finite fails in the round that finds it.

    A piece is (low, high, origin), ``origin`` indexing ``_first_pieces``'
    tables.  Each round evaluates every piece and splits each one that is not
    done into the quarters two bisections make, so a piece stands for its
    origin's ``depth`` plus two halvings of its segment a round, and
    ``share`` is divided by 4."""
    count = len(members)
    lows, highs, owner, share, depth, lines, curved = _first_pieces(
        members, tol, clearances, f.singularities)
    origin = np.arange(lows.size)
    rounds = []  # each round's (origin, K15 sum, discrepancy, done) per piece
    limit, failure = count, None
    halvings = 0
    while origin.size:
        # a member fails above the piece cap, or with a piece left past the
        # depth cap
        deep = depth[origin] > _MAX_DEPTH - halvings
        if origin.size > _MAX_PIECES or deep.any():
            pieces = np.bincount(owner[origin], minlength=count)
            stuck = pieces > _MAX_PIECES
            stuck[owner[origin[deep]]] = True
            stuck = np.flatnonzero(stuck)
            if stuck.size:
                limit = int(stuck[0])
                failure = (limit, ToleranceNotReached(
                    f"quadrature did not converge to tol={tol} within {_MAX_DEPTH} "
                    "bisections per segment"))
            else:
                # each member is within the cap, all together are not: defer
                # the members past the longest prefix that fits
                limit = int(np.searchsorted(np.cumsum(pieces), _MAX_PIECES, side="right"))
                failure = None
            lows, highs, origin = _take(owner[origin] < limit, lows, highs, origin)
            continue
        mid = (lows + highs) / 2
        half = (highs - lows) / 2
        nodes = mid + half * _XGK[:, None]
        zs, ders = _path_values(nodes, origin, owner, lines, curved)
        try:
            fz = f.evaluate(zs)
        except NearSingularity as exc:
            failure = _lowest_raising_member(f, zs, owner[origin], exc)
            limit = failure[0]
            lows, highs, origin = _take(owner[origin] < limit, lows, highs, origin)
            continue
        integrand = fz * ders
        if integrand.shape != nodes.shape:
            # a constant f times a line piece's one derivative
            integrand = np.repeat(integrand[None, :], _XGK.size, axis=0)
        k15, g7, resabs = _rule_sums(integrand, half)
        err = np.abs(k15 - g7)
        # err is finite only where both rule sums are; the sum is the quick test
        if not math.isfinite(np.add.reduce(err)) and not np.isfinite(err).all():
            # the members below the lowest such one redo the round without it
            limit = int(owner[origin[~np.isfinite(err)]].min())
            failure = (limit, ToleranceNotReached("integrand is not finite on the path"))
            lows, highs, origin = _take(owner[origin] < limit, lows, highs, origin)
            continue
        done = (err <= share[origin]) | (err <= _ROUNDING * half * resabs)
        rounds.append((origin, k15, err, done))

        lows, highs, mid, origin = _take(~done, lows, highs, mid, origin)
        # the cut points of two bisections: each quarter is the piece, bounds
        # and share alike, that bisecting a half would have made
        cuts = [lows, (lows + mid) / 2, mid, (mid + highs) / 2, highs]
        lows, highs = np.concatenate(cuts[:-1]), np.concatenate(cuts[1:])
        origin = np.concatenate([origin] * 4)
        share /= 4
        halvings += 2
    if not rounds:
        return [], failure  # member 0 failed before a round finished
    origin, k15, err, done = (np.concatenate(x) for x in zip(*rounds))
    finished = owner[origin[done]]
    real, imag, errors = (np.bincount(finished, weights=x[done], minlength=count).tolist()
                          for x in (k15.real, k15.imag, err))
    pieces = np.bincount(owner[origin], minlength=count).tolist()
    # every member below the limit has finished; the first whose
    # rounding-stopped total exceeds tol fails
    over = next((m for m in range(limit) if errors[m] > tol), None)
    if over is not None:
        limit = over
        failure = (limit, ToleranceNotReached(
            f"quadrature error estimate {errors[limit]:.3g} is above tol={tol} "
            "after the rule-pair discrepancy reached rounding"))
    results = [IntegralResult(complex(real[m], imag[m]), errors[m], _XGK.size * pieces[m])
               for m in range(limit)]
    return results, failure


def _rule_sums(integrand: np.ndarray, half: np.ndarray):
    """K15, G7 and the K15 sum of |integrand| over each column of ``integrand``.

    Every sum takes einsum's many-column loop, so a piece's sums are the same
    bits alone and in a batch: on a single column einsum takes numpy's dot
    path, which rounds differently, so a lone piece is summed as two copies.
    """
    width = integrand.shape[1]
    if width == 1:
        integrand = np.repeat(integrand, 2, axis=1)
    flat = integrand.view(np.float64)
    k15 = np.einsum("j,ji->i", _WGK, flat).view(np.complex128)[:width]
    g7 = np.einsum("j,ji->i", _WG, flat[1::2]).view(np.complex128)[:width]
    resabs = np.einsum("j,ji->i", _WGK, np.abs(integrand))[:width]
    return half * k15, half * g7, resabs


def _take(mask: np.ndarray, *arrays):
    """Each array's entries at ``mask``."""
    return [a[mask] for a in arrays]


def _path_values(nodes: np.ndarray, origin, owner, lines: _Lines | None, curved):
    """Path values and derivatives at ``nodes``, one column per piece.

    Line pieces read their origin's fields from the stacked arrays, as
    ``PiecewisePath.eval_with_derivative`` does for one path, and get one
    derivative per piece; each curved member evaluates its own columns in
    one call (its origins lie past the line rows; they read the last row
    and leave it unused).
    """
    if lines is None and len(curved) == 1:
        vals, ders = curved[0][1].eval_with_derivative(nodes.ravel())
        return vals.reshape(nodes.shape), ders.reshape(nodes.shape)
    if lines is None:
        zs = np.empty(nodes.shape, dtype=np.complex128)
        ders = np.empty(nodes.shape, dtype=np.complex128)
    else:
        z0, z1, s0, span, ders = (field.take(origin, mode="clip") for field in lines)
        u = (nodes - s0) / span
        zs = z0 * (1.0 - u) + z1 * u
        if curved:
            ders = np.repeat(ders[None, :], nodes.shape[0], axis=0)
    for m, path in curved:
        cols = owner[origin] == m
        shape = (nodes.shape[0], -1)
        vals, d = path.eval_with_derivative(nodes[:, cols].ravel())
        zs[:, cols], ders[:, cols] = vals.reshape(shape), d.reshape(shape)
    return zs, ders


def _lowest_raising_member(f: AnalyticFunction, zs: np.ndarray, member, exc: NearSingularity):
    """(index, exception) of the lowest member whose nodes make f raise.
    f is evaluated pointwise, so some member's nodes raise on their own;
    should none, the batch's exception is raised as it is."""
    for m in np.unique(member):
        try:
            f.evaluate(zs[:, member == m])
        except NearSingularity as member_exc:
            return int(m), member_exc
    raise exc
