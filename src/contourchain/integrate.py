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
is a chain of one member.  The members' segments are the rows of two stacked
tables, lines and arcs (``_Members.tables``); a path that mixes the two
kinds has rows in both, lines first, and is graded as any other.  A piece
carries only its bounds and its origin, the first piece it was cut from,
whose row, member and share of tol are looked up per origin.  Each round
evaluates all pieces in one batch, by one gather and one closed form per
table (``paths._segment_values``, as ``PiecewisePath.values`` does), and the
integrand with one call over all nodes.  A member's value, error estimate
and evaluation count are one ``np.bincount`` each at the end, over its
pieces in the order it makes them alone, so it keeps, bit for bit, all it
has alone: all of tol, its rounding stop, depth and piece caps, integral,
error estimate and evaluation count.  When several members fail, the lowest
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
angle onto the unit arc after scaling by the semi-axes, each kind measured
in one pass over its table (``_Members.clearances``).  A member whose rule
sums are not finite (the integrand overflows on it) fails with
``ToleranceNotReached`` in the round that finds it, with numpy's overflow
warnings silenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEpsilon, NearSingularity, ToleranceNotReached
from .expressions import AnalyticFunction
# carrier_of_path is unused here but stays importable: perfbench/tracing.py wraps it
from .paths import PiecewisePath, carrier_of_path  # noqa: F401
from .paths import _Members, _segment_values

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


def _first_pieces(members: _Members, tol: float, clearances, poles):
    """The members' first pieces, and the per-origin tables that every
    piece cut from them reads.

    Returns (lows, highs, row, owner, share, depth), one entry per first
    piece: its bounds, its row of ``_Members.tables`` (lines first), its
    member, its share of its member's tol and the halvings of its segment
    it stands for (at least log2 of the segment's span over its own).  A
    member shares out all of tol over its pieces in proportion to |z'|
    bound times span, a segment's weight, or evenly over its segments when
    that is zero throughout.

    A member is graded when its heaviest segment weighs more than
    ``_GRADE_GATE`` times its certified clearance from f's declared poles
    (``clearances``); every other member keeps its segments as first
    pieces, bit for bit.  Each segment of a graded member is cut at
    x* +- t0 r^k, k = 0, 1, ..., about the parameter x* of its point nearest
    to its nearest pole, at distance d, with t0 = kappa d / (2 L) and L its
    |z'| bound, as far as the pieces stay within the segment (``_cuts``).
    The constants come from G7's error on a piece,
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
    lines, arcs, (line_starts, line_ids, line_widths), (arc_starts, arc_ids, arc_widths) = \
        members.tables
    count, n = len(members), lines.s0.size

    # lines first; a member's rows are a run in each table it has rows in
    kinds = [table for table in (lines, arcs) if table.s0.size]

    def joined(columns):
        columns = list(columns)
        return columns[0] if len(columns) == 1 else np.concatenate(columns)

    lows, highs = joined(t.s0 for t in kinds), joined(t.s1 for t in kinds)
    weights = joined(t.weights() for t in kinds)
    starts = np.array(line_starts + [n + start for start in arc_starts], dtype=np.intp)
    runs = np.array(line_ids + arc_ids, dtype=np.intp)
    owner = runs.repeat(line_widths + arc_widths)  # each row's member
    # each run summed by reduceat, as the member alone sums it
    totals = np.bincount(runs, weights=np.add.reduceat(weights, starts), minlength=count)
    sizes = np.bincount(owner, minlength=count)
    graded = {}  # a graded row: its cuts
    if len(poles):
        heavy = np.maximum.reduceat(weights, starts) > _GRADE_GATE * np.take(clearances, runs)
        near = np.bincount(runs, weights=heavy, minlength=count)[owner] > 0
        given, pts = dict(members.given), np.asarray(poles, dtype=np.complex128)
        for table, first in ((lines, 0), (arcs, n)):
            mine = np.flatnonzero(near[first:first + table.s0.size])
            if not mine.size:
                continue
            if mine.size < table.s0.size:  # the near members' rows
                table = type(table)(*(column[mine] for column in table))
            x, d = table.nearest_parameters(pts)
            pole = (np.arange(mine.size), d.argmin(axis=1))
            mine += first
            for r, m, low, high, weight, foot, distance in zip(
                    mine.tolist(), owner[mine].tolist(), table.s0.tolist(), table.s1.tolist(),
                    weights[mine].tolist(), x[pole].tolist(), d[pole].tolist()):
                # a closed path's one segment has a seam; interior rows are closed
                seam = sizes[m] == 1 and (m not in given or given[m].closed)
                cuts = _cuts(low, high, foot, distance, weight, seam)
                if cuts:
                    graded[r] = cuts
    if not totals.all():
        even = totals == 0
        weights = np.where(even[owner], 1.0, weights)
        totals = np.where(even, sizes, totals)
    row = np.arange(lows.size)
    depth = np.zeros(lows.size)
    if graded:
        # each graded row becomes one row per piece cut from it: its pieces
        # after the first start at its cuts, the rows in order
        counts = np.ones(lows.size, dtype=np.int64)
        counts[list(graded)] = [len(cuts) + 1 for cuts in graded.values()]
        row = np.repeat(row, counts)
        spans = (highs - lows)[row]
        lows, highs, owner = lows[row], highs[row], owner[row]
        later = np.flatnonzero(row[1:] == row[:-1])  # the piece before each cut
        cuts = np.array([x for row_cuts in graded.values() for x in row_cuts])
        lows[later + 1], highs[later] = cuts, cuts
        part = (highs - lows) / spans  # 1.0 on a segment that is not cut
        depth = np.ceil(-np.log2(part))
        weights = weights[row] * part
    share = tol * weights / totals[owner]
    return lows, highs, row, owner, share, depth


def _cuts(low: float, high: float, x: float, d: float, weight: float, seam: bool) -> list:
    """The points inside the segment [low, high], of weight ``weight``, at
    which ``_first_pieces`` cuts it, in order: graded towards the foot x of
    its nearest pole, at distance d.

    On a closed path of one segment (``ellipse``, ``seam``) the seam joins
    the two ends, so the foot also grades from its images x +- span: the
    segment is cut halfway between the feet, and each foot's ladder keeps
    to its part."""
    if not weight > 0:
        return []
    span = high - low
    # the smallest piece a ladder leaves is (r - 1) t0 = t0 / 2; at 2**-39
    # of the span it stays within the depth cap, so grading proposes no
    # piece the loop could not reach
    t0 = max(_CENTRAL * d * span / (2 * weight), span * 2.0 ** (2 - _MAX_DEPTH))
    if not seam:
        return _ladder(x, t0, low, high)
    left, right = x - span / 2, x + span / 2
    cuts = (_ladder(x - span, t0, low, left)
            + _ladder(x, t0, max(low, left), min(right, high))
            + _ladder(x + span, t0, right, high))
    if cuts:
        cuts = sorted(cuts + [m for m in (left, right) if low < m < high])
    return cuts


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
    tables.  Each round evaluates every piece and splits each one that is
    not done into the quarters two bisections make, so a piece stands for
    its origin's ``depth`` plus two halvings of its segment a round, and
    ``share`` is divided by 4."""
    count = len(members)
    lows, highs, row, owner, share, depth = _first_pieces(members, tol, clearances,
                                                          f.singularities)
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
        zs, ders = _path_values(nodes, row[origin], members)
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


def _path_values(nodes: np.ndarray, rows, members: _Members):
    """Path values and derivatives at ``nodes``, one column per piece on its
    row of ``rows`` in the members' tables (``paths._segment_values``); a
    node at 1 on a row of ``_Members.closing`` takes its member's start."""
    zs, ders = _segment_values(*members.tables[:2], rows, nodes)
    for col in np.flatnonzero(nodes[-1] == 1.0).tolist():  # a piece's last node is its largest
        if (row := int(rows[col])) in members.closing:
            zs[nodes[:, col] == 1.0, col] = members.closing[row]
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
