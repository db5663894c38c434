"""Contour integration along piecewise-differentiable paths.

The integral of f along a path is the parametric integral of f(path(x)) times
the path derivative.  Each segment is handled by a nested Gauss(7)/Kronrod(15)
rule pair; a subinterval is accepted when the rule-pair discrepancy fits its
share of the tolerance (allocated proportionally to derivative bound times
span) or is down to rounding, and split into quarters otherwise, each with a
quarter of its share, up to a depth cap of 40 halvings per segment.  As in
QUADPACK, the discrepancy is rounding once it is at most 50 machine epsilons
times the K15 integral of |integrand|: splitting further cannot shrink it.
Those pieces still count their discrepancy in the error estimate, and a total
above tol still fails.

A quarter is cut as two bisections cut it, so every piece evaluated is one
that a bisection loop would evaluate, with the same bounds, nodes and share,
bit for bit; only a half that bisection would accept is taken as its two
quarters instead.  Near a pole a round holds a few dozen pieces, and its cost
is numpy's fixed cost per call, not arithmetic: quarters reach the depth near
the pole in half the rounds, for a few percent more integrand evaluations.

Every member of a chain goes through one quadrature loop; ``contour_integral``
is its one-member case.  Each pending subinterval carries the index of its
member, and each round evaluates all of them in one batch: the straight
segments of every member (every interior member, squares, polylines,
constants) from stacked segment arrays indexed by piece, each curved member
(at most the chain's two end paths) with one ``eval_with_derivative`` call,
and the integrand with one call over all nodes.  A member keeps everything it
has alone: all of tol, its rounding stop, depth and piece caps, error estimate
and evaluation count.  When several members fail, the lowest index is
reported, as integrating them one after the other would.  A round holds no
more pieces than one member may (``_MAX_PIECES``); past that, the highest
members wait for a later batch.  The rule sums run through ``np.einsum`` on
the real view of the integrand, not ``@``: numpy hands a complex batch to
multithreaded BLAS, no faster and up to twice the CPU time, and BLAS's
blocking makes one piece's sum depend on the others in its batch, where
einsum's many-column loop does not (``_rule_sums``).

Paths must keep a certified clearance of 1e-9 from every declared singularity
of the integrand (``paths.certified_clearances``).  For lines and arcs the
distance is in closed form, the projection onto each segment or the clamp of
the angle onto each arc, and all line members of a chain are measured in one
evaluation; any other path refines an eta-net until the bound is conclusive or
its sampling budget is spent.
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

    @property
    def values(self) -> list[complex]:
        return [r.value for r in self.results]


def contour_integral(f: AnalyticFunction, path: PiecewisePath, tol: float) -> IntegralResult:
    """Integrate f along the path with total error estimate at most tol."""
    results, failure = _integrate(f, [path], tol)
    if failure is not None:
        raise failure[1]
    return results[0]


def integral_along_chain(f: AnalyticFunction, chain, tol: float) -> ChainIntegrals:
    """Integrate every chain member; report the max pairwise value deviation.

    All members are integrated in one batch.  A member's failure is raised
    unchanged with a ``member_index`` attribute attached; when several
    members fail, the lowest index is raised.
    """
    results, failure = _integrate(f, chain.members, tol)
    if failure is not None:
        index, exc = failure
        exc.member_index = index
        raise exc
    values = np.array([r.value for r in results], dtype=np.complex128)
    deviation = float(np.abs(values[:, None] - values[None, :]).max())
    return ChainIntegrals(tuple(results), deviation)


def _integrate(f: AnalyticFunction, paths, tol: float):
    """(results, failure): the results of the members before the first one
    that fails, and that one's (index, exception), or None if none fails."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0):
        return [], (0, InvalidEpsilon(f"tol must be a positive finite number, got {tol!r}"))
    count, failure = len(paths), None
    for i, path in enumerate(paths):
        if not isinstance(path, PiecewisePath):
            count, failure = i, (i, TypeError("only piecewise-differentiable paths can be integrated"))
            break
    clearances = certified_clearances(paths[:count], f.singularities, _POLE_CLEARANCE).tolist()
    blocked = next((i for i, c in enumerate(clearances) if c <= _POLE_CLEARANCE), None)
    if blocked is not None:
        count, failure = blocked, (blocked, NearSingularity(
            f"path not certifiably clear of declared singularities "
            f"(best certified clearance {clearances[blocked]:.3g}, required {_POLE_CLEARANCE})"))
    # the members go through _batch together; one that defers its highest
    # members leaves them to the next
    results = []
    while len(results) < count:
        batch, batch_failure = _batch(f, paths[len(results):count], tol)
        if batch_failure is not None:
            return results + batch, (len(results) + batch_failure[0], batch_failure[1])
        results += batch
    return results, failure


class _Lines(NamedTuple):
    """The segments of every line member, stacked.  ``speed`` is each
    segment's derivative (z1 - z0) / span."""

    z0: np.ndarray
    z1: np.ndarray
    s0: np.ndarray
    span: np.ndarray
    speed: np.ndarray


def _first_pieces(paths, tol: float):
    """The members' segments as pieces, the line members' first.

    Returns (lows, highs, allocs, member, seg, lines, curved): each piece's
    bounds, its share of its member's tol, its member's index (``member`` is
    None for a single path, which needs no per-member bookkeeping) and its
    segment in ``lines`` (``seg``; 0 on curved members, whose values are
    taken from their own paths); ``curved`` lists the members that are not
    line paths as (index, path).  A member shares out all of tol over its
    segments in proportion to |z'| bound times span (|z1 - z0| on a line
    segment), or evenly when that is zero throughout.
    """
    line_ids = [m for m, path in enumerate(paths) if path._all_lines]
    curved = [(m, path) for m, path in enumerate(paths) if not path._all_lines]
    ordered = [paths[m] for m in line_ids] + [path for _, path in curved]
    sizes = [path.num_segments for path in ordered]
    breaks = [path.breakpoints for path in ordered]
    lows = _joined([b[:-1] for b in breaks])
    highs = _joined([b[1:] for b in breaks])
    member = None if len(paths) == 1 else np.repeat(line_ids + [m for m, _ in curved], sizes)
    weights = [path.derivative_bounds * (b[1:] - b[:-1])
               for (_, path), b in zip(curved, breaks[len(line_ids):])]
    lines = seg = None
    if line_ids:
        z0, z1, s0, span = (_joined([getattr(paths[m], name) for m in line_ids])
                            for name in ("_z0", "_z1", "_s0", "_span"))
        lines = _Lines(z0, z1, s0, span, (z1 - z0) / span)
        weights.insert(0, np.abs(z1 - z0))
        seg = np.arange(lows.size)
        seg[z0.size:] = 0
    weights = _joined(weights)
    totals = np.add.reduceat(weights, list(accumulate(sizes[:-1], initial=0)))
    if not totals.all():
        even = totals == 0
        weights = np.where(np.repeat(even, sizes), 1.0, weights)
        totals = np.where(even, sizes, totals)
    allocs = tol * weights / (totals if member is None else np.repeat(totals, sizes))
    return lows, highs, allocs, member, seg, lines, curved


def _joined(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _batch(f: AnalyticFunction, paths, tol: float):
    """One quadrature loop over all of ``paths``, which are clear of f's
    declared singularities: the results of the members below ``limit``, and
    the lowest failure or None.  ``limit`` is the lowest failing member, or
    the first member deferred so that no round holds more pieces than one
    member may (``_MAX_PIECES``).

    Each round evaluates every pending piece and splits each one that is not
    done into the quarters two bisections make, so ``depth`` counts
    halvings, two per round."""
    count = len(paths)
    lows, highs, allocs, member, seg, lines, curved = _first_pieces(paths, tol)
    if member is None:
        values, errors, evaluated = 0j, 0.0, 0
    else:
        values, errors = np.zeros(count, dtype=np.complex128), np.zeros(count)
        evaluated = np.zeros(count, dtype=np.int64)
    limit, failure = count, None
    depth = 0
    while lows.size:
        pieces = lows.size if member is None else np.bincount(member, minlength=count)
        # a member fails above the piece cap, or with pieces left after the
        # depth cap
        if depth > _MAX_DEPTH or lows.size > _MAX_PIECES:
            stuck = np.flatnonzero(np.asarray(pieces) > (0 if depth > _MAX_DEPTH else _MAX_PIECES))
            if stuck.size:
                limit = int(stuck[0])
                failure = (limit, ToleranceNotReached(
                    f"quadrature did not converge to tol={tol} within {_MAX_DEPTH} "
                    "bisections per segment"))
                if member is None:
                    break
            else:
                # each member is within the cap, all together are not: defer
                # the members past the longest prefix that fits
                limit = int(np.searchsorted(np.cumsum(pieces), _MAX_PIECES, side="right"))
                failure = None
            lows, highs, allocs, member, seg = _take(member < limit, lows, highs, allocs,
                                                     member, seg)
            continue
        mid = (lows + highs) / 2
        half = (highs - lows) / 2
        nodes = mid + half * _XGK[:, None]
        zs, ders = _path_values(nodes, seg, member, lines, curved)
        try:
            fz = f.evaluate(zs)
        except NearSingularity as exc:
            failure = _lowest_raising_member(f, zs, member, exc)
            limit = failure[0]
            if member is None:
                break
            lows, highs, allocs, member, seg = _take(member < limit, lows, highs, allocs, member, seg)
            continue
        evaluated += pieces
        integrand = fz * ders
        if integrand.shape != nodes.shape:
            # a constant f times a line piece's one derivative
            integrand = np.repeat(integrand[None, :], _XGK.size, axis=0)
        k15, g7, resabs = _rule_sums(integrand, half)
        err = np.abs(k15 - g7)
        done = (err <= allocs) | (err <= _ROUNDING * half * resabs)
        values += _member_sums(k15, done, member, count)
        errors += _member_sums(err, done, member, count)

        lows, highs, mid, allocs, member, seg = _take(~done, lows, highs, mid, allocs, member, seg)
        # the cut points of two bisections: each quarter is the piece, bounds
        # and share alike, that bisecting a half would have made
        cuts = [lows, (lows + mid) / 2, mid, (mid + highs) / 2, highs]
        lows, highs = np.concatenate(cuts[:-1]), np.concatenate(cuts[1:])
        allocs = np.concatenate([allocs / 4] * 4)
        if member is not None:
            member = np.concatenate([member] * 4)
        if seg is not None:
            seg = np.concatenate([seg] * 4)
        depth += 2
    if member is None:
        values, errors, evaluated = [values], [errors], [evaluated]
    # every member below the limit has finished; the first whose
    # rounding-stopped total exceeds tol fails
    over = next((m for m in range(limit) if errors[m] > tol), None)
    if over is not None:
        limit = over
        failure = (limit, ToleranceNotReached(
            f"quadrature error estimate {errors[limit]:.3g} is above tol={tol} "
            "after the rule-pair discrepancy reached rounding"))
    results = [IntegralResult(complex(values[m]), float(errors[m]), _XGK.size * int(evaluated[m]))
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
    """Each array's entries at ``mask``; None stays None."""
    return [None if a is None else a[mask] for a in arrays]


def _path_values(nodes: np.ndarray, seg, member, lines: _Lines | None, curved):
    """Path values and derivatives at ``nodes``, one column per piece.

    Line pieces read their segment's fields from the stacked arrays, as
    ``PiecewisePath.eval_with_derivative`` does for one path, and get one
    derivative per piece; each curved member evaluates its own columns in
    one call.
    """
    if lines is None and len(curved) == 1:
        vals, ders = curved[0][1].eval_with_derivative(nodes.ravel())
        return vals.reshape(nodes.shape), ders.reshape(nodes.shape)
    if lines is None:
        zs = np.empty(nodes.shape, dtype=np.complex128)
        ders = np.empty(nodes.shape, dtype=np.complex128)
    else:
        z0, z1, s0, span, ders = (field[seg] for field in lines)
        u = (nodes - s0) / span
        zs = z0 * (1.0 - u) + z1 * u
        if curved:
            ders = np.repeat(ders[None, :], nodes.shape[0], axis=0)
    for m, path in curved:
        cols = member == m
        shape = (nodes.shape[0], -1)
        vals, d = path.eval_with_derivative(nodes[:, cols].ravel())
        zs[:, cols], ders[:, cols] = vals.reshape(shape), d.reshape(shape)
    return zs, ders


def _lowest_raising_member(f: AnalyticFunction, zs: np.ndarray, member, exc: NearSingularity):
    """(index, exception) of the lowest member whose nodes make f raise.
    f is evaluated pointwise, so some member's nodes raise on their own;
    should none, the batch's exception is raised as it is."""
    if member is None:
        return 0, exc
    for m in np.unique(member):
        try:
            f.evaluate(zs[:, member == m])
        except NearSingularity as member_exc:
            return int(m), member_exc
    raise exc


def _member_sums(x: np.ndarray, mask: np.ndarray, member, count: int):
    """The sum of ``x`` over each member's entries in ``mask``."""
    if member is None:
        return x[mask].sum()
    if np.iscomplexobj(x):
        return (_member_sums(x.real, mask, member, count)
                + 1j * _member_sums(x.imag, mask, member, count))
    return np.bincount(member[mask], weights=x[mask], minlength=count)
