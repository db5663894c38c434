"""Contour integration along piecewise-differentiable paths.

The integral of f along a path is the parametric integral of f(path(x)) times
the path derivative.  Each segment is handled by a nested Gauss(7)/Kronrod(15)
rule pair; a subinterval is accepted when the rule-pair discrepancy fits its
share of the tolerance (allocated proportionally to derivative bound times
span) or is down to rounding, and bisected otherwise, up to a depth cap.  As
in QUADPACK, the discrepancy is rounding once it is at most 50 machine
epsilons times the K15 integral of |integrand|: bisecting further cannot
shrink it.  Those pieces still count their discrepancy in the error estimate,
and a total above tol still fails.  All pending subintervals are
evaluated in one vectorized batch per round, so chains of many polylines stay
fast.

Paths must keep a certified clearance of 1e-9 from every declared singularity
of the integrand (``paths.certified_clearance``).  For lines and arcs the
distance is in closed form, the projection onto each segment or the clamp of
the angle onto each arc; any other path refines an eta-net until the bound is
conclusive or its sampling budget is spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEpsilon, NearSingularity, ToleranceNotReached
from .expressions import AnalyticFunction
# carrier_of_path is unused here but stays importable: perfbench/tracing.py wraps it
from .paths import PiecewisePath, carrier_of_path, certified_clearance  # noqa: F401

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
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidEpsilon(f"tol must be a positive finite number, got {tol!r}")
    if not isinstance(path, PiecewisePath):
        raise TypeError("only piecewise-differentiable paths can be integrated")
    clearance = certified_clearance(path, f.singularities, _POLE_CLEARANCE)
    if clearance <= _POLE_CLEARANCE:
        raise NearSingularity(
            f"path not certifiably clear of declared singularities "
            f"(best certified clearance {clearance:.3g}, required {_POLE_CLEARANCE})")

    lows, highs, weights = path.quadrature_pieces()
    total_w = float(weights.sum())
    if total_w > 0:
        allocs = tol * weights / total_w
    else:
        allocs = np.full(weights.size, tol / weights.size)
    lows, highs = lows.copy(), highs.copy()

    value = 0.0 + 0.0j
    err_total = 0.0
    evaluations = 0
    for _ in range(_MAX_DEPTH + 1):
        mid = (lows + highs) / 2
        half = (highs - lows) / 2
        nodes = mid[:, None] + half[:, None] * _XGK[None, :]
        vals, ders = path.eval_with_derivative(nodes.ravel())
        integrand = (np.asarray(f.evaluate(vals)) * ders).reshape(nodes.shape)
        k15 = half * (integrand @ _WGK)
        g7 = half * (integrand[:, 1::2] @ _WG)
        evaluations += nodes.size
        err = np.abs(k15 - g7)
        done = (err <= allocs) | (err <= _ROUNDING * half * (np.abs(integrand) @ _WGK))
        value += complex(k15[done].sum())
        err_total += float(err[done].sum())
        if done.all():
            if err_total > tol:
                raise ToleranceNotReached(
                    f"quadrature error estimate {err_total:.3g} is above tol={tol} "
                    "after the rule-pair discrepancy reached rounding")
            return IntegralResult(value, err_total, evaluations)
        lo_r, hi_r, mid_r = lows[~done], highs[~done], mid[~done]
        half_alloc = allocs[~done] / 2
        if 2 * lo_r.size > _MAX_PIECES:
            break
        lows = np.concatenate([lo_r, mid_r])
        highs = np.concatenate([mid_r, hi_r])
        allocs = np.concatenate([half_alloc, half_alloc])
    raise ToleranceNotReached(
        f"quadrature did not converge to tol={tol} within {_MAX_DEPTH} bisections per segment")


def integral_along_chain(f: AnalyticFunction, chain, tol: float) -> ChainIntegrals:
    """Integrate every chain member; report the max pairwise value deviation.

    Member failures are re-raised unchanged with a ``member_index`` attribute
    attached, so callers can tell which member broke.
    """
    results = []
    for i, member in enumerate(chain.members):
        try:
            results.append(contour_integral(f, member, tol))
        except (NearSingularity, ToleranceNotReached, InvalidEpsilon) as exc:
            exc.member_index = i
            raise
    values = np.array([r.value for r in results], dtype=np.complex128)
    deviation = float(np.abs(values[:, None] - values[None, :]).max())
    return ChainIntegrals(tuple(results), deviation)
