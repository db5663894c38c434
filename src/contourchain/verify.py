"""End-to-end verification: homotopic paths yield equal contour integrals.

``verify_homotopy_invariance`` serves every homotopy kind: it builds the
certified chain, integrates the given function along every member, and
passes only when the worst pairwise disagreement stays within ten times the
per-member quadrature tolerance.  Each member carries at most tol of
quadrature error, and the factor absorbs accumulation without masking a
real discrepancy, which would be orders of magnitude larger.  A chain that
ends at a point (a star homotopy, or any blend onto a constant path) is a
null-homotopy, and its report also carries |integral over the input path|.
The verifier refuses outright, instead of warning, when the theorem's
hypotheses are not established: when a declared singularity lies inside
the domain, so that f is not analytic there, and when the chain's pairs
cannot be certified by the small-disk lemma (``build_chain``).

``winding_number`` is the theorem's simplest case, f = 1/(z - a) on the
plane less a, and needs no quadrature: the path is homotopic there to a
certified polyline, whose winding number is a count of integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import _MAX_PANELS, panel_counts, polygonal_approximation
from .errors import NearSingularity
from .expressions import AnalyticFunction
from .geometry import DomainDescriptor, require_finite_complex
from .homotopy import Chain, Homotopy, build_chain
from .integrate import IntegralResult, integral_along_chain
from .paths import PiecewisePath, certified_clearance
# unused here, but perfbench/tracing.py wraps these names
from .integrate import contour_integral  # noqa: F401
from .paths import carrier_of_path  # noqa: F401

__all__ = [
    "VerificationReport",
    "verify_homotopy_invariance",
    "winding_number",
]

_PASS_FACTOR = 10.0
# winding_number's rounding allowance, relative to its scale S (see its proof)
_WINDING_ROUNDING = 128 * np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one verification run, printable and JSON-serializable."""

    kind: str
    passed: bool
    tol: float
    threshold: float
    max_deviation: float
    chain: Chain
    integrals: tuple[IntegralResult, ...]
    function_text: str
    null_integral_abs: float | None = None

    @property
    def members(self) -> int:
        return len(self.chain)

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "kind": self.kind,
            "function": self.function_text,
            "tol": self.tol,
            "threshold": self.threshold,
            "deviation": self.max_deviation,
            "null_integral_abs": self.null_integral_abs,
            "integrals": [
                {"value_re": r.value.real, "value_im": r.value.imag,
                 "error_estimate": r.error_estimate, "evaluations": r.evaluations}
                for r in self.integrals
            ],
            **self.chain.to_dict(),
        }

    def format_text(self) -> str:
        first, last = self.integrals[0].value, self.integrals[-1].value
        lines = [
            f"{self.kind} verification of f = {self.function_text}",
            f"  chain members: {self.members}   smallest member clearance (margin): "
            f"{self.chain.margin:.6g}"
            + ("" if self.chain.epsilon is None else f"   eps cap: {self.chain.epsilon:.6g}"),
            f"  endpoint integrals: {first:.12g}  ->  {last:.12g}",
            f"  max pairwise deviation: {self.max_deviation:.6g}   threshold: {self.threshold:.6g}",
            f"  certificate: {self.chain.certificate.summary_text()}",
        ]
        if self.null_integral_abs is not None:
            lines.append(f"  |integral over the input path|: {self.null_integral_abs:.6g}")
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_homotopy_invariance(f: AnalyticFunction, gamma0: PiecewisePath,
                               gamma1: PiecewisePath, sigma: Homotopy,
                               domain: DomainDescriptor, tol: float, *,
                               eps: float | None = None) -> VerificationReport:
    """Build the chain for sigma and check all member integrals agree.

    ``gamma0`` and ``gamma1`` are sigma's own ends, as ``build_chain`` needs
    (``EndpointMismatch`` otherwise).

    A declared singularity inside the domain refuses (``NearSingularity``)
    before the chain is built: f is then not analytic on the domain, and the
    theorem says nothing.  ``eps``, when given, caps every pair bound of the
    chain as in ``build_chain``.  A chain whose members leave the domain, or
    whose pairs cannot be certified, refuses with ContainmentNotCertified.

    When gamma1 has Lipschitz bound 0 it is a point, and the report is a
    null-homotopy carrying N = |I_0|, the integral over gamma0.  The verdict
    needs no separate test of N: z' = 0 along gamma1, so its integral I_n is
    exactly 0, and the deviation, a maximum over all pairs of members, is at
    least |I_0 - I_n| = N.  So N is within the threshold whenever the
    deviation is.  A non-finite f at the point makes the integrand f z' not
    finite there, and the run raises ``ToleranceNotReached`` for the lowest
    member that has one, as for any member.
    """
    for p in f.singularities:
        distance = domain.complement_distance(p)
        if distance > 0:
            raise NearSingularity(
                f"declared singularity {p} lies inside the domain (complement distance "
                f"{distance:.6g}), where f must be analytic")
    chain = build_chain(sigma, gamma0, gamma1, domain, eps=eps)
    integrals = integral_along_chain(f, chain, tol)
    threshold = _PASS_FACTOR * tol
    null = gamma1.lipschitz_bound == 0
    return VerificationReport(
        kind="null-homotopy" if null else "homotopy-invariance",
        passed=integrals.max_deviation <= threshold, tol=tol, threshold=threshold,
        max_deviation=integrals.max_deviation, chain=chain,
        integrals=integrals.results, function_text=f.to_text(),
        null_integral_abs=abs(integrals.results[0].value) if null else None)


def winding_number(gamma: PiecewisePath, a: complex, tol: float | None = None) -> int:
    """Signed turn count of the closed path about ``a``, exact; ``tol`` is ignored.

    Proof.  With c = ``certified_clearance(gamma, [a])``, Q =
    ``polygonal_approximation(gamma, c/2)`` has vertices v_0, ..., v_N = v_0
    and interpolates gamma within c/3; S = max(|a|, max |v_k|) and u =
    eps/2.  The vertices round by less than 32u S (``_POLYLINE_ROUNDING``),
    so |gamma - Q| < c <= |gamma - a|: the straight homotopy from gamma to Q
    misses a, and both wind alike.  Q keeps h = c/2 from a, so its segment
    k turns about a by theta_k with pi - |theta_k| >= 2h/2S = c/2S (the
    triangle's angles at the segment's ends), and the winding number is
    sum theta_k / 2 pi.  For phi_k = atan2 of the rounded v_k - a, phi_N =
    phi_0, so D_k = phi_k+1 - phi_k sum to 0 and, up to the angles'
    rounding, D_k = theta_k + 2 pi M_k for integers M_k: the winding number
    is -sum M_k, Q's signed crossings of the ray from a along the negative
    reals.  Computed, M_k = round(D_k / 2 pi) is exact when D_k is off an
    odd multiple of pi by more than 42u (the subtraction 1.01u and atan2
    8u per angle, D_k 4u, the quotient 3u of 2 pi), which c > 256u S
    (``_WINDING_ROUNDING``) ensures, as it does h >= c/2.

    Refuses (``NearSingularity``) a point on the path (clearance 0), one
    whose clearance is at most that allowance, and one whose Q would exceed
    ``approx._MAX_PANELS`` segments, checked before the partition is built.
    """
    a = require_finite_complex(a, "a")
    if not isinstance(gamma, PiecewisePath):
        raise TypeError("winding numbers need a piecewise-differentiable path")
    if not gamma.is_closed:
        raise ValueError("winding number needs a closed path")
    clearance = certified_clearance(gamma, [a])
    refusal = ("path not certifiably clear of the winding point "
               f"(best certified clearance {clearance:.3g}, ")
    if not clearance > 0:
        raise NearSingularity(refusal + f"the point {a} lies on the path, up to rounding)")
    panels = panel_counts(np.diff(gamma.breakpoints), gamma.second_derivative_bounds,
                          clearance / 2).sum()
    if not panels <= _MAX_PANELS:
        raise NearSingularity(refusal + f"needing {panels:.3g} segments, budget {_MAX_PANELS})")
    verts = polygonal_approximation(gamma, clearance / 2).path.vertices()
    allowance = _WINDING_ROUNDING * max(abs(a), np.abs(verts).max())
    if not clearance > allowance:
        raise NearSingularity(refusal + f"rounding allowance {allowance:.3g})")
    return -int(np.round(np.diff(np.angle(verts - a)) / (2 * math.pi)).sum())
