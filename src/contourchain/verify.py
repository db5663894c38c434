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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NearSingularity, NonIntegerWinding
from .expressions import AnalyticFunction, Const, Div, Sub, Var
from .geometry import DomainDescriptor, require_finite_complex
from .homotopy import Chain, Homotopy, build_chain
from .integrate import IntegralResult, contour_integral, integral_along_chain
from .paths import PiecewisePath, certified_clearance, reparametrize_to_unit
# carrier_of_path is unused here but stays importable: perfbench/tracing.py wraps it
from .paths import carrier_of_path  # noqa: F401

__all__ = [
    "VerificationReport",
    "verify_homotopy_invariance",
    "winding_number",
]

_PASS_FACTOR = 10.0
_WINDING_CLEARANCE = 1e-6


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
        return len(self.chain.members)

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
    gamma0 = reparametrize_to_unit(gamma0)
    gamma1 = reparametrize_to_unit(gamma1)
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


def winding_number(gamma: PiecewisePath, a: complex, tol: float) -> int:
    """Signed turn count of the closed path about ``a``.

    Integrates dz/(z - a), divides by 2 pi i, and demands the result land
    within 0.25 of an integer; anything farther signals a broken path or
    tolerance and raises instead of rounding it away.
    """
    a = require_finite_complex(a, "a")
    if not isinstance(gamma, PiecewisePath):
        raise TypeError("winding numbers need a piecewise-differentiable path")
    if not gamma.is_closed:
        raise ValueError("winding number needs a closed path")
    clearance = certified_clearance(gamma, [a])
    if clearance <= _WINDING_CLEARANCE:
        raise NearSingularity(
            f"carrier not certifiably clear of the winding point "
            f"(best certified clearance {clearance:.3g}, required {_WINDING_CLEARANCE})")
    # the clearance just certified implies contour_integral's pole check
    probe = AnalyticFunction(Div(Const(1 + 0j), Sub(Var(), Const(a))), ())
    result = contour_integral(probe, gamma, tol)
    turns = result.value / (2j * math.pi)
    nearest = round(turns.real)
    if abs(turns - nearest) > 0.25:
        raise NonIntegerWinding(
            f"winding integral {turns} is not within 0.25 of an integer")
    return int(nearest)
