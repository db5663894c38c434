"""End-to-end verification: homotopic paths yield equal contour integrals.

Each verifier builds the certified chain for its homotopy, integrates the
given function along every member, and passes only when the worst pairwise
disagreement stays within ten times the per-member quadrature tolerance: each
member carries at most tol of quadrature error, and the factor absorbs
accumulation without masking a real discrepancy, which would be orders of
magnitude larger.  When containment cannot be certified the verifier refuses
outright instead of warning, because the hypothesis of the invariance
statement is simply not established.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NearSingularity, NonIntegerWinding
from .expressions import AnalyticFunction, Const, Div, Sub, Var
from .geometry import DomainDescriptor, require_finite_complex
from .homotopy import Chain, Homotopy, build_chain, star_null_homotopy
from .integrate import ChainIntegrals, IntegralResult, contour_integral, integral_along_chain
from .paths import PiecewisePath, certified_clearance, reparametrize_to_unit
# carrier_of_path is unused here but stays importable: perfbench/tracing.py wraps it
from .paths import carrier_of_path  # noqa: F401

__all__ = [
    "VerificationReport",
    "verify_homotopy_invariance",
    "verify_null_homotopic",
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
            f"  chain members: {self.members}   epsilon: {self.chain.epsilon:.6g}"
            f"   margin: {self.chain.containment.margin:.6g}"
            f"   net resolution: {self.chain.containment.net_resolution:.6g}",
            f"  endpoint integrals: {first:.12g}  ->  {last:.12g}",
            f"  max pairwise deviation: {self.max_deviation:.6g}   threshold: {self.threshold:.6g}",
            f"  certificate: {self.chain.certificate.summary_text()}",
        ]
        if self.null_integral_abs is not None:
            lines.append(f"  |integral over the input path|: {self.null_integral_abs:.6g}")
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _finish(kind: str, f: AnalyticFunction, chain: Chain, integrals: ChainIntegrals,
            tol: float, null_abs: float | None = None) -> VerificationReport:
    threshold = _PASS_FACTOR * tol
    passed = integrals.max_deviation <= threshold
    if null_abs is not None:
        passed = passed and null_abs <= threshold
    return VerificationReport(
        kind=kind, passed=passed, tol=tol, threshold=threshold,
        max_deviation=integrals.max_deviation, chain=chain,
        integrals=integrals.results, function_text=f.to_text(),
        null_integral_abs=null_abs)


def verify_homotopy_invariance(f: AnalyticFunction, gamma0: PiecewisePath,
                               gamma1: PiecewisePath, sigma: Homotopy,
                               domain: DomainDescriptor, tol: float, *,
                               eps: float | None = None) -> VerificationReport:
    """Build the chain for sigma and check all member integrals agree.

    ``eps`` overrides the chain budget as in ``build_chain``; by default it is
    half the certified containment margin.
    """
    gamma0 = reparametrize_to_unit(gamma0)
    gamma1 = reparametrize_to_unit(gamma1)
    chain = build_chain(sigma, gamma0, gamma1, domain, eps=eps)
    integrals = integral_along_chain(f, chain, tol)
    return _finish("homotopy-invariance", f, chain, integrals, tol)


def verify_null_homotopic(f: AnalyticFunction, gamma: PiecewisePath, center: complex,
                          domain: DomainDescriptor, tol: float, *,
                          eps: float | None = None) -> VerificationReport:
    """Contract gamma onto the center and check its integral vanishes.

    The star homotopy sweeps the whole cone from the path to the center, so
    containment certification requires that cone to sit inside the domain;
    otherwise the run refuses with ContainmentNotCertified.  ``eps`` is passed
    to ``build_chain`` as in ``verify_homotopy_invariance``.
    """
    sigma = star_null_homotopy(gamma, center)
    chain = build_chain(sigma, sigma.gamma0, sigma.gamma1, domain, eps=eps)
    integrals = integral_along_chain(f, chain, tol)
    null_abs = abs(integrals.results[0].value)
    return _finish("null-homotopy", f, chain, integrals, tol, null_abs=null_abs)


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
    probe = AnalyticFunction(Div(Const(1 + 0j), Sub(Var(), Const(a))), (a,))
    clearance = certified_clearance(gamma, [a], _WINDING_CLEARANCE)
    if clearance <= _WINDING_CLEARANCE:
        raise NearSingularity(
            f"carrier not certifiably clear of the winding point "
            f"(best certified clearance {clearance:.3g}, required {_WINDING_CLEARANCE})")
    result = contour_integral(probe, gamma, tol)
    turns = result.value / (2j * math.pi)
    nearest = round(turns.real)
    if abs(turns - nearest) > 0.25:
        raise NonIntegerWinding(
            f"winding integral {turns} is not within 0.25 of an integer")
    return int(nearest)
