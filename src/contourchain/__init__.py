"""Certified polygonal chains between homotopic closed paths.

The package builds, from a homotopy of closed paths, a finite chain of
piecewise-linear closed paths whose consecutive sup-distances are certified by
explicit bounds, integrates analytic functions along piecewise-differentiable
paths with controlled quadrature error, and verifies numerically that
homotopic paths yield equal contour integrals.
"""

from .errors import (
    CertificateViolation,
    ContainmentNotCertified,
    ContourChainError,
    EndpointMismatch,
    InvalidEpsilon,
    MismatchedDomains,
    NearSingularity,
    NonIntegerWinding,
    ParseError,
    SpecError,
    ToleranceNotReached,
)
from .geometry import (
    Annulus,
    Bounds,
    CompactCarrier,
    Containment,
    ContainmentCertificate,
    Disk,
    DomainDescriptor,
    PuncturedPlane,
    Rectangle,
    dist_to_carrier,
    dist_to_complement,
    inflate_contains,
    margin_certificate,
    well_contained,
)
from .paths import (
    ArcSegment,
    LineSegment,
    PiecewisePath,
    SmoothSegment,
    carrier_of_path,
    certified_clearance,
    certified_clearances,
    circle,
    consecutive_polyline_distances,
    constant_path,
    ellipse,
    polyline,
    polyline_sup_distance,
    reparametrize_to_unit,
    square,
    sup_distance,
)
from .approx import PolygonalApproximation, polygonal_approximation
from .expressions import (
    Add,
    AnalyticFunction,
    Const,
    Cos,
    Div,
    Exp,
    Expr,
    Mul,
    Pow,
    Sin,
    Sub,
    Var,
    parse_function,
)
from .homotopy import (
    Chain,
    ChainCertificate,
    Homotopy,
    PairBound,
    build_chain,
    homotopy_carrier,
    linear_homotopy,
    star_null_homotopy,
)
from .integrate import (
    ChainIntegrals,
    IntegralResult,
    contour_integral,
    integral_along_chain,
)
from .verify import (
    VerificationReport,
    verify_homotopy_invariance,
    verify_null_homotopic,
    verify_star_homotopy,
    winding_number,
)

__version__ = "0.1.0"
