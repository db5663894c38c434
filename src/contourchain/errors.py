"""Exception types shared across the package."""


class ContourChainError(Exception):
    """Base class for all errors raised by this package."""


class ContainmentNotCertified(ContourChainError):
    """A compact carrier could not be certified to sit well inside the domain.

    Carries the best margin data seen so far, so callers can report how close
    the certification came.
    """

    def __init__(self, message: str, *, min_complement_distance: float | None = None,
                 resolution: float | None = None):
        super().__init__(message)
        self.min_complement_distance = min_complement_distance
        self.resolution = resolution


class MismatchedDomains(ContourChainError):
    """Two paths were expected to share a parameter interval but do not."""


class InvalidEpsilon(ContourChainError):
    """A tolerance or approximation budget is nonpositive or non-finite."""


class EndpointMismatch(ContourChainError):
    """A homotopy's boundary slices disagree with the supplied endpoint paths."""


class NearSingularity(ContourChainError):
    """Evaluation or integration came too close to a declared singular point."""


class ToleranceNotReached(ContourChainError):
    """Adaptive quadrature hit its bisection depth cap before converging."""


class NonIntegerWinding(ContourChainError):
    """The winding integral did not land near an integer; path or tolerance is broken."""


class CertificateViolation(ContourChainError):
    """A measured lower bound exceeded an analytically certified bound.

    This indicates a modulus bug somewhere upstream; it is never swallowed.
    """


class ParseError(ContourChainError):
    """Expression text could not be parsed.

    Attributes:
        position: 0-based offset into the input where parsing failed.
        expected: set of token descriptions that would have been accepted.
    """

    def __init__(self, message: str, position: int, expected: set[str]):
        super().__init__(f"{message} at position {position} (expected: {', '.join(sorted(expected))})")
        self.position = position
        self.expected = expected


class SpecError(ContourChainError):
    """A problem spec document is malformed or has dangling references."""
