"""Exception types shared across the package."""


class ContourChainError(Exception):
    """Base class for all errors raised by this package."""


class ContainmentNotCertified(ContourChainError):
    """A chain could not be certified inside the domain: a member's clearance
    or a pair's bound failed, or the chain would exceed its budget.

    Carries the clearance or bound that failed, so callers can report how
    close the certification came.
    """

    def __init__(self, message: str, *, min_complement_distance: float | None = None):
        super().__init__(message)
        self.min_complement_distance = min_complement_distance


class InvalidEpsilon(ContourChainError):
    """A tolerance or approximation budget is nonpositive or non-finite."""


class EndpointMismatch(ContourChainError):
    """A homotopy's boundary slices disagree with the supplied endpoint paths."""


class NearSingularity(ContourChainError):
    """Evaluation or integration came too close to a declared singular point,
    or a declared singular point lies inside the domain of a verification."""


class ToleranceNotReached(ContourChainError):
    """Adaptive quadrature hit its bisection depth cap before converging."""


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
