"""Domain shapes, finite nets, and certified enclosures.

A domain is an open subset of the plane with a closed-form distance to its
complement, at points (``complement_distances``) and as the minimum over
straight segments (``segment_complement_distances``).  One routine,
``polyline_clearances``, makes those minima certified clearances of
polylines: the chain's members from the spec's domain, and the paths the
quadrature and the winding number measure from a ``PuncturedPlane``.

``CompactCarrier`` is a finite net of points standing in for a compact set:
every point of the set lies within ``resolution`` of a net point, and every
net point lies within it of the set.  ``carrier_of_path`` builds one for a
path's range; a query against it is a plain minimum over ``net``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields as _fields

import numpy as np

__all__ = [
    "Bounds",
    "CompactCarrier",
    "DomainDescriptor",
    "Disk",
    "Annulus",
    "Rectangle",
    "PuncturedPlane",
    "polyline_clearances",
]


def require_finite_real(x: float, name: str = "value") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def require_finite_complex(z: complex, name: str = "value") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must have finite real and imaginary parts, got {z!r}")
    return z


@dataclass(frozen=True)
class Bounds:
    """A certified enclosure ``lo <= true value <= hi``."""

    lo: float
    hi: float

    def __post_init__(self):
        require_finite_real(self.lo, "lo")
        require_finite_real(self.hi, "hi")
        if self.lo > self.hi:
            raise ValueError(f"empty bounds: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    @classmethod
    def from_arrays(cls, lo: np.ndarray, hi: np.ndarray) -> list["Bounds"]:
        """One enclosure per entry of the arrays ``lo`` and ``hi``, with the
        checks of the constructor run once on the arrays (``check_arrays``)."""
        lo, hi = cls.check_arrays(lo, hi)
        out = []
        for lo_k, hi_k in zip(lo.tolist(), hi.tolist()):
            bounds = object.__new__(cls)
            fields = bounds.__dict__
            fields["lo"] = lo_k
            fields["hi"] = hi_k
            out.append(bounds)
        return out

    @staticmethod
    def check_arrays(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``lo`` and ``hi`` as float arrays, refused unless every entry pair
        is an enclosure of the constructor's kind (finite, lo <= hi)."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("lo and hi must be finite")
        empty = (lo > hi).nonzero()[0]
        if empty.size:
            k = empty[0]
            raise ValueError(f"empty bounds: lo={lo[k]} > hi={hi[k]}")
        return lo, hi


@dataclass(frozen=True, eq=False)
class CompactCarrier:
    """Finite net standing in for a totally bounded compact set.

    ``net`` holds the net points; ``resolution`` is the two-sided net error
    eta.  The net is immutable after construction.
    """

    net: np.ndarray
    resolution: float

    def __post_init__(self):
        pts = np.asarray(self.net, dtype=np.complex128).ravel()
        if pts.size == 0:
            raise ValueError("carrier net must be nonempty")
        if not np.all(np.isfinite(pts.real) & np.isfinite(pts.imag)):
            raise ValueError("carrier net contains non-finite points")
        eta = require_finite_real(self.resolution, "resolution")
        if eta <= 0:
            raise ValueError(f"resolution must be positive, got {eta}")
        pts.setflags(write=False)
        object.__setattr__(self, "net", pts)
        object.__setattr__(self, "resolution", eta)

    def __len__(self) -> int:
        return self.net.size


class DomainDescriptor:
    """Open subset of the plane with a closed-form distance to its complement.

    ``segment_complement_distances(a, b)`` is the minimum of that distance
    over each segment [a, b], also in closed form.
    """

    def complement_distances(self, zs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def segment_complement_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @functools.cached_property
    def reach(self) -> float:
        """The largest modulus among the numbers that define a built-in
        shape.  Its closed-form distances at z round by a few ulps of the
        larger of this and |z|."""
        return float(max((abs(v) for f in _fields(self) for v in np.ravel(getattr(self, f.name))),
                         default=0.0))

    def complement_distance(self, z: complex) -> float:
        """The distance from the point ``z`` to the complement, exact for
        every built-in shape; nonpositive means ``z`` is not inside."""
        z = require_finite_complex(z, "z")
        return float(self.complement_distances(np.array([z], dtype=np.complex128))[0])


@dataclass(frozen=True)
class Disk(DomainDescriptor):
    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", require_finite_complex(self.center, "center"))
        object.__setattr__(self, "radius", require_finite_real(self.radius, "radius"))
        if self.radius <= 0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")

    def complement_distances(self, zs):
        return self.radius - np.abs(np.asarray(zs, dtype=np.complex128) - self.center)

    def segment_complement_distances(self, a, b):
        # concave along the segment, so smallest at an end
        return np.minimum(self.complement_distances(a), self.complement_distances(b))


@dataclass(frozen=True)
class Annulus(DomainDescriptor):
    center: complex
    r_inner: float
    r_outer: float

    def __post_init__(self):
        object.__setattr__(self, "center", require_finite_complex(self.center, "center"))
        object.__setattr__(self, "r_inner", require_finite_real(self.r_inner, "r_inner"))
        object.__setattr__(self, "r_outer", require_finite_real(self.r_outer, "r_outer"))
        if not (0 <= self.r_inner < self.r_outer):
            raise ValueError(f"annulus radii must satisfy 0 <= r_inner < r_outer, got {self.r_inner}, {self.r_outer}")

    def complement_distances(self, zs):
        rho = np.abs(np.asarray(zs, dtype=np.complex128) - self.center)
        return np.minimum(rho - self.r_inner, self.r_outer - rho)

    def segment_complement_distances(self, a, b):
        # |z - c| is smallest at the segment's closest point to c and, being
        # convex, largest at an end
        a = np.asarray(a, dtype=np.complex128)
        b = np.asarray(b, dtype=np.complex128)
        farthest = np.maximum(np.abs(a - self.center), np.abs(b - self.center))
        return np.minimum(_segment_point_distances(a, b, self.center) - self.r_inner,
                          self.r_outer - farthest)


@dataclass(frozen=True)
class Rectangle(DomainDescriptor):
    corner_lo: complex
    corner_hi: complex

    def __post_init__(self):
        object.__setattr__(self, "corner_lo", require_finite_complex(self.corner_lo, "corner_lo"))
        object.__setattr__(self, "corner_hi", require_finite_complex(self.corner_hi, "corner_hi"))
        if not (self.corner_lo.real < self.corner_hi.real and self.corner_lo.imag < self.corner_hi.imag):
            raise ValueError("rectangle corners must be ordered componentwise")

    def complement_distances(self, zs):
        zs = np.asarray(zs, dtype=np.complex128)
        return np.minimum.reduce([
            zs.real - self.corner_lo.real,
            self.corner_hi.real - zs.real,
            zs.imag - self.corner_lo.imag,
            self.corner_hi.imag - zs.imag,
        ])

    def segment_complement_distances(self, a, b):
        # a minimum of affine functions is concave, so smallest at an end
        return np.minimum(self.complement_distances(a), self.complement_distances(b))


@dataclass(frozen=True)
class PuncturedPlane(DomainDescriptor):
    """The plane minus a finite set of points; empty set means the whole plane."""

    excluded: tuple[complex, ...]

    def __post_init__(self):
        pts = tuple(require_finite_complex(p, "excluded point") for p in self.excluded)
        if len(set(pts)) != len(pts):
            raise ValueError("excluded points must be pairwise distinct")
        object.__setattr__(self, "excluded", pts)

    def complement_distances(self, zs):
        zs = np.asarray(zs, dtype=np.complex128)
        if not self.excluded:
            return np.full(zs.shape, np.inf)
        pts = np.array(self.excluded, dtype=np.complex128)
        return np.abs(zs[..., None] - pts).min(axis=-1)

    def segment_complement_distances(self, a, b):
        a, b = (np.asarray(z, dtype=np.complex128)[..., None] for z in (a, b))
        if not self.excluded:
            return np.full(a.shape[:-1], np.inf)
        return _segment_point_distances(a, b, np.array(self.excluded)).min(axis=-1)


def polyline_clearances(z0: np.ndarray, z1: np.ndarray, starts, domain: DomainDescriptor,
                        rounding: float, vertices: np.ndarray | None = None) -> np.ndarray:
    """The certified clearance of each polyline in a stack of segments [z0, z1],
    polyline k holding those from ``starts[k]`` up to the next: its exact
    minimum of ``domain.segment_complement_distances``, less ``rounding`` (the
    allowance its caller's proof needs) times the larger of its largest
    |vertex| (``vertices``, when the caller has them) and ``domain.reach``.
    Nonpositive or nan certifies nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        exact = np.minimum.reduceat(domain.segment_complement_distances(z0, z1), starts)
        if vertices is None:
            vertices = np.maximum.reduceat(np.maximum(np.abs(z0), np.abs(z1)), starts)
        return exact - rounding * np.maximum(vertices, domain.reach)


def _segment_point_distances(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """Distance from ``p`` to each segment [a, b], broadcast (``_segment_projections``)."""
    a = np.asarray(a, dtype=np.complex128)
    d = np.asarray(b, dtype=np.complex128) - a
    return np.abs(a + _segment_projections(a, d, p) * d - p)


def _segment_projections(a: np.ndarray, d: np.ndarray, p) -> np.ndarray:
    """The parameter s in [0, 1] of each segment [a, a + d]'s point nearest
    to ``p``: p's projection onto its line clamped to it, 0 if degenerate.
    It is taken with d and p - a times the power of two 2^-e that brings d's
    larger part into [1/2, 1), an exact scaling, so |d|^2 neither overflows
    on a long segment nor underflows on a short one, and the ratio is the
    unscaled one wherever that is representable."""
    e = np.frexp(np.maximum(np.abs(d.real), np.abs(d.imag)))[1]
    scale = np.ldexp(1.0, np.minimum(-e, 1021))  # 2^-e, finite for a subnormal d
    unit = d * scale
    length2 = unit.real ** 2 + unit.imag ** 2
    # the scaled p - a overflows only for a point over 2^1000 segment lengths
    # from a, which every point of the segment is as near to, up to rounding:
    # an infinite s takes the end its sign names, and a nan s the end a
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        along = ((p - a) * scale * unit.conjugate()).real
        s = np.where(length2 > 0, along / length2, 0.0)
    return np.fmin(np.fmax(s, 0.0), 1.0)


# no caller in the package: the benchmark's tracer wraps it (perfbench/tracing.py)
def well_contained(carrier: CompactCarrier, domain: DomainDescriptor) -> float:
    """A lower bound on the distance from every point of the carrier's set to
    the domain's complement: the net's minimum less its resolution.
    Nonpositive certifies nothing."""
    return float(domain.complement_distances(carrier.net).min()) - carrier.resolution
