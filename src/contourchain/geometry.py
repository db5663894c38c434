"""Located compact sets as finite nets, domain shapes, and containment certificates.

A compact set is represented by a finite net of complex points together with a
resolution ``eta``: every point of the represented set lies within ``eta`` of
some net point and every net point lies within ``eta`` of the set.  All
distance queries against such a set return two-sided certified bounds whose
width is controlled by ``eta``, so downstream inequalities can be checked
rigorously instead of approximately.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContainmentNotCertified

__all__ = [
    "Bounds",
    "Containment",
    "CompactCarrier",
    "DomainDescriptor",
    "Disk",
    "Annulus",
    "Rectangle",
    "PuncturedPlane",
    "ContainmentCertificate",
    "dist_to_carrier",
    "inflate_contains",
    "dist_to_complement",
    "well_contained",
    "margin_certificate",
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
        checks of the constructor (finite, lo <= hi) run once on the arrays."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("lo and hi must be finite")
        empty = np.flatnonzero(lo > hi)
        if empty.size:
            k = empty[0]
            raise ValueError(f"empty bounds: lo={lo[k]} > hi={hi[k]}")
        out = []
        for lo_k, hi_k in zip(lo.tolist(), hi.tolist()):
            bounds = object.__new__(cls)
            fields = bounds.__dict__
            fields["lo"] = lo_k
            fields["hi"] = hi_k
            out.append(bounds)
        return out


class Containment(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    UNCERTAIN = "uncertain"


@dataclass(frozen=True, eq=False)
class CompactCarrier:
    """Finite net standing in for a totally bounded compact set.

    ``net`` holds the net points; ``resolution`` is the two-sided net error
    eta.  The net is immutable after construction.
    """

    net: np.ndarray
    resolution: float
    _tree: list = field(default=None, repr=False)

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
        object.__setattr__(self, "_tree", [])  # lazy KD-tree cache

    def __len__(self) -> int:
        return self.net.size

    def nearest_distances(self, zs: np.ndarray) -> np.ndarray:
        """Min distance from each query point to the net (raw, no eta slack)."""
        zs = np.asarray(zs, dtype=np.complex128).ravel()
        if zs.size * self.net.size <= 200_000:
            return np.abs(zs[:, None] - self.net[None, :]).min(axis=1)
        if not self._tree:
            # imported here: scipy.spatial is most of the package's import time
            from scipy.spatial import cKDTree
            coords = np.column_stack([self.net.real, self.net.imag])
            self._tree.append(cKDTree(coords))
        q = np.column_stack([zs.real, zs.imag])
        d, _ = self._tree[0].query(q)
        return d


def dist_to_carrier(z: complex, carrier: CompactCarrier) -> Bounds:
    """Two-sided bounds on the distance from ``z`` to the represented set.

    The raw minimum ``d`` over the net satisfies ``d - eta <= rho <= d``
    because net points lie within eta of the set and the set lies within eta
    of the net; the lower bound is clamped at zero.
    """
    z = require_finite_complex(z, "z")
    d = float(carrier.nearest_distances(np.array([z]))[0])
    return Bounds(max(d - carrier.resolution, 0.0), d)


def inflate_contains(carrier: CompactCarrier, r: float, z: complex) -> Containment:
    """Decide whether ``z`` lies in the r-inflation of the carrier's set.

    Three-valued: UNCERTAIN when the certified distance bounds straddle ``r``.
    """
    r = require_finite_real(r, "r")
    if r < 0:
        raise ValueError(f"inflation radius must be nonnegative, got {r}")
    b = dist_to_carrier(z, carrier)
    if b.hi <= r:
        return Containment.INSIDE
    if b.lo > r:
        return Containment.OUTSIDE
    return Containment.UNCERTAIN


class DomainDescriptor:
    """Open subset of the plane with a closed-form distance to its complement.

    ``segment_complement_distances(a, b)`` is the minimum of that distance
    over each segment [a, b], also in closed form.
    """

    def complement_distances(self, zs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def segment_complement_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def complement_distance(self, z: complex) -> float:
        return float(self.complement_distances(np.array([complex(z)], dtype=np.complex128))[0])

    def to_dict(self) -> dict:
        raise NotImplementedError


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

    def to_dict(self):
        return {"kind": "disk", "center": _complex_text(self.center), "radius": self.radius}


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

    def to_dict(self):
        return {"kind": "annulus", "center": _complex_text(self.center),
                "r_inner": self.r_inner, "r_outer": self.r_outer}


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

    def to_dict(self):
        return {"kind": "rectangle", "corner_lo": _complex_text(self.corner_lo),
                "corner_hi": _complex_text(self.corner_hi)}


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
        out = np.full(np.shape(a), np.inf)
        for p in self.excluded:
            out = np.minimum(out, _segment_point_distances(a, b, p))
        return out

    def to_dict(self):
        return {"kind": "punctured_plane", "excluded": [_complex_text(p) for p in self.excluded]}


def _segment_point_distances(a: np.ndarray, b: np.ndarray, p: complex) -> np.ndarray:
    """Distance from the point ``p`` to each segment [a, b].

    The closest point is the projection of p onto the segment's line,
    clamped to the segment; a degenerate segment is its point a.
    """
    a = np.asarray(a, dtype=np.complex128)
    d = np.asarray(b, dtype=np.complex128) - a
    length2 = d.real ** 2 + d.imag ** 2
    along = ((p - a) * d.conjugate()).real
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(length2 > 0, along / length2, 0.0)
    return np.abs(a + np.clip(s, 0.0, 1.0) * d - p)


def _complex_text(z: complex) -> str:
    return f"{z.real!r}+{z.imag!r}i" if z.imag >= 0 else f"{z.real!r}-{-z.imag!r}i"


def dist_to_complement(z: complex, domain: DomainDescriptor) -> float:
    """Lower bound (exact for every built-in shape) on the distance from ``z``
    to the complement of the domain.  Nonpositive means ``z`` is not certifiably
    inside."""
    return domain.complement_distance(require_finite_complex(z, "z"))


@dataclass(frozen=True)
class ContainmentCertificate:
    """Witness that the carrier's r-inflation stays inside a domain.

    The margin must clear twice the net resolution so the certificate
    survives the two-sided net error.  It is +inf when the domain has an
    empty complement (the whole plane).
    """

    margin: float
    net_resolution: float

    def __post_init__(self):
        if not (math.isfinite(self.margin) or self.margin == math.inf):
            raise ValueError(f"margin must be finite or +inf, got {self.margin!r}")
        require_finite_real(self.net_resolution, "net_resolution")
        if not self.margin > 2 * self.net_resolution:
            raise ValueError(
                f"certificate margin {self.margin} does not exceed twice the net resolution {self.net_resolution}")


def margin_certificate(min_distance: float, resolution: float) -> ContainmentCertificate:
    """Certify a margin from the minimum complement distance ``m`` over a net
    of resolution eta.

    Every point of the set keeps distance at least m - eta from the
    complement, so r = (m - eta)/2 leaves matching slack for the inflation and
    for downstream enlargements.  Raises ContainmentNotCertified when the
    margin does not clear the net error; the caller may refine the net and retry.
    """
    m, eta = float(min_distance), float(resolution)
    if m - eta <= 0:
        raise ContainmentNotCertified(
            f"carrier not certifiably inside domain: min complement distance {m:.6g} <= resolution {eta:.6g}",
            min_complement_distance=m, resolution=eta)
    r = (m - eta) / 2
    if not r > 2 * eta:
        raise ContainmentNotCertified(
            f"containment margin {r:.6g} too small relative to net resolution {eta:.6g}; refine the net",
            min_complement_distance=m, resolution=eta)
    return ContainmentCertificate(margin=r, net_resolution=eta)


def well_contained(carrier: CompactCarrier, domain: DomainDescriptor) -> ContainmentCertificate:
    """Certify that the carrier's set, inflated by some r > 0, stays inside the
    domain, by ``margin_certificate`` on the minimum complement distance over
    the net."""
    return margin_certificate(float(domain.complement_distances(carrier.net).min()),
                              carrier.resolution)
