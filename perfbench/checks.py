"""Output checks for the benchmark, computed apart from contourchain.

Nothing here imports the package under test.  Shapes, domains and integrands
are the benchmark's own descriptions of the inputs it generates, and every
expected value follows from them by plain arithmetic:

* contour integrals from the residue theorem (``cmath``), with the poles
  inside a path decided by point-in-circle, ellipse or square tests;
* winding numbers from the same point-in-shape tests;
* an upper bound on each consecutive chain pair's sup-distance, exact for two
  polylines (taken on the union of their breakpoints) and a dense sample plus
  Lipschitz slack when one member is a curve;
* membership of every chain vertex in the domain by ``|z - c|`` arithmetic.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Sample count for a curved end member; the Lipschitz slack shrinks as 1/_DENSE.
_DENSE = 8192


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


@dataclass(frozen=True)
class Shape:
    """A closed path as the spec documents it, parametrized on [0, 1].

    ``circle``: center + a e^{2 pi i x}.  ``ellipse``: center + a cos(2 pi x)
    + i b sin(2 pi x).  ``square``: half side a, counterclockwise from the
    upper-right corner, one side per quarter of [0, 1].  ``point``: constant.
    """

    kind: str
    center: complex
    a: float = 0.0
    b: float = 0.0

    def contains(self, z: complex) -> bool:
        """Strictly inside the bounded region the path encloses."""
        dx, dy = z.real - self.center.real, z.imag - self.center.imag
        if self.kind == "circle":
            return math.hypot(dx, dy) < self.a
        if self.kind == "ellipse":
            return (dx / self.a) ** 2 + (dy / self.b) ** 2 < 1.0
        if self.kind == "square":
            return max(abs(dx), abs(dy)) < self.a
        return False

    @property
    def max_modulus(self) -> float:
        """An upper bound on |z| over the path."""
        reach = {"circle": self.a, "ellipse": max(self.a, self.b),
                 "square": self.a * math.sqrt(2.0), "point": 0.0}[self.kind]
        return abs(self.center) + reach

    def as_member(self):
        """The path as a Polyline or a Curve for sup-distance bounds."""
        c, h = self.center, self.a
        if self.kind == "square":
            corners = [c + complex(h, h), c + complex(-h, h), c + complex(-h, -h),
                       c + complex(h, -h), c + complex(h, h)]
            return Polyline(np.arange(5) / 4, np.array(corners))
        if self.kind == "point":
            return Polyline(np.array([0.0, 1.0]), np.array([c, c]))
        return Curve(self)

    def values(self, xs: np.ndarray) -> np.ndarray:
        theta = 2 * math.pi * xs
        if self.kind == "circle":
            return self.center + self.a * np.exp(1j * theta)
        return self.center + self.a * np.cos(theta) + 1j * self.b * np.sin(theta)

    @property
    def lipschitz(self) -> float:
        return 2 * math.pi * max(self.a, self.b)


@dataclass(frozen=True)
class Region:
    """Domain of a chain: ``annulus`` r_in < |z - c| < r_out or ``disk`` |z - c| < r_out."""

    kind: str
    center: complex
    r_out: float
    r_in: float = 0.0

    def contains(self, zs: np.ndarray) -> np.ndarray:
        rho = np.abs(np.asarray(zs) - self.center)
        inside = rho < self.r_out
        if self.kind == "annulus":
            inside &= rho > self.r_in
        return inside


@dataclass(frozen=True)
class Integrand:
    """``inv``: 1/(z-p0).  ``exp``: exp(z)/(z-p0).  ``inv2``: 1/((z-p0)(z-p1))."""

    kind: str
    poles: tuple[complex, ...]

    def residues(self) -> list[tuple[complex, complex]]:
        p = self.poles
        if self.kind == "inv":
            return [(p[0], 1.0 + 0j)]
        if self.kind == "exp":
            return [(p[0], cmath.exp(p[0]))]
        return [(p[0], 1 / (p[0] - p[1])), (p[1], 1 / (p[1] - p[0]))]


def expected_integral(f: Integrand, path: Shape) -> complex:
    """Residue theorem for a counterclockwise simple closed path."""
    return 2j * math.pi * sum((r for p, r in f.residues() if path.contains(p)), 0j)


def check_integral(value: complex, f: Integrand, path: Shape, tol: float):
    expected = expected_integral(f, path)
    if not abs(value - expected) <= tol:
        raise CheckFailed(f"integral {value} differs from the residue sum {expected} "
                          f"by {abs(value - expected):.3g} > tol {tol:.3g}")


def check_winding(winding: int, path: Shape, point: complex):
    expected = 1 if path.contains(point) else 0
    if winding != expected:
        raise CheckFailed(f"winding number {winding} about {point}, expected {expected}")


@dataclass(frozen=True, eq=False)
class Polyline:
    """Piecewise-linear path through ``verts`` at parameters ``breaks``."""

    breaks: np.ndarray
    verts: np.ndarray

    def at(self, xs: np.ndarray) -> np.ndarray:
        return np.interp(xs, self.breaks, self.verts)

    @property
    def lipschitz(self) -> float:
        return float((np.abs(np.diff(self.verts)) / np.diff(self.breaks)).max())


@dataclass(frozen=True, eq=False)
class Curve:
    """A curved shape, evaluated by its own formula."""

    shape: Shape

    def at(self, xs: np.ndarray) -> np.ndarray:
        return self.shape.values(xs)

    @property
    def lipschitz(self) -> float:
        return self.shape.lipschitz


def sup_distance_upper(p, q) -> float:
    """Upper bound on sup_x |p(x) - q(x)| over [0, 1].

    Two polylines are both affine between consecutive points of the union of
    their breakpoints, so |p - q| is convex there and the maximum over that
    union is the exact sup; at its own breakpoints each polyline is its
    vertices, so only the other one is interpolated.  With a curve, every x lies within gap/2 of a
    sample and |p - q| is (Lp + Lq)-Lipschitz, which gives the slack term.
    """
    if isinstance(p, Polyline) and isinstance(q, Polyline):
        return float(max(np.abs(p.verts - q.at(p.breaks)).max(),
                         np.abs(p.at(q.breaks) - q.verts).max()))
    grids = [np.arange(_DENSE + 1) / _DENSE]
    grids += [m.breaks for m in (p, q) if isinstance(m, Polyline)]
    xs = np.unique(np.concatenate(grids))
    slack = (p.lipschitz + q.lipschitz) * float(np.diff(xs).max()) / 2
    return float(np.abs(p.at(xs) - q.at(xs)).max()) + slack


def check_chain(members, bounds: list[float], gamma0: Shape, gamma1: Shape, region: Region):
    """Check a chain [gamma0, interior polylines..., gamma1] against its certificate.

    ``members`` yields the program's interior members as Polylines, one at a
    time; the end members are taken from the benchmark's own shapes.
    """
    prev, pairs = gamma0.as_member(), 0
    for k, member in enumerate(itertools.chain(members, [None]), start=1):
        if member is None:
            member = gamma1.as_member()
        else:
            check_vertices_in_region(member, region, k)
        if pairs < len(bounds):
            upper = sup_distance_upper(prev, member)
            if not upper <= bounds[pairs]:
                raise CheckFailed(f"pair {pairs}: sup-distance upper bound {upper:.6g} "
                                  f"exceeds the certified bound {bounds[pairs]:.6g}")
        prev, pairs = member, pairs + 1
    if pairs != len(bounds):
        raise CheckFailed(f"{len(bounds)} certified bounds for {pairs + 1} members")


def check_vertices_in_region(member: Polyline, region: Region, index: int):
    outside = ~region.contains(member.verts)
    if outside.any():
        z = member.verts[np.argmax(outside)]
        raise CheckFailed(f"member {index} has vertex {z} outside the domain")
