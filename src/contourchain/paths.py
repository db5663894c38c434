"""Piecewise-differentiable paths, each with its Lipschitz bound.

A path is a finite run of segments over contiguous spans of the parameter
interval [0, 1], each a line or an arc of an axis-aligned ellipse
(a circle when its semi-axes agree; ``ellipse`` is one arc over a full
turn).  Both kinds have closed forms for their values, their bounds on |z'|
and |z''|, and their certified clearance from a point (for lines,
``geometry.polyline_clearances``).  The largest |z'| bound, ``lipschitz_bound``
L, is the path's modulus of continuity as explicit data: parameter points
closer than eps / L map to values closer than eps, and for L = 0 (a constant
path) every step qualifies.  Sampling grids, eta-nets and sup-distance bounds
all read that one number.

Endpoint equality of closed paths is enforced by construction: evaluating a
closed path at 1 returns the bit-exact value at 0, so no closedness
tolerance exists anywhere downstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import InvalidEpsilon
from .geometry import (Bounds, CompactCarrier, PuncturedPlane, polyline_clearances,
                       require_finite_complex, require_finite_real)
from .geometry import _segment_projections

__all__ = [
    "LineSegment",
    "ArcSegment",
    "PiecewisePath",
    "circle",
    "ellipse",
    "square",
    "polyline",
    "constant_path",
    "carrier_of_path",
    "certified_clearance",
    "certified_clearances",
    "sup_distance",
    "polyline_sup_distance",
]

_MAX_SAMPLES = 10_000_000

# Endpoint gap this small (relative to value scale) is float noise from a
# mathematically closed formula; anything larger is a genuinely open path.
_CLOSURE_NOISE = 1e-12

# Rounding allowance of the closed-form distances, relative to the largest
# magnitude: a projected point, the difference and its modulus stay below 10
# ulps.  It also widens an arc's sweep test, per radian (see _arc_clearance).
_POLYLINE_ROUNDING = 16 * np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------

class _SegmentBase:
    s0: float
    s1: float

    def _u(self, xs):
        return (np.asarray(xs, dtype=np.float64) - self.s0) / (self.s1 - self.s0)

    @property
    def span(self) -> float:
        return self.s1 - self.s0


@dataclass(frozen=True, eq=False)
class LineSegment(_SegmentBase):
    """Straight segment traced by convex combination, so both endpoints are exact."""

    z0: complex
    z1: complex
    s0: float
    s1: float

    def __post_init__(self):
        object.__setattr__(self, "z0", require_finite_complex(self.z0, "z0"))
        object.__setattr__(self, "z1", require_finite_complex(self.z1, "z1"))
        if not self.s0 < self.s1:
            raise ValueError(f"need s0 < s1, got [{self.s0}, {self.s1}]")

    @property
    def start_value(self):
        return self.z0

    @property
    def end_value(self):
        return self.z1

    @property
    def derivative_bound(self):
        return abs(self.z1 - self.z0) / self.span

    @property
    def second_derivative_bound(self):
        return 0.0

    def values_at(self, xs):
        u = self._u(xs)
        return self.z0 * (1.0 - u) + self.z1 * u

    def derivatives_at(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        return np.full(xs.shape, (self.z1 - self.z0) / self.span, dtype=np.complex128)

    def reversed_onto(self, s0, s1):
        return LineSegment(self.z1, self.z0, s0, s1)


def _arc_point(center, semi_re, semi_im, angle) -> complex:
    """c + a cos(angle) + i b sin(angle), with numpy's cos and sin, as on arrays."""
    angle = np.float64(angle)
    return complex(semi_re * np.cos(angle), semi_im * np.sin(angle)) + center


def _parts(re_factor, re_value, im_factor, im_value) -> np.ndarray:
    """re_factor re_value + i im_factor im_value, each product written into
    its part of one complex array."""
    out = np.empty(re_value.shape, dtype=np.complex128)
    np.multiply(re_factor, re_value, out=out.real)
    np.multiply(im_factor, im_value, out=out.imag)
    return out


@dataclass(frozen=True, eq=False)
class ArcSegment(_SegmentBase):
    """Arc of the axis-aligned ellipse c + a cos(theta) + i b sin(theta), with
    semi-axes a = ``semi_re`` and b = ``semi_im`` (``semi_re`` when not given,
    a circular arc); theta is a convex combination of the endpoint angles."""

    center: complex
    semi_re: float
    angle0: float
    angle1: float
    s0: float
    s1: float
    semi_im: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", require_finite_complex(self.center, "center"))
        if self.semi_im is None:
            object.__setattr__(self, "semi_im", self.semi_re)
        for value, name in ((self.semi_re, "semi_re"), (self.semi_im, "semi_im"),
                            (self.angle0, "angle0"), (self.angle1, "angle1")):
            require_finite_real(value, name)
        if not (self.semi_re > 0 and self.semi_im > 0):
            raise ValueError(f"arc semi-axes must be positive, got {self.semi_re}, {self.semi_im}")
        if self.angle0 == self.angle1:
            raise ValueError("arc must sweep a nonzero angle")
        if not self.s0 < self.s1:
            raise ValueError(f"need s0 < s1, got [{self.s0}, {self.s1}]")

    @property
    def radius(self) -> float:
        """A circular arc's radius; an elliptic arc has none."""
        if self.semi_re != self.semi_im:
            raise AttributeError("an elliptic arc has two semi-axes, not a radius")
        return self.semi_re

    def _theta(self, xs):
        u = self._u(xs)
        return self.angle0 * (1.0 - u) + self.angle1 * u

    @property
    def start_value(self):
        return _arc_point(self.center, self.semi_re, self.semi_im, self.angle0)

    @property
    def end_value(self):
        return _arc_point(self.center, self.semi_re, self.semi_im, self.angle1)

    @property
    def sweep_rate(self):
        return (self.angle1 - self.angle0) / self.span

    @property
    def derivative_bound(self):
        return max(self.semi_re, self.semi_im) * abs(self.sweep_rate)

    @property
    def second_derivative_bound(self):
        return max(self.semi_re, self.semi_im) * self.sweep_rate ** 2

    def values_at(self, xs):
        theta = self._theta(xs)
        out = _parts(self.semi_re, np.cos(theta), self.semi_im, np.sin(theta))
        out += self.center
        return out

    def derivatives_at(self, xs):
        theta = self._theta(xs)
        rate = self.sweep_rate
        return _parts(-(self.semi_re * rate), np.sin(theta), self.semi_im * rate, np.cos(theta))

    def reversed_onto(self, s0, s1):
        return ArcSegment(self.center, self.semi_re, self.angle1, self.angle0, s0, s1, self.semi_im)


_Segment = (LineSegment, ArcSegment)


class _ArcArrays(NamedTuple):
    """An all-arc path's ArcSegment fields, one entry per arc.  The
    derivative at theta is re_speed sin(theta) + i im_speed cos(theta), with
    re_speed = -semi_re * sweep_rate and im_speed = semi_im * sweep_rate."""

    center: np.ndarray
    semi_re: np.ndarray
    semi_im: np.ndarray
    angle0: np.ndarray
    angle1: np.ndarray
    s0: np.ndarray
    span: np.ndarray
    re_speed: np.ndarray
    im_speed: np.ndarray


def _arc_arrays(arcs) -> _ArcArrays:
    """The fields of the ``ArcSegment``s ``arcs`` as arrays."""
    return _ArcArrays(*(np.array(column) for column in zip(*(
        (s.center, s.semi_re, s.semi_im, s.angle0, s.angle1, s.s0, s.span,
         -(s.semi_re * s.sweep_rate), s.semi_im * s.sweep_rate) for s in arcs))))


def _check_unit_span(s0: float, s1: float):
    """Refuse a run of spans that does not start at exactly 0 and end at exactly 1."""
    if not (s0 == 0.0 and s1 == 1.0):
        raise ValueError(f"a path's spans must run from 0 to 1, got [{s0!r}, {s1!r}]")


def _check_closures(starts: np.ndarray, ends: np.ndarray):
    """Refuse a closed path whose end is more than float noise from its start."""
    gaps = np.abs(ends - starts)
    scales = np.maximum(1.0, np.maximum(np.abs(starts), np.abs(ends)))
    wide = np.flatnonzero(gaps > _CLOSURE_NOISE * scales)
    if wide.size:
        raise ValueError(f"path declared closed but endpoint gap {gaps[wide[0]]:.3g} "
                         "exceeds float noise")


class PiecewisePath:
    """Finite run of C^1 segments over contiguous parameter spans of [0, 1].

    The spans must run from exactly 0 to exactly 1, and consecutive segments
    must agree bit-exactly at shared breakpoints.  When ``closed`` is set, a
    float-noise gap at the closing point is snapped to the exact start value;
    a larger gap is rejected.  ``lipschitz_bound``, the largest per-segment
    bound on |z'|, is the path's modulus of continuity.
    """

    def __init__(self, segments, closed: bool = False):
        segments = tuple(segments)
        if not segments:
            raise ValueError("need at least one segment")
        for seg in segments:
            if not isinstance(seg, _Segment):
                raise TypeError(f"not a segment: {seg!r}")
        _check_unit_span(segments[0].s0, segments[-1].s1)
        for k, (s, t) in enumerate(zip(segments, segments[1:])):
            if s.s1 != t.s0:
                raise ValueError(f"segments {k} and {k + 1} have non-contiguous spans")
            if s.end_value != t.start_value:
                raise ValueError(
                    f"segments {k} and {k + 1} disagree at breakpoint {s.s1!r}: "
                    f"{s.end_value!r} vs {t.start_value!r}")
        self._segments = segments
        self.closed = bool(closed)
        self._breaks = np.array([s.s0 for s in segments] + [1.0], dtype=np.float64)

        start = segments[0].start_value
        end = segments[-1].end_value
        self._start = start
        if self.closed and end != start:
            _check_closures(np.array([start]), np.array([end]))

        self._first_bounds = np.array([s.derivative_bound for s in segments], dtype=np.float64)
        self._second_bounds = np.array([s.second_derivative_bound for s in segments],
                                       dtype=np.float64)
        self._lipschitz = require_finite_real(self._first_bounds.max(), "Lipschitz constant")
        self._all_lines = all(isinstance(s, LineSegment) for s in segments)
        self._arcs = None
        if self._all_lines:
            self._z0 = np.array([s.z0 for s in segments], dtype=np.complex128)
            self._z1 = np.array([s.z1 for s in segments], dtype=np.complex128)
            self._s0 = np.array([s.s0 for s in segments], dtype=np.float64)
            self._span = np.array([s.span for s in segments], dtype=np.float64)
        elif all(isinstance(s, ArcSegment) for s in segments):
            self._arcs = _arc_arrays(segments)

    @classmethod
    def from_vertices(cls, vertices: np.ndarray, breakpoints: np.ndarray,
                      closed: bool = False) -> "PiecewisePath":
        """Polyline through ``vertices`` at ``breakpoints``, without building
        per-segment objects up front (they materialize lazily on demand)."""
        rows = np.asarray(vertices, dtype=np.complex128).ravel()[None, :]
        return cls.from_vertex_rows(rows, breakpoints, closed)[0]

    @classmethod
    def from_vertex_rows(cls, rows: np.ndarray, breakpoints: np.ndarray,
                         closed: bool = False) -> list["PiecewisePath"]:
        """One polyline per row of the (k, m+1) array ``rows``, all through
        their vertices at the same ``breakpoints``.

        The array is validated once for all rows, and each polyline views its
        row of one copy of it.
        """
        verts = np.array(rows, dtype=np.complex128)
        breaks = np.asarray(breakpoints, dtype=np.float64).ravel().copy()
        if verts.ndim != 2 or verts.shape[1] != breaks.size or breaks.size < 2:
            raise ValueError("need matching vertex/breakpoint arrays with at least two entries")
        if not np.isfinite(verts).all():
            raise ValueError("polyline vertices must be finite")
        spans = np.diff(breaks)
        if not np.all(spans > 0):
            raise ValueError("breakpoints must be strictly increasing")
        _check_unit_span(breaks[0], breaks[-1])
        if closed:
            _check_closures(verts[:, 0], verts[:, -1])
        with np.errstate(over="ignore"):  # a non-finite bound is refused below
            first = np.abs(np.diff(verts, axis=1)) / spans
        lipschitz_bounds = first.max(axis=1)
        if not np.isfinite(lipschitz_bounds).all():
            raise ValueError("Lipschitz constant must be finite")
        shared = {"_segments": None, "closed": bool(closed), "_breaks": breaks,
                  "_s0": breaks[:-1], "_span": spans, "_second_bounds": np.zeros(spans.size),
                  "_all_lines": True, "_arcs": None}
        paths = []
        columns = (verts[:, :-1], verts[:, 1:], verts[:, 0].tolist(), first, lipschitz_bounds.tolist())
        for z0, z1, start, bounds, lipschitz in zip(*columns):
            self = cls.__new__(cls)
            fields = self.__dict__
            fields.update(shared)
            fields["_z0"], fields["_z1"], fields["_start"] = z0, z1, start
            fields["_first_bounds"], fields["_lipschitz"] = bounds, lipschitz
            paths.append(self)
        return paths

    @classmethod
    def _closed_arcs(cls, center: complex, semi_re: float, semi_im: float, angles: list,
                     breakpoints: np.ndarray) -> "PiecewisePath":
        """Closed run of arcs of one ellipse, the k-th from ``angles[k]`` to
        ``angles[k + 1]`` over the k-th span of ``breakpoints``: the path
        ``PiecewisePath(..., closed=True)`` builds from those ``ArcSegment``s,
        field for field, without building them (they materialize lazily).
        The breakpoints must run from 0 to 1, the semi-axes be positive, all
        finite, consecutive angles distinct."""
        breaks = np.array(breakpoints, dtype=np.float64)
        # five-entry loops run faster on floats than as arrays, to the same bits
        b, angles = breaks.tolist(), [float(angle) for angle in angles]
        spans = [s1 - s0 for s0, s1 in zip(b, b[1:])]
        for k, span in enumerate(spans):
            if not span > 0:
                raise ValueError(f"need s0 < s1, got [{breaks[k]}, {breaks[k + 1]}]")
        sweep_rates = [(a1 - a0) / span for a0, a1, span in zip(angles, angles[1:], spans)]
        reach = max(semi_re, semi_im)
        first = [reach * abs(rate) for rate in sweep_rates]
        start, end = (_arc_point(center, semi_re, semi_im, angle)
                      for angle in (angles[0], angles[-1]))
        # _check_closures' own test, in scalars (abs takes hypot, as numpy's
        # does), so that it runs only to raise
        if abs(end - start) > _CLOSURE_NOISE * max(1.0, abs(start), abs(end)):
            _check_closures(np.array([start]), np.array([end]))
        n, rates = len(spans), np.array(sweep_rates)
        self = cls.__new__(cls)
        self.__dict__.update({
            "_segments": None, "closed": True, "_breaks": breaks, "_start": start,
            "_first_bounds": np.array(first),
            "_second_bounds": np.array([reach * rate ** 2 for rate in sweep_rates]),
            "_lipschitz": require_finite_real(max(first), "Lipschitz constant"),
            "_all_lines": False,
            "_arcs": _ArcArrays(np.full(n, center), np.full(n, semi_re), np.full(n, semi_im),
                                np.array(angles[:-1]), np.array(angles[1:]), breaks[:-1],
                                np.array(spans), -(semi_re * rates), semi_im * rates)})
        return self

    @property
    def segments(self) -> tuple:
        if self._segments is None:
            b = self._breaks
            if self._arcs is None:
                self._segments = tuple(LineSegment(self._z0[k], self._z1[k], b[k], b[k + 1])
                                       for k in range(len(self._z0)))
            else:
                arcs = self._arcs
                self._segments = tuple(
                    ArcSegment(arcs.center[k], arcs.semi_re[k], arcs.angle0[k], arcs.angle1[k],
                               b[k], b[k + 1], arcs.semi_im[k]) for k in range(b.size - 1))
        return self._segments

    @property
    def num_segments(self) -> int:
        return len(self._breaks) - 1

    @property
    def is_closed(self) -> bool:
        return self.closed

    @property
    def lipschitz_bound(self) -> float:
        """Largest per-segment bound on |z'|: |z(x) - z(x')| <= L |x - x'|."""
        return self._lipschitz

    @property
    def breakpoints(self) -> np.ndarray:
        return self._breaks

    @property
    def derivative_bounds(self) -> np.ndarray:
        """Per-segment bound on |z'|."""
        return self._first_bounds

    @property
    def second_derivative_bounds(self) -> np.ndarray:
        """Per-segment bound on |z''|."""
        return self._second_bounds

    def vertices(self) -> np.ndarray:
        """Values at the breakpoints, including the (snapped) closing point."""
        if self._all_lines:
            end = self._start if self.closed else complex(self._z1[-1])
            return np.concatenate([self._z0, [end]])
        vals = [s.start_value for s in self.segments]
        vals.append(self._start if self.closed else self.segments[-1].end_value)
        return np.array(vals, dtype=np.complex128)

    def _check_range(self, xs: np.ndarray):
        if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
            raise ValueError("parameter outside [0, 1]")

    def _segment_indices(self, xs):
        """Index of the segment holding each x in [0, 1]; 1 belongs to the last."""
        return np.searchsorted(self._breaks[1:-1], xs, side="right")

    def _arc_values(self, xs):
        """Values at ``xs``, theta as ArcSegment forms it, with the segment
        indices and cos(theta), sin(theta) there."""
        arcs = self._arcs
        idx = self._segment_indices(xs)
        u = (xs - arcs.s0[idx]) / arcs.span[idx]
        theta = arcs.angle0[idx] * (1.0 - u) + arcs.angle1[idx] * u
        cos, sin = np.cos(theta), np.sin(theta)
        out = _parts(arcs.semi_re[idx], cos, arcs.semi_im[idx], sin)
        out += arcs.center[idx]
        return out, idx, cos, sin

    def values(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        self._check_range(xs)
        if self._all_lines:
            idx = self._segment_indices(xs)
            u = (xs - self._s0[idx]) / self._span[idx]
            out = self._z0[idx] * (1.0 - u) + self._z1[idx] * u
        elif self._arcs is not None:
            out = self._arc_values(xs)[0]
        else:  # lines and arcs mixed
            return self.eval_with_derivative(xs)[0]
        if self.closed:
            out[xs == 1.0] = self._start
        return out

    def value(self, x: float) -> complex:
        return complex(self.values(np.array([float(x)], dtype=np.float64))[0])

    def eval_with_derivative(self, xs):
        """Values and one-sided derivatives, vectorized; breakpoints take the
        right-hand segment's derivative."""
        xs = np.asarray(xs, dtype=np.float64)
        self._check_range(xs)
        if self._all_lines:
            idx = self._segment_indices(xs)
            u = (xs - self._s0[idx]) / self._span[idx]
            vals = self._z0[idx] * (1.0 - u) + self._z1[idx] * u
            ders = (self._z1[idx] - self._z0[idx]) / self._span[idx]
        elif self._arcs is not None:
            vals, idx, cos, sin = self._arc_values(xs)
            ders = _parts(self._arcs.re_speed[idx], sin, self._arcs.im_speed[idx], cos)
        else:
            idx = self._segment_indices(xs)
            vals = np.empty(xs.shape, dtype=np.complex128)
            ders = np.empty(xs.shape, dtype=np.complex128)
            for k, seg in enumerate(self.segments):
                mask = idx == k
                if mask.any():
                    vals[mask] = seg.values_at(xs[mask])
                    ders[mask] = seg.derivatives_at(xs[mask])
        if self.closed:
            vals[xs == 1.0] = self._start
        return vals, ders

    def reverse(self) -> "PiecewisePath":
        """Same carrier, opposite orientation: x maps to 1 - x, which keeps
        the ends 0 and 1 exact."""
        b = (1.0 - self._breaks[::-1]).tolist()
        segs = [seg.reversed_onto(s0, s1) for seg, s0, s1 in zip(reversed(self.segments), b, b[1:])]
        return PiecewisePath(segs, closed=self.closed)


# ---------------------------------------------------------------------------
# Built-in closed paths
# ---------------------------------------------------------------------------

def _uniform_breaks(n):
    return np.arange(n + 1) / n


def circle(center: complex = 0j, radius: float = 1.0) -> PiecewisePath:
    """Counterclockwise circle as four quarter arcs."""
    center = require_finite_complex(center, "center")
    if not require_finite_real(radius, "radius") > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    angles = [k * (math.pi / 2) for k in range(5)]
    return PiecewisePath._closed_arcs(center, radius, radius, angles, _uniform_breaks(4))


def ellipse(semi_re: float, semi_im: float, center: complex = 0j) -> PiecewisePath:
    """Counterclockwise axis-aligned ellipse as one arc from angle 0 to 2 pi."""
    center = require_finite_complex(center, "center")
    semi_re, semi_im = require_finite_real(semi_re, "semi_re"), require_finite_real(semi_im, "semi_im")
    if not (semi_re > 0 and semi_im > 0):
        raise ValueError("semi-axes must be positive")
    return PiecewisePath._closed_arcs(center, semi_re, semi_im, [0.0, 2 * math.pi],
                                      _uniform_breaks(1))


def polyline(vertices, closed: bool = True) -> PiecewisePath:
    """Polyline through the given vertices; when closed, the first vertex is
    reused as the final one so the closing point is bit-exact."""
    verts = [require_finite_complex(v, "vertex") for v in vertices]
    if closed and len(verts) >= 1 and (len(verts) < 2 or verts[-1] != verts[0]):
        verts = verts + [verts[0]]
    if len(verts) < 2:
        raise ValueError("polyline needs at least two vertices")
    breaks = _uniform_breaks(len(verts) - 1)
    return PiecewisePath.from_vertices(np.array(verts, dtype=np.complex128), breaks, closed=closed)


def square(side: float, center: complex = 0j) -> PiecewisePath:
    """Counterclockwise axis-aligned square of the given side length."""
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    h = side / 2
    corners = [center + complex(h, h), center + complex(-h, h),
               center + complex(-h, -h), center + complex(h, -h)]
    return polyline(corners, closed=True)


def constant_path(point: complex) -> PiecewisePath:
    point = require_finite_complex(point, "point")
    return PiecewisePath([LineSegment(point, point, 0.0, 1.0)], closed=True)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _step(eps: float, lipschitz: float) -> float:
    """eps / L: parameter points this close map within eps on an L-Lipschitz
    path; on a constant path (L = 0) every step does."""
    return eps / lipschitz if lipschitz else math.inf


def _sample_grid(delta: float) -> np.ndarray:
    """[0, 1] in equal steps no wider than ``delta``."""
    steps = 1.0 / min(delta, 1.0)  # compared before ceil, which refuses inf
    if steps > _MAX_SAMPLES:
        raise ValueError(f"sampling grid of {steps:.3g} steps exceeds the budget; "
                         "Lipschitz bound too large for the requested accuracy")
    steps = max(1, math.ceil(steps))
    return np.arange(steps + 1) / steps


def carrier_of_path(path: PiecewisePath, eta: float) -> CompactCarrier:
    """Eta-net of the closure of the path's range.

    Samples at parameter steps no wider than eta / L for the path's Lipschitz
    bound L, so every point of the curve is within eta of a sample, and every
    sample sits on the curve.
    """
    eta = require_finite_real(eta, "eta")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    xs = _sample_grid(_step(eta, path.lipschitz_bound))
    return CompactCarrier(path.values(xs), eta)


def certified_clearance(path: PiecewisePath, points) -> float:
    """Certified lower bound on the distance from the carrier to the nearest
    of ``points`` (+inf for none), in closed form for every path: exact up to
    rounding for lines (projection clamped to each segment), and for an arc
    of an ellipse with semi-axes a and b the distance from the unit arc of
    the point mapped by diag(1/a, 1/b), times min(a, b) (``_arc_clearance``).
    """
    return float(certified_clearances([path], points)[0])


def certified_clearances(paths, points) -> np.ndarray:
    """``certified_clearance`` of each path.  The line paths' segments
    (every interior chain member, squares, polylines, constants) are stacked
    and measured in one call (``_Members.clearances``); each path keeps its
    own rounding allowance, relative to the larger of its own largest
    |vertex| and the points' largest modulus.  A non-finite point is
    refused."""
    return _Members(tuple(paths)).clearances(points)


# no interior rows, as in the member table of a lone path
_NO_ROWS = np.empty((0, 2), dtype=np.complex128)


class _Members:
    """A run of members, in order: the paths ``head``, the closed
    polylines through the rows of ``rows`` at the shared ``breaks`` (a
    chain's interior members), and the paths ``tail``.  ``given`` lists
    (index, path) for every member given as a path.

    A row's line fields are read from the array, the same values in the
    same order as a ``PiecewisePath.from_vertex_rows`` view of it holds, and
    a row becomes such a view only where a path is needed (``path``).
    """

    def __init__(self, head: tuple, rows: np.ndarray = _NO_ROWS, breaks=None, tail=()):
        self.head, self.rows, self.breaks, self.tail = head, rows, breaks, tail
        self.count = len(head) + len(rows) + len(tail)
        self.given = [*enumerate(head), *enumerate(tail, len(head) + len(rows))]

    def __len__(self) -> int:
        return self.count

    def window(self, start: int, stop: int) -> "_Members":
        """Members ``start`` up to ``stop``."""
        if start == 0 and stop == self.count:
            return self
        h, k = len(self.head), len(self.rows)
        return _Members(self.head[start:stop], self.rows[max(0, start - h):max(0, stop - h)],
                        self.breaks, self.tail[max(0, start - h - k):max(0, stop - h - k)])

    def path(self, m: int) -> PiecewisePath:
        """Member m as a path, for a row a view of it made now."""
        h, k = len(self.head), len(self.rows)
        if h <= m < h + k:
            return PiecewisePath.from_vertex_rows(self.rows[m - h:m - h + 1], self.breaks,
                                                  closed=True)[0]
        return dict(self.given)[m]

    @functools.cached_property
    def lines(self):
        """(ids, breaks, fields) of the line members: their indices and
        breakpoints, in order, and their segments' (z0, z1, s0, span)
        stacked in that order, None for no line member."""
        h, k = len(self.head), len(self.rows)
        lines = [(m, path) for m, path in self.given if path._all_lines]
        ids = [m for m, _ in lines]
        breaks = [path.breakpoints for _, path in lines]
        fields = [(path._z0, path._z1, path._s0, path._span) for _, path in lines]
        if k:
            at = sum(m < h for m in ids)  # the rows' place among them
            ids[at:at] = range(h, h + k)
            breaks[at:at] = [self.breaks] * k
            fields.insert(at, (self.rows[:, :-1].ravel(), self.rows[:, 1:].ravel(),
                               np.tile(self.breaks[:-1], k), np.tile(np.diff(self.breaks), k)))
        return ids, breaks, [_joined(list(column)) for column in zip(*fields)] if ids else None

    def clearances(self, points) -> np.ndarray:
        """``certified_clearance`` of every member from ``points``, the line
        members' from one ``polyline_clearances`` call over their stacked
        segments (``lines``) against the plane less the points."""
        pts = np.asarray(points, dtype=np.complex128).ravel()
        if not np.isfinite(pts).all():
            raise ValueError(f"points must be finite, got {pts[~np.isfinite(pts)][0]!r}")
        out = np.full(self.count, math.inf)
        if pts.size == 0:
            return out

        def measured(z0, z1, starts):
            plane = PuncturedPlane(tuple(dict.fromkeys(pts.tolist())))  # it refuses repeats
            # fmax: nan, past the float range, is clearance 0
            return np.fmax(0.0, polyline_clearances(z0, z1, starts, plane, _POLYLINE_ROUNDING))

        ids, breaks, fields = self.lines
        if ids:
            starts = list(accumulate((b.size - 1 for b in breaks[:-1]), initial=0))
            out[ids] = measured(*fields[:2], starts)
        for m, path in self.given:
            if path._arcs is not None:
                out[m] = _arc_clearance(path._arcs, pts)
            elif not path._all_lines:  # lines and arcs mixed: the smaller closed form
                chords = np.array([(s.z0, s.z1) for s in path.segments
                                   if isinstance(s, LineSegment)])
                arcs = _arc_arrays([s for s in path.segments if isinstance(s, ArcSegment)])
                out[m] = min(measured(chords[:, 0], chords[:, 1], [0])[0],
                             _arc_clearance(arcs, pts))
        return out


def _joined(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _arc_clearance(arcs: _ArcArrays, pts: np.ndarray) -> float:
    """Lower bound on the distance from the arcs to the nearest point.

    An arc is c + A u(theta) for A = diag(a, b) and u on the unit arc between
    its angles.  With q = A^-1 (p - c), |p - z| = |A (q - u)| >= min(a, b)
    |q - u|, so min(a, b) times the unit arc's distance d(q) is a lower
    bound, and for a circle the distance itself: d(q) is ||q| - 1| when q's
    angle lies in the sweep, else the nearer end's distance.

    Rounding, with u = eps/2, S the larger of max(|c| + max(a, b)) and the
    points' largest modulus, m = min(a, b), and libm's atan2 within 2 ulps:
    q is within 2.01u|q| of its value.  The sweep test is widened by
    16 eps (1 + |angle0| + |angle1|) on both sides, more than the 30u +
    4u (|angle0| + |angle1|) by which q's error, atan2, the two sums, the
    reduction by a rounded 2 pi and the rounded sweep move the angle.  So an
    end's distance is taken only where it is d(q), and the widened test
    takes ||q| - 1| <= d(q) elsewhere.  Both forms are 1-Lipschitz in q,
    so with |q|, the rounded ends and the subtractions the unit distance
    exceeds d(q) by at most 5.01u|q| + 5u.  Since m|q| <= |p - c| <= 2S and
    m <= S, the product with m, rounded once, exceeds the bound by at most
    18.1u S, within the 16 eps S subtracted here (clamped at 0).
    """
    q = _unit_frame(arcs, pts)
    angle0, angle1 = arcs.angle0[:, None], arcs.angle1[:, None]
    slack = _POLYLINE_ROUNDING * (1 + np.abs(angle0) + np.abs(angle1))
    swept = (np.mod(np.angle(q) - np.minimum(angle0, angle1) + slack, 2 * math.pi)
             <= np.abs(angle1 - angle0) + 2 * slack)
    ends = np.minimum(*(np.abs(q - np.exp(1j * angle)) for angle in (angle0, angle1)))
    dist = np.where(swept, np.abs(np.abs(q) - 1.0), ends).min(axis=1)
    scale = max((np.abs(arcs.center) + np.maximum(arcs.semi_re, arcs.semi_im)).max(),
                np.abs(pts).max())
    return float(max(0.0, (np.minimum(arcs.semi_re, arcs.semi_im) * dist).min()
                     - _POLYLINE_ROUNDING * scale))


def _unit_frame(arcs: _ArcArrays, pts: np.ndarray) -> np.ndarray:
    """q = A^-1 (p - c) for every arc (rows) and point (columns): the points
    in the frame where each arc lies on the unit circle."""
    rel = pts - arcs.center[:, None]
    q = np.empty(rel.shape, dtype=np.complex128)
    np.divide(rel.real, arcs.semi_re[:, None], out=q.real)
    np.divide(rel.imag, arcs.semi_im[:, None], out=q.imag)
    return q


def nearest_parameters(path: PiecewisePath, points):
    """(x, d), each with one row per segment and one column per point: the
    parameter x of the segment's point nearest to the point, and the
    distance d between them; None for a path that mixes lines and arcs.

    On a line x is the projection clamped to the segment that every segment
    distance takes.  On an arc it is the angle of q = A^-1 (p - c), as
    ``_arc_clearance`` maps the point, clamped into the sweep at the nearer
    end; for a circle that point is the nearest one, for an ellipse a point
    near it, and d is its distance.  Neither is a certified bound."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    breaks = path.breakpoints
    s0, span = breaks[:-1, None], (breaks[1:] - breaks[:-1])[:, None]
    if path._all_lines:
        a, step = path._z0[:, None], (path._z1 - path._z0)[:, None]
        u = _segment_projections(a, step, pts)
        foot = a + u * step
    elif path._arcs is not None:
        arcs = path._arcs
        angle0, angle1 = arcs.angle0[:, None], arcs.angle1[:, None]
        low, sweep = np.minimum(angle0, angle1), np.abs(angle1 - angle0)
        turn = np.mod(np.angle(_unit_frame(arcs, pts)) - low, 2 * math.pi)
        turn = np.where(turn <= sweep, turn, np.where(turn - sweep < 2 * math.pi - turn, sweep, 0.0))
        theta = low + turn
        u = (theta - angle0) / (angle1 - angle0)
        foot = _parts(arcs.semi_re[:, None], np.cos(theta), arcs.semi_im[:, None], np.sin(theta))
        foot += arcs.center[:, None]
    else:
        return None
    return s0 + u * span, np.abs(pts - foot)


def sup_distance(p: PiecewisePath, q: PiecewisePath, tol: float) -> Bounds:
    """Certified bounds on sup |p - q| over [0, 1].

    Samples at steps no wider than tol / max(Lp, Lq), so each path moves by
    at most tol between samples.  The sampled maximum is a true lower bound;
    adding 2 tol gives a rigorous upper bound, so ``hi - lo = 2 tol``.
    """
    tol = require_finite_real(tol, "tol")
    if tol <= 0:
        raise InvalidEpsilon(f"tol must be positive, got {tol}")
    xs = _sample_grid(_step(tol, max(p.lipschitz_bound, q.lipschitz_bound)))
    lo = float(np.abs(p.values(xs) - q.values(xs)).max())
    return Bounds(lo, lo + 2 * tol)


def polyline_sup_distance(p: PiecewisePath, q: PiecewisePath) -> Bounds:
    """Bounds on sup |p - q| for two polylines, exact up to rounding.

    Both are affine between consecutive points of the union of their
    breakpoints, so |p - q| is convex there and its sup is the maximum over
    that union: ``_consecutive_gaps`` of the two paths' values there.
    """
    if not (isinstance(p, PiecewisePath) and isinstance(q, PiecewisePath)
            and p._all_lines and q._all_lines):
        raise TypeError("the exact distance needs two polylines")
    xs = np.union1d(p.breakpoints, q.breakpoints)
    return Bounds.from_arrays(*_consecutive_gaps(np.stack([p.values(xs), q.values(xs)])))[0]


def _consecutive_gaps(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (lo, hi) enclosing the sup-distance of each pair of consecutive
    rows of the (k, m+1) array ``rows``, polylines through their values on
    one partition: the largest |row j - row j+1|, widened on both sides by
    the rounding allowance at the larger of the two rows' largest |value|.
    Evaluating the rows rounds by less than ``_POLYLINE_ROUNDING`` times
    that.  Unchecked; ``Bounds.from_arrays`` checks them."""
    rows = np.asarray(rows, dtype=np.complex128)
    reach = np.abs(rows).max(axis=1)
    exact = np.abs(np.diff(rows, axis=0)).max(axis=1)
    slack = _POLYLINE_ROUNDING * np.maximum(reach[:-1], reach[1:])
    return np.maximum(0.0, exact - slack), exact + slack
