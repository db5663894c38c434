"""Piecewise-differentiable paths, each with its Lipschitz bound.

A path is a finite run of continuously differentiable segments (lines, arcs,
smooth parametric pieces) over contiguous spans of a compact parameter
interval [a, b].  Every segment carries a bound on |z'|, and the largest of
them, ``lipschitz_bound`` L, is the path's modulus of continuity as explicit
data: parameter points closer than eps / L map to values closer than eps,
and for L = 0 (a constant path) every step qualifies.  Sampling grids,
eta-nets and sup-distance bounds all read that one number.

Endpoint equality of closed paths is enforced by construction: evaluating a
closed path at the right end of its interval returns the bit-exact left-end
value, so no closedness tolerance exists anywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import InvalidEpsilon, MismatchedDomains
from .geometry import Bounds, CompactCarrier, require_finite_complex, require_finite_real
from .geometry import _segment_point_distances

__all__ = [
    "LineSegment",
    "ArcSegment",
    "SmoothSegment",
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
    "reparametrize_to_unit",
]

_MAX_SAMPLES = 10_000_000

# Endpoint gap this small (relative to value scale) is float noise from a
# mathematically closed formula; anything larger is a genuinely open path.
_CLOSURE_NOISE = 1e-12

# Rounding allowance of the closed-form distances, relative to the largest
# magnitude: a projected point, the difference and its modulus stay below 10 ulps.
_POLYLINE_ROUNDING = 16 * np.finfo(np.float64).eps
_MAX_CLEARANCE_NET = 200_000


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

    def with_span(self, s0, s1):
        return LineSegment(self.z0, self.z1, s0, s1)

    def reversed_onto(self, s0, s1):
        return LineSegment(self.z1, self.z0, s0, s1)


def _arc_point(center, radius, theta):
    return center + radius * (np.cos(theta) + 1j * np.sin(theta))


@dataclass(frozen=True, eq=False)
class ArcSegment(_SegmentBase):
    """Circular arc; the angle is a convex combination of the endpoint angles."""

    center: complex
    radius: float
    angle0: float
    angle1: float
    s0: float
    s1: float

    def __post_init__(self):
        object.__setattr__(self, "center", require_finite_complex(self.center, "center"))
        require_finite_real(self.radius, "radius")
        require_finite_real(self.angle0, "angle0")
        require_finite_real(self.angle1, "angle1")
        if self.radius <= 0:
            raise ValueError(f"arc radius must be positive, got {self.radius}")
        if self.angle0 == self.angle1:
            raise ValueError("arc must sweep a nonzero angle")
        if not self.s0 < self.s1:
            raise ValueError(f"need s0 < s1, got [{self.s0}, {self.s1}]")

    def _theta(self, xs):
        u = self._u(xs)
        return self.angle0 * (1.0 - u) + self.angle1 * u

    def _point(self, theta):
        return _arc_point(self.center, self.radius, theta)

    @property
    def start_value(self):
        return complex(self._point(np.float64(self.angle0)))

    @property
    def end_value(self):
        return complex(self._point(np.float64(self.angle1)))

    @property
    def sweep_rate(self):
        return (self.angle1 - self.angle0) / self.span

    @property
    def derivative_bound(self):
        return self.radius * abs(self.sweep_rate)

    @property
    def second_derivative_bound(self):
        return self.radius * self.sweep_rate ** 2

    def values_at(self, xs):
        return self._point(self._theta(xs))

    def derivatives_at(self, xs):
        theta = self._theta(xs)
        return 1j * self.radius * self.sweep_rate * (np.cos(theta) + 1j * np.sin(theta))

    def with_span(self, s0, s1):
        return ArcSegment(self.center, self.radius, self.angle0, self.angle1, s0, s1)

    def reversed_onto(self, s0, s1):
        return ArcSegment(self.center, self.radius, self.angle1, self.angle0, s0, s1)


@dataclass(frozen=True, eq=False)
class SmoothSegment(_SegmentBase):
    """Continuously differentiable piece given by explicit evaluators.

    Both callables must accept numpy arrays of global parameter values in
    [s0, s1]; ``derivative_bound`` must dominate |derivative| on the span.
    ``second_derivative_bound``, when given, must dominate the second
    derivative on the span, which must then be C^2.
    """

    evaluator: object
    derivative: object
    derivative_bound: float
    s0: float
    s1: float
    second_derivative_bound: float | None = None

    def __post_init__(self):
        for bound, name in ((self.derivative_bound, "derivative_bound"),
                            (self.second_derivative_bound, "second_derivative_bound")):
            if bound is not None and require_finite_real(bound, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.s0 < self.s1:
            raise ValueError(f"need s0 < s1, got [{self.s0}, {self.s1}]")

    @property
    def start_value(self):
        return complex(np.asarray(self.evaluator(np.array([self.s0])), dtype=np.complex128).ravel()[0])

    @property
    def end_value(self):
        return complex(np.asarray(self.evaluator(np.array([self.s1])), dtype=np.complex128).ravel()[0])

    def values_at(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        return np.asarray(self.evaluator(xs), dtype=np.complex128).reshape(xs.shape)

    def derivatives_at(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        return np.asarray(self.derivative(xs), dtype=np.complex128).reshape(xs.shape)

    def with_span(self, s0, s1):
        scale = self.span / (s1 - s0)
        old_s0 = self.s0
        ev, der = self.evaluator, self.derivative

        def new_ev(xs):
            return ev(old_s0 + (np.asarray(xs, dtype=np.float64) - s0) * scale)

        def new_der(xs):
            return der(old_s0 + (np.asarray(xs, dtype=np.float64) - s0) * scale) * scale

        return SmoothSegment(new_ev, new_der, self.derivative_bound * scale, s0, s1,
                             self._second_bound_scaled(scale))

    def reversed_onto(self, s0, s1):
        scale = self.span / (s1 - s0)
        old_s1 = self.s1
        ev, der = self.evaluator, self.derivative

        def new_ev(xs):
            return ev(old_s1 - (np.asarray(xs, dtype=np.float64) - s0) * scale)

        def new_der(xs):
            return -der(old_s1 - (np.asarray(xs, dtype=np.float64) - s0) * scale) * scale

        return SmoothSegment(new_ev, new_der, self.derivative_bound * scale, s0, s1,
                             self._second_bound_scaled(scale))

    def _second_bound_scaled(self, scale):
        bound = self.second_derivative_bound
        return None if bound is None else bound * scale * scale


_Segment = (LineSegment, ArcSegment, SmoothSegment)


class _ArcArrays(NamedTuple):
    """An all-arc path's ArcSegment fields, one entry per arc; ``speed`` is
    the derivative factor i*radius*sweep_rate formed as ``derivatives_at`` forms it."""

    center: np.ndarray
    radius: np.ndarray
    angle0: np.ndarray
    angle1: np.ndarray
    s0: np.ndarray
    span: np.ndarray
    speed: np.ndarray


def _check_closures(starts: np.ndarray, ends: np.ndarray):
    """Refuse a closed path whose end is more than float noise from its start."""
    gaps = np.abs(ends - starts)
    scales = np.maximum(1.0, np.maximum(np.abs(starts), np.abs(ends)))
    wide = np.flatnonzero(gaps > _CLOSURE_NOISE * scales)
    if wide.size:
        raise ValueError(f"path declared closed but endpoint gap {gaps[wide[0]]:.3g} "
                         "exceeds float noise")


class PiecewisePath:
    """Finite run of C^1 segments over contiguous parameter spans [a, b].

    Consecutive segments must agree bit-exactly at shared breakpoints.  When
    ``closed`` is set, a float-noise gap at the closing point is snapped to the
    exact start value; a larger gap is rejected.  ``lipschitz_bound``, the
    largest per-segment bound on |z'|, is the path's modulus of continuity.
    """

    def __init__(self, segments, closed: bool = False):
        segments = tuple(segments)
        if not segments:
            raise ValueError("need at least one segment")
        for seg in segments:
            if not isinstance(seg, _Segment):
                raise TypeError(f"not a segment: {seg!r}")
        for k, (s, t) in enumerate(zip(segments, segments[1:])):
            if s.s1 != t.s0:
                raise ValueError(f"segments {k} and {k + 1} have non-contiguous spans")
            if s.end_value != t.start_value:
                raise ValueError(
                    f"segments {k} and {k + 1} disagree at breakpoint {s.s1!r}: "
                    f"{s.end_value!r} vs {t.start_value!r}")
        self._segments = segments
        self.closed = bool(closed)
        self._a = segments[0].s0
        self._b = segments[-1].s1
        self._breaks = np.array([s.s0 for s in segments] + [self._b], dtype=np.float64)

        start = segments[0].start_value
        end = segments[-1].end_value
        self._start = start
        if self.closed and end != start:
            _check_closures(np.array([start]), np.array([end]))

        second = [s.second_derivative_bound for s in segments]
        self._first_bounds = np.array([s.derivative_bound for s in segments], dtype=np.float64)
        self._second_bounds = None if None in second else np.array(second, dtype=np.float64)
        self._lipschitz = require_finite_real(self._first_bounds.max(), "Lipschitz constant")
        self._all_lines = all(isinstance(s, LineSegment) for s in segments)
        self._arcs = None
        if self._all_lines:
            self._z0 = np.array([s.z0 for s in segments], dtype=np.complex128)
            self._z1 = np.array([s.z1 for s in segments], dtype=np.complex128)
            self._s0 = np.array([s.s0 for s in segments], dtype=np.float64)
            self._span = np.array([s.span for s in segments], dtype=np.float64)
        elif all(isinstance(s, ArcSegment) for s in segments):
            self._arcs = _ArcArrays(*(np.array(column) for column in zip(*(
                (s.center, s.radius, s.angle0, s.angle1, s.s0, s.span,
                 1j * s.radius * s.sweep_rate) for s in segments))))

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
        if closed:
            _check_closures(verts[:, 0], verts[:, -1])
        first = np.abs(np.diff(verts, axis=1)) / spans
        lipschitz_bounds = first.max(axis=1)
        if not np.isfinite(lipschitz_bounds).all():
            raise ValueError("Lipschitz constant must be finite")
        shared = {"_segments": None, "closed": bool(closed),
                  "_a": float(breaks[0]), "_b": float(breaks[-1]), "_breaks": breaks,
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
    def _closed_arcs(cls, center: complex, radius: float, angles: list,
                     breakpoints: np.ndarray) -> "PiecewisePath":
        """Closed run of arcs about one center, the k-th from ``angles[k]`` to
        ``angles[k + 1]`` over the k-th span of ``breakpoints``: the path
        ``PiecewisePath(..., closed=True)`` builds from those ``ArcSegment``s,
        field for field, without building them up front (they materialize
        lazily on demand).  ``center`` must be finite, ``radius`` positive and
        consecutive angles distinct."""
        radius = require_finite_real(radius, "radius")
        breaks = np.array(breakpoints, dtype=np.float64)
        # five-entry loops run faster on floats than as arrays, to the same bits
        b, angles = breaks.tolist(), [float(angle) for angle in angles]
        spans = [s1 - s0 for s0, s1 in zip(b, b[1:])]
        for k, span in enumerate(spans):
            if not span > 0:
                raise ValueError(f"need s0 < s1, got [{breaks[k]}, {breaks[k + 1]}]")
        sweep_rates = [(a1 - a0) / span for a0, a1, span in zip(angles, angles[1:], spans)]
        first = [radius * abs(rate) for rate in sweep_rates]
        start, end = (complex(_arc_point(center, radius, np.float64(angle)))
                      for angle in (angles[0], angles[-1]))
        if end != start:
            _check_closures(np.array([start]), np.array([end]))
        n = len(spans)
        self = cls.__new__(cls)
        self.__dict__.update({
            "_segments": None, "closed": True, "_a": breaks[0], "_b": breaks[-1],
            "_breaks": breaks, "_start": start, "_first_bounds": np.array(first),
            "_second_bounds": np.array([radius * rate ** 2 for rate in sweep_rates]),
            "_lipschitz": require_finite_real(max(first), "Lipschitz constant"),
            "_all_lines": False,
            "_arcs": _ArcArrays(np.full(n, center), np.full(n, radius), np.array(angles[:-1]),
                                np.array(angles[1:]), breaks[:-1], np.array(spans),
                                1j * radius * np.array(sweep_rates))})
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
                    ArcSegment(arcs.center[k], arcs.radius[k], arcs.angle0[k], arcs.angle1[k],
                               b[k], b[k + 1]) for k in range(b.size - 1))
        return self._segments

    @property
    def a(self) -> float:
        return self._a

    @property
    def b(self) -> float:
        return self._b

    @property
    def interval(self) -> tuple[float, float]:
        return (self._a, self._b)

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
    def second_derivative_bounds(self) -> np.ndarray | None:
        """Per-segment bound on |z''|, or None when some segment carries none."""
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
        if xs.size and (xs.min() < self._a or xs.max() > self._b):
            raise ValueError(f"parameter outside [{self._a}, {self._b}]")

    def _segment_indices(self, xs):
        """Index of the segment holding each x in [a, b]; b belongs to the last."""
        return np.searchsorted(self._breaks[1:-1], xs, side="right")

    def _arc_phase(self, xs):
        """Segment indices of ``xs`` and e^{i theta} there, theta as ArcSegment forms it."""
        arcs = self._arcs
        idx = self._segment_indices(xs)
        u = (xs - arcs.s0[idx]) / arcs.span[idx]
        theta = arcs.angle0[idx] * (1.0 - u) + arcs.angle1[idx] * u
        return idx, np.cos(theta) + 1j * np.sin(theta)

    def values(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        self._check_range(xs)
        if self._all_lines:
            idx = self._segment_indices(xs)
            u = (xs - self._s0[idx]) / self._span[idx]
            out = self._z0[idx] * (1.0 - u) + self._z1[idx] * u
        elif self._arcs is not None:
            idx, phase = self._arc_phase(xs)
            out = self._arcs.center[idx] + self._arcs.radius[idx] * phase
        elif self.num_segments == 1:
            out = np.array(self.segments[0].values_at(xs), dtype=np.complex128)
        else:
            idx = self._segment_indices(xs)
            out = np.empty(xs.shape, dtype=np.complex128)
            for k, seg in enumerate(self.segments):
                mask = idx == k
                if mask.any():
                    out[mask] = seg.values_at(xs[mask])
        if self.closed:
            out[xs == self._b] = self._start
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
            idx, phase = self._arc_phase(xs)
            vals = self._arcs.center[idx] + self._arcs.radius[idx] * phase
            ders = self._arcs.speed[idx] * phase
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
            vals[xs == self._b] = self._start
        return vals, ders

    def reverse(self) -> "PiecewisePath":
        """Same carrier, opposite orientation, same parameter interval: x maps
        to a + b - x, with a and b kept as given."""
        breaks = self._a + self._b - self._breaks[::-1]
        breaks[0], breaks[-1] = self._a, self._b
        b = breaks.tolist()
        segs = [seg.reversed_onto(s0, s1) for seg, s0, s1 in zip(reversed(self.segments), b, b[1:])]
        return PiecewisePath(segs, closed=self.closed)


# ---------------------------------------------------------------------------
# Built-in closed paths
# ---------------------------------------------------------------------------

def _uniform_breaks(interval, n):
    a, b = (require_finite_real(interval[0], "a"), require_finite_real(interval[1], "b"))
    if not a < b:
        raise ValueError(f"need a < b, got {interval}")
    pts = a + (b - a) * np.arange(n + 1) / n
    pts[0], pts[-1] = a, b
    return pts


def circle(center: complex = 0j, radius: float = 1.0, interval=(0.0, 1.0)) -> PiecewisePath:
    """Counterclockwise circle as four quarter arcs."""
    center = require_finite_complex(center, "center")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    angles = [k * (math.pi / 2) for k in range(5)]
    return PiecewisePath._closed_arcs(center, radius, angles, _uniform_breaks(interval, 4))


def ellipse(semi_re: float, semi_im: float, center: complex = 0j, interval=(0.0, 1.0)) -> PiecewisePath:
    """Counterclockwise axis-aligned ellipse as a single smooth segment."""
    center = require_finite_complex(center, "center")
    if semi_re <= 0 or semi_im <= 0:
        raise ValueError("semi-axes must be positive")
    a, b = interval
    breaks = _uniform_breaks(interval, 1)
    span = breaks[1] - breaks[0]
    omega = 2 * math.pi / span

    def ev(xs):
        t = (np.asarray(xs, dtype=np.float64) - a) * omega
        return center + semi_re * np.cos(t) + 1j * semi_im * np.sin(t)

    def der(xs):
        t = (np.asarray(xs, dtype=np.float64) - a) * omega
        return omega * (-semi_re * np.sin(t) + 1j * semi_im * np.cos(t))

    seg = SmoothSegment(ev, der, omega * max(semi_re, semi_im), breaks[0], breaks[1],
                        omega ** 2 * max(semi_re, semi_im))
    return PiecewisePath([seg], closed=True)


def polyline(vertices, closed: bool = True, interval=(0.0, 1.0)) -> PiecewisePath:
    """Polyline through the given vertices; when closed, the first vertex is
    reused as the final one so the closing point is bit-exact."""
    verts = [require_finite_complex(v, "vertex") for v in vertices]
    if closed and len(verts) >= 1 and (len(verts) < 2 or verts[-1] != verts[0]):
        verts = verts + [verts[0]]
    if len(verts) < 2:
        raise ValueError("polyline needs at least two vertices")
    breaks = _uniform_breaks(interval, len(verts) - 1)
    return PiecewisePath.from_vertices(np.array(verts, dtype=np.complex128), breaks, closed=closed)


def square(side: float, center: complex = 0j, interval=(0.0, 1.0)) -> PiecewisePath:
    """Counterclockwise axis-aligned square of the given side length."""
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    h = side / 2
    corners = [center + complex(h, h), center + complex(-h, h),
               center + complex(-h, -h), center + complex(h, -h)]
    return polyline(corners, closed=True, interval=interval)


def constant_path(point: complex, interval=(0.0, 1.0)) -> PiecewisePath:
    point = require_finite_complex(point, "point")
    a, b = interval
    return PiecewisePath([LineSegment(point, point, a, b)], closed=True)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _step(eps: float, lipschitz: float) -> float:
    """eps / L: parameter points this close map within eps on an L-Lipschitz
    path; on a constant path (L = 0) every step does."""
    return eps / lipschitz if lipschitz else math.inf


def _sample_grid(a: float, b: float, delta: float) -> np.ndarray:
    span = float(b - a)
    steps = span / min(delta, span)  # compared before ceil, which refuses inf
    if steps > _MAX_SAMPLES:
        raise ValueError(f"sampling grid of {steps:.3g} steps exceeds the budget; "
                         "Lipschitz bound too large for the requested accuracy")
    steps = max(1, math.ceil(steps))
    xs = a + span * np.arange(steps + 1) / steps
    xs[0], xs[-1] = a, b
    return xs


def carrier_of_path(path: PiecewisePath, eta: float) -> CompactCarrier:
    """Eta-net of the closure of the path's range.

    Samples at parameter steps no wider than eta / L for the path's Lipschitz
    bound L, so every point of the curve is within eta of a sample, and every
    sample sits on the curve.
    """
    eta = require_finite_real(eta, "eta")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    xs = _sample_grid(path.a, path.b, _step(eta, path.lipschitz_bound))
    return CompactCarrier(path.values(xs), eta)


def certified_clearance(path: PiecewisePath, points, required: float) -> float:
    """Certified lower bound on the distance from the carrier to the nearest
    of ``points`` (+inf for none).  Exact up to rounding for lines (projection
    clamped to each segment) and arcs (||p - c| - r| when p's angle lies in
    the sweep, else the nearer end); any other path refines an eta-net until
    the bound clears ``required``, a sample lies within ``required``, or the
    next net would exceed ``_MAX_CLEARANCE_NET`` points.
    """
    return float(certified_clearances([path], points, required)[0])


def certified_clearances(paths, points, required: float) -> np.ndarray:
    """``certified_clearance`` of each path.  The line paths' distances (every
    interior chain member, squares, polylines, constants) come from one
    evaluation over all of their segments; each path keeps its own rounding
    allowance, relative to the larger of its own largest |vertex| and the
    points' largest modulus."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    out = np.full(len(paths), math.inf)
    if pts.size == 0:
        return out
    lines = [k for k, path in enumerate(paths) if path._all_lines]
    if lines:
        members = [paths[k] for k in lines]
        z0 = np.concatenate([path._z0 for path in members])
        z1 = np.concatenate([path._z1 for path in members])
        starts = list(accumulate((path.num_segments for path in members[:-1]), initial=0))
        dist = _segment_point_distances(z0[:, None], z1[:, None], pts).min(axis=1)
        ends = np.array([path._start if path.closed else path._z1[-1] for path in members])
        reach = np.maximum(np.maximum.reduceat(np.abs(z0), starts), np.abs(ends))
        out[lines] = _less_rounding(np.minimum.reduceat(dist, starts), reach, pts)
    for k, path in enumerate(paths):
        if not path._all_lines:
            out[k] = _curved_clearance(path, pts, required)
    return out


def _less_rounding(nearest, reach, pts: np.ndarray):
    """An exact nearest distance less its rounding allowance, relative to the
    larger of the path's reach and the points' largest magnitude."""
    scale = np.maximum(reach, np.abs(pts).max())
    return np.maximum(0.0, nearest - _POLYLINE_ROUNDING * scale)


def _curved_clearance(path: PiecewisePath, pts: np.ndarray, required: float) -> float:
    arcs = path._arcs
    if arcs is not None:
        rel, radius = pts - arcs.center[:, None], arcs.radius[:, None]
        swept = np.mod(np.angle(rel) - np.minimum(arcs.angle0, arcs.angle1)[:, None],
                       2 * math.pi) <= np.abs(arcs.angle1 - arcs.angle0)[:, None]
        ends = np.minimum(*(np.abs(rel - radius * np.exp(1j * a[:, None]))
                            for a in (arcs.angle0, arcs.angle1)))
        dist = np.where(swept, np.abs(np.abs(rel) - radius), ends)
        return _less_rounding(dist.min(), (np.abs(arcs.center) + arcs.radius).max(), pts)
    eta = 0.05 * max(1.0, float(np.abs(path.vertices()).max()))
    while True:
        net = carrier_of_path(path, eta).net
        raw = min(float(np.abs(net - p).min()) for p in pts)
        if (raw - eta > required or raw <= required
                or _step(eta / 4, path.lipschitz_bound) * _MAX_CLEARANCE_NET < path.b - path.a):
            return raw - eta
        eta /= 4


def sup_distance(p: PiecewisePath, q: PiecewisePath, tol: float) -> Bounds:
    """Certified bounds on sup |p - q| over the shared parameter interval.

    Samples at steps no wider than tol / max(Lp, Lq), so each path moves by
    at most tol between samples.  The sampled maximum is a true lower bound;
    adding 2 tol gives a rigorous upper bound, so ``hi - lo = 2 tol``.
    """
    tol = require_finite_real(tol, "tol")
    if tol <= 0:
        raise InvalidEpsilon(f"tol must be positive, got {tol}")
    if p.interval != q.interval:
        raise MismatchedDomains(f"paths live on {p.interval} and {q.interval}")
    xs = _sample_grid(p.a, p.b, _step(tol, max(p.lipschitz_bound, q.lipschitz_bound)))
    lo = float(np.abs(p.values(xs) - q.values(xs)).max())
    return Bounds(lo, lo + 2 * tol)


def polyline_sup_distance(p: PiecewisePath, q: PiecewisePath) -> Bounds:
    """Bounds on sup |p - q| for two polylines, exact up to rounding.

    Both are affine between consecutive points of the union of their
    breakpoints, so |p - q| is convex there and its sup is the maximum over
    that union: ``_consecutive_gaps`` of the two paths' values there.
    """
    if p.interval != q.interval:
        raise MismatchedDomains(f"paths live on {p.interval} and {q.interval}")
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


def reparametrize_to_unit(path: PiecewisePath) -> PiecewisePath:
    """Affine change of parameter onto [0, 1]; values and carrier are unchanged."""
    a, b = path.interval
    if (a, b) == (0.0, 1.0):
        return path
    new_breaks = (path.breakpoints - a) / (b - a)
    new_breaks[0], new_breaks[-1] = 0.0, 1.0
    if path._all_lines:
        return PiecewisePath.from_vertices(path.vertices(), new_breaks, closed=path.closed)
    segs = [seg.with_span(new_breaks[k], new_breaks[k + 1]) for k, seg in enumerate(path.segments)]
    return PiecewisePath(segs, closed=path.closed)
