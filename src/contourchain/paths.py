"""Paths with explicit moduli of continuity and piecewise-differentiable paths.

Every path here is a uniformly continuous map from a compact parameter
interval into the plane, carrying a modulus of continuity as data: delta(eps)
such that parameter points closer than delta(eps) map to values closer than
eps.  Piecewise paths are finite runs of continuously differentiable segments
(lines, arcs, smooth parametric pieces); they are the only paths that can be
integrated.

Endpoint equality of closed paths is enforced by construction: evaluating a
closed path at the right end of its interval returns the bit-exact left-end
value, so no closedness tolerance exists anywhere downstream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import InvalidEpsilon, MismatchedDomains
from .geometry import Bounds, CompactCarrier, require_finite_complex, require_finite_real
from .geometry import _segment_point_distances

__all__ = [
    "Modulus",
    "LipschitzModulus",
    "TabulatedModulus",
    "Path",
    "ClosedPath",
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
    "consecutive_polyline_distances",
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


class Modulus:
    """Monotone map eps -> delta(eps) witnessing uniform continuity."""

    def delta(self, eps: float) -> float:
        raise NotImplementedError

    def scaled(self, factor: float) -> "Modulus":
        """Modulus with delta'(eps) = factor * delta(eps) (affine reparametrization)."""
        raise NotImplementedError

    @property
    def lipschitz_constant(self) -> float | None:
        """Lipschitz constant if this modulus is of Lipschitz form, else None."""
        return None


@dataclass(frozen=True)
class LipschitzModulus(Modulus):
    """delta(eps) = eps / L.  L = 0 encodes a constant map (delta infinite)."""

    constant: float

    def __post_init__(self):
        require_finite_real(self.constant, "Lipschitz constant")
        if self.constant < 0:
            raise ValueError(f"Lipschitz constant must be nonnegative, got {self.constant}")

    def delta(self, eps):
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if self.constant == 0:
            return math.inf
        return eps / self.constant

    def scaled(self, factor):
        return LipschitzModulus(self.constant / factor)

    @property
    def lipschitz_constant(self):
        return self.constant


@dataclass(frozen=True)
class TabulatedModulus(Modulus):
    """Monotone (eps, delta) samples with conservative floor lookup.

    Between samples the delta of the nearest smaller eps is returned, which is
    always safe.  Below the smallest sample, delta is scaled proportionally,
    treating the map as Lipschitz at scales finer than the table resolves.
    """

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.samples:
            raise ValueError("tabulated modulus needs at least one sample")
        pts = tuple((require_finite_real(e, "eps"), require_finite_real(d, "delta")) for e, d in self.samples)
        for (e0, d0), (e1, d1) in zip(pts, pts[1:]):
            if not e0 < e1:
                raise ValueError("eps samples must be strictly increasing")
            if not d0 <= d1:
                raise ValueError("delta samples must be nondecreasing")
        if pts[0][0] <= 0 or any(d <= 0 for _, d in pts):
            raise ValueError("all eps and delta samples must be positive")
        object.__setattr__(self, "samples", pts)

    def delta(self, eps):
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        eps_values = [e for e, _ in self.samples]
        i = bisect_right(eps_values, eps) - 1
        if i < 0:
            e0, d0 = self.samples[0]
            return d0 * (eps / e0)
        return self.samples[i][1]

    def scaled(self, factor):
        return TabulatedModulus(tuple((e, d * factor) for e, d in self.samples))


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

class Path:
    """Uniformly continuous map [a, b] -> C with an explicit modulus."""

    _a: float
    _b: float
    _modulus: Modulus

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
    def modulus(self) -> Modulus:
        return self._modulus

    def values(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, x: float) -> complex:
        return complex(self.values(np.array([float(x)], dtype=np.float64))[0])

    def _check_range(self, xs: np.ndarray):
        if xs.size and (xs.min() < self._a or xs.max() > self._b):
            raise ValueError(f"parameter outside [{self._a}, {self._b}]")


class ClosedPath(Path):
    """Function-backed closed path.

    The evaluator must accept numpy arrays and describe a mathematically closed
    curve; evaluation at ``b`` is snapped to the bit-exact value at ``a`` so the
    endpoint identity holds without any tolerance.
    """

    def __init__(self, a: float, b: float, evaluator, modulus: Modulus):
        a = require_finite_real(a, "a")
        b = require_finite_real(b, "b")
        if not a < b:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        self._a, self._b = a, b
        self._evaluator = evaluator
        self._modulus = modulus
        start = complex(np.asarray(evaluator(np.array([a])), dtype=np.complex128).ravel()[0])
        end = complex(np.asarray(evaluator(np.array([b])), dtype=np.complex128).ravel()[0])
        require_finite_complex(start, "path start")
        scale = max(1.0, abs(start), abs(end))
        if abs(end - start) > _CLOSURE_NOISE * scale:
            raise ValueError(
                f"evaluator is not closed: endpoint gap {abs(end - start):.3g} exceeds float noise")
        self._start = start

    def values(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        self._check_range(xs)
        out = np.asarray(self._evaluator(xs), dtype=np.complex128).reshape(xs.shape).copy()
        out[xs == self._b] = self._start
        return out


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
        return self.center + self.radius * (np.cos(theta) + 1j * np.sin(theta))

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


def _segment_bounds(bounds, count: int, name: str) -> np.ndarray:
    bounds = np.asarray(bounds, dtype=np.float64).ravel().copy()
    if bounds.size != count:
        raise ValueError(f"{name} needs one entry per segment ({count}), got {bounds.size}")
    if not np.all(np.isfinite(bounds) & (bounds >= 0)):
        raise ValueError(f"{name} must be finite and nonnegative")
    return bounds


def _check_closures(starts: np.ndarray, ends: np.ndarray):
    """Refuse a closed path whose end is more than float noise from its start."""
    gaps = np.abs(ends - starts)
    scales = np.maximum(1.0, np.maximum(np.abs(starts), np.abs(ends)))
    wide = np.flatnonzero(gaps > _CLOSURE_NOISE * scales)
    if wide.size:
        raise ValueError(f"path declared closed but endpoint gap {gaps[wide[0]]:.3g} "
                         "exceeds float noise")


class PiecewisePath(Path):
    """Finite run of C^1 segments over contiguous parameter spans.

    Consecutive segments must agree bit-exactly at shared breakpoints.  When
    ``closed`` is set, a float-noise gap at the closing point is snapped to the
    exact start value; a larger gap is rejected.
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
        self._check_closure(start, end)

        self._evaluators = None
        second = [s.second_derivative_bound for s in segments]
        self._set_bounds(np.array([s.derivative_bound for s in segments], dtype=np.float64),
                         None if None in second else np.array(second, dtype=np.float64))
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
        shared = {"_segments": None, "_evaluators": None, "closed": bool(closed),
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
    def from_evaluator(cls, evaluator, derivative, breakpoints: np.ndarray,
                       derivative_bounds: np.ndarray, second_derivative_bounds=None,
                       closed: bool = False) -> "PiecewisePath":
        """Path given by one evaluator and its derivative over all of its
        interval, C^1 (C^2 where second-derivative bounds are given) between
        consecutive ``breakpoints``, with one bound per segment.

        Both callables take numpy arrays of parameters and are evaluated once
        per call, not once per segment; the segments materialize lazily as
        ``SmoothSegment`` views of them.
        """
        breaks = np.asarray(breakpoints, dtype=np.float64).ravel().copy()
        if breaks.size < 2 or not np.all(np.diff(breaks) > 0):
            raise ValueError("need at least two strictly increasing breakpoints")
        first = _segment_bounds(derivative_bounds, breaks.size - 1, "derivative_bounds")
        second = None if second_derivative_bounds is None else _segment_bounds(
            second_derivative_bounds, breaks.size - 1, "second_derivative_bounds")
        self = cls.__new__(cls)
        self._segments = None
        self._evaluators = (evaluator, derivative)
        self.closed = bool(closed)
        self._a = float(breaks[0])
        self._b = float(breaks[-1])
        self._breaks = breaks
        ends = np.asarray(evaluator(breaks[[0, -1]]), dtype=np.complex128).ravel()
        start = require_finite_complex(ends[0], "path start")
        self._start = start
        self._check_closure(start, complex(ends[1]))
        self._set_bounds(first, second)
        self._all_lines = False
        self._arcs = None
        return self

    def _set_bounds(self, first: np.ndarray, second: np.ndarray | None):
        self._first_bounds, self._second_bounds = first, second
        self._lipschitz = require_finite_real(first.max(), "Lipschitz constant")

    def _check_closure(self, start: complex, end: complex):
        if self.closed and end != start:
            _check_closures(np.array([start]), np.array([end]))

    @property
    def segments(self) -> tuple:
        if self._segments is None:
            b = self._breaks
            if self._evaluators is None:
                self._segments = tuple(
                    LineSegment(self._z0[k], self._z1[k], b[k], b[k + 1])
                    for k in range(len(self._z0)))
            else:
                ev, der = self._evaluators
                second = self._second_bounds
                self._segments = tuple(
                    SmoothSegment(ev, der, self._first_bounds[k], b[k], b[k + 1],
                                  None if second is None else second[k])
                    for k in range(self.num_segments))
        return self._segments

    @property
    def num_segments(self) -> int:
        return len(self._breaks) - 1

    @property
    def is_closed(self) -> bool:
        return self.closed

    @property
    def lipschitz_bound(self) -> float:
        return self._lipschitz

    @property
    def modulus(self) -> Modulus:
        """The Lipschitz modulus of ``lipschitz_bound``, built on each read."""
        return LipschitzModulus(self._lipschitz)

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
        if self._evaluators is not None:
            out = np.array(self._evaluators[0](xs), dtype=np.complex128).reshape(xs.shape)
        elif self._all_lines:
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

    def eval_with_derivative(self, xs):
        """Values and one-sided derivatives, vectorized; breakpoints take the
        right-hand segment's derivative."""
        xs = np.asarray(xs, dtype=np.float64)
        self._check_range(xs)
        if self._evaluators is not None:
            ev, der = self._evaluators
            vals = np.array(ev(xs), dtype=np.complex128).reshape(xs.shape)
            ders = np.asarray(der(xs), dtype=np.complex128).reshape(xs.shape)
        elif self._all_lines:
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
        """Same carrier, opposite orientation, same parameter interval."""
        total = self._a + self._b
        segs = [seg.reversed_onto(total - seg.s1, total - seg.s0) for seg in reversed(self.segments)]
        # reflected breakpoints can drift by an ulp; restore exact contiguity
        fixed = [segs[0]]
        for seg in segs[1:]:
            prev = fixed[-1]
            if seg.s0 != prev.s1:
                seg = seg.with_span(prev.s1, seg.s1)
            fixed.append(seg)
        fixed[-1] = fixed[-1].with_span(fixed[-1].s0, self._b)
        return PiecewisePath(fixed, closed=self.closed)


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
    breaks = _uniform_breaks(interval, 4)
    angles = [k * (math.pi / 2) for k in range(5)]
    segs = [ArcSegment(center, radius, angles[k], angles[k + 1], breaks[k], breaks[k + 1])
            for k in range(4)]
    return PiecewisePath(segs, closed=True)


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

def _sample_grid(a: float, b: float, delta: float) -> np.ndarray:
    span = b - a
    steps = max(1, math.ceil(span / min(delta, span)))
    if steps > _MAX_SAMPLES:
        raise ValueError(f"sampling grid of {steps} points exceeds the budget; "
                         "modulus too steep for the requested accuracy")
    xs = a + span * np.arange(steps + 1) / steps
    xs[0], xs[-1] = a, b
    return xs


def carrier_of_path(path: Path, eta: float) -> CompactCarrier:
    """Eta-net of the closure of the path's range.

    Samples at parameter steps no wider than delta(eta), so every point of the
    curve is within eta of a sample, and every sample sits on the curve.
    """
    eta = require_finite_real(eta, "eta")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    xs = _sample_grid(path.a, path.b, path.modulus.delta(eta))
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
                or path.modulus.delta(eta / 4) * _MAX_CLEARANCE_NET < path.b - path.a):
            return raw - eta
        eta /= 4


def sup_distance(p: Path, q: Path, tol: float) -> Bounds:
    """Certified bounds on sup |p - q| over the shared parameter interval.

    The sampled maximum is a true lower bound; adding twice the modulus slack
    at ``tol`` gives a rigorous upper bound, so ``hi - lo = 2 tol``.
    """
    tol = require_finite_real(tol, "tol")
    if tol <= 0:
        raise InvalidEpsilon(f"tol must be positive, got {tol}")
    if p.interval != q.interval:
        raise MismatchedDomains(f"paths live on {p.interval} and {q.interval}")
    delta = min(p.modulus.delta(tol), q.modulus.delta(tol))
    xs = _sample_grid(p.a, p.b, delta)
    lo = float(np.abs(p.values(xs) - q.values(xs)).max())
    return Bounds(lo, lo + 2 * tol)


def polyline_sup_distance(p: PiecewisePath, q: PiecewisePath) -> Bounds:
    """Bounds on sup |p - q| for two polylines, exact up to rounding.

    Both are affine between consecutive points of the union of their
    breakpoints, so |p - q| is convex there and its sup is the maximum over
    that union.  When both share one partition, the values there are their
    vertices (``consecutive_polyline_distances``).  Evaluating it rounds by
    less than ``_POLYLINE_ROUNDING`` times the largest |vertex|, which widens
    the maximum on both sides.
    """
    if p.interval != q.interval:
        raise MismatchedDomains(f"paths live on {p.interval} and {q.interval}")
    if not (isinstance(p, PiecewisePath) and isinstance(q, PiecewisePath)
            and p._all_lines and q._all_lines):
        raise TypeError("the exact distance needs two polylines")
    pv, qv = p.vertices(), q.vertices()
    if np.array_equal(p.breakpoints, q.breakpoints):
        return consecutive_polyline_distances(np.stack([pv, qv]))[0]
    xs = np.union1d(p.breakpoints, q.breakpoints)
    exact = np.abs(p.values(xs) - q.values(xs)).max()
    return _widened(exact, max(np.abs(pv).max(), np.abs(qv).max()))


def consecutive_polyline_distances(rows: np.ndarray) -> list[Bounds]:
    """``polyline_sup_distance`` of each pair of consecutive rows of the
    (k, m+1) vertex array ``rows``, polylines on one shared partition: the
    largest |row j - row j+1|, widened by the rounding allowance at the
    larger of the two rows' largest |vertex|."""
    return Bounds.from_arrays(*_consecutive_gaps(rows))


def _consecutive_gaps(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The arrays (lo, hi) of ``consecutive_polyline_distances``, unchecked."""
    rows = np.asarray(rows, dtype=np.complex128)
    reach = np.abs(rows).max(axis=1)
    exact = np.abs(np.diff(rows, axis=0)).max(axis=1)
    slack = _POLYLINE_ROUNDING * np.maximum(reach[:-1], reach[1:])
    return np.maximum(0.0, exact - slack), exact + slack


def _widened(exact: float, scale: float) -> Bounds:
    slack = _POLYLINE_ROUNDING * scale
    return Bounds(max(0.0, exact - slack), exact + slack)


def reparametrize_to_unit(path: Path) -> Path:
    """Affine change of parameter onto [0, 1]; values and carrier are unchanged."""
    a, b = path.interval
    if (a, b) == (0.0, 1.0):
        return path
    span = b - a
    if isinstance(path, PiecewisePath):
        new_breaks = (path.breakpoints - a) / span
        new_breaks[0], new_breaks[-1] = 0.0, 1.0
        if path._all_lines:
            return PiecewisePath.from_vertices(path.vertices(), new_breaks, closed=path.closed)
        segs = [seg.with_span(new_breaks[k], new_breaks[k + 1])
                for k, seg in enumerate(path.segments)]
        return PiecewisePath(segs, closed=path.closed)
    inner = path

    def ev(xs):
        return inner.values(np.clip(a + span * np.asarray(xs, dtype=np.float64), a, b))

    return ClosedPath(0.0, 1.0, ev, path.modulus.scaled(1.0 / span))
