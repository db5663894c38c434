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

A path keeps its segments as rows of two tables, ``_LineArrays`` and
``_ArcArrays``, each with one formula per kind for values, nearest points
and weights; a path that mixes lines and arcs has rows in both, and
``_Members`` stacks many paths' rows into the same two tables.

Endpoint equality of closed paths is enforced by construction: evaluating a
closed path at 1 returns the bit-exact value at 0, so no closedness
tolerance exists anywhere downstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
        # so that every value on the arc, and every row of an arc table, is finite
        require_finite_real(math.hypot(self.center.real, self.center.imag)
                            + max(self.semi_re, self.semi_im), "an arc's |center| + max(semi-axes)")

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


class _LineArrays(NamedTuple):
    """Line segments, one row each: from z0 to z1 over [s0, s1]."""

    s0: np.ndarray
    s1: np.ndarray
    z0: np.ndarray
    z1: np.ndarray

    def at(self, rows, xs, derivatives: bool = True):
        """(values, derivatives or None) at ``xs`` on the segments ``rows``,
        broadcast against xs, as ``LineSegment`` forms them."""
        s0 = self.s0[rows]
        span = self.s1[rows] - s0
        z0, z1 = self.z0[rows], self.z1[rows]
        u = (xs - s0) / span
        return z0 * (1.0 - u) + z1 * u, (z1 - z0) / span if derivatives else None

    def nearest_parameters(self, pts: np.ndarray):
        """(x, d), one row per row and one column per point: the parameter x
        of the segment's point nearest to the point, and their distance d."""
        a, step = self.z0[:, None], (self.z1 - self.z0)[:, None]
        u = _segment_projections(a, step, pts)
        return self.s0[:, None] + u * (self.s1 - self.s0)[:, None], np.abs(pts - (a + u * step))

    def weights(self) -> np.ndarray:
        """Each row's |z'| bound times its span: its length |z1 - z0|."""
        return np.abs(self.z1 - self.z0)


class _ArcArrays(NamedTuple):
    """Arcs, one row each: ``ArcSegment``'s fields over [s0, s1], and its
    |z'| bound."""

    s0: np.ndarray
    s1: np.ndarray
    center: np.ndarray
    semi_re: np.ndarray
    semi_im: np.ndarray
    angle0: np.ndarray
    angle1: np.ndarray
    derivative_bound: np.ndarray

    def at(self, rows, xs, derivatives: bool = True):
        """(values, derivatives or None) at ``xs`` on the arcs ``rows``,
        broadcast against xs, as ``ArcSegment`` forms them."""
        s0, angle0, angle1 = self.s0[rows], self.angle0[rows], self.angle1[rows]
        span = self.s1[rows] - s0
        u = (xs - s0) / span
        theta = angle0 * (1.0 - u) + angle1 * u
        cos, sin = np.cos(theta), np.sin(theta)
        semi_re, semi_im = self.semi_re[rows], self.semi_im[rows]
        vals = _parts(semi_re, cos, semi_im, sin)
        vals += self.center[rows]
        if not derivatives:
            return vals, None
        rate = (angle1 - angle0) / span
        return vals, _parts(-(semi_re * rate), sin, semi_im * rate, cos)

    def nearest_parameters(self, pts: np.ndarray):
        """(x, d) as on lines, for x the angle of q = A^-1 (p - c), as
        ``_arc_clearance`` maps the point, clamped into the sweep at the
        nearer end: for a circle the nearest point, for an ellipse a point
        near it, uncertified."""
        angle0, angle1 = self.angle0[:, None], self.angle1[:, None]
        low, sweep = np.minimum(angle0, angle1), np.abs(angle1 - angle0)
        turn = np.mod(np.angle(_unit_frame(self, pts)) - low, 2 * math.pi)
        turn = np.where(turn <= sweep, turn, np.where(turn - sweep < 2 * math.pi - turn, sweep, 0.0))
        theta = low + turn
        u = (theta - angle0) / (angle1 - angle0)
        foot = _parts(self.semi_re[:, None], np.cos(theta), self.semi_im[:, None], np.sin(theta))
        foot += self.center[:, None]
        return self.s0[:, None] + u * (self.s1 - self.s0)[:, None], np.abs(pts - foot)

    def weights(self) -> np.ndarray:
        """Each row's |z'| bound times its span."""
        return self.derivative_bound * (self.s1 - self.s0)


_NO_LINES = _LineArrays(*(np.empty(0, dtype) for dtype in (float, float, complex, complex)))
_NO_ARCS = _ArcArrays(*(np.empty(0, complex if f == "center" else float) for f in _ArcArrays._fields))


def _tables(segments) -> tuple[_LineArrays, _ArcArrays, np.ndarray]:
    """(lines, arcs, rows): the line table and the arc table of ``segments``,
    and each segment's row in the two, numbered lines first."""
    kinds = ([], [])  # lines, arcs
    for s in segments:
        kinds[isinstance(s, ArcSegment)].append(s)
    lines, arcs = (type(empty)(*(np.array([getattr(s, f) for s in mine], dtype=column.dtype)
                                 for f, column in zip(empty._fields, empty))) if mine else empty
                   for mine, empty in zip(kinds, (_NO_LINES, _NO_ARCS)))
    rows = {id(s): r for r, s in enumerate(kinds[0] + kinds[1])}  # lines first
    return lines, arcs, np.array([rows[id(s)] for s in segments])


def _segment_values(lines: _LineArrays, arcs: _ArcArrays, rows, xs, derivatives: bool = True):
    """(values, derivatives or None) at ``xs`` on the segments ``rows`` of
    the two tables, numbered lines first (one per x, or per column of xs):
    each table's ``at``, under its mask where both kinds appear."""
    n = lines.s0.size
    if not (n and arcs.s0.size):  # one kind
        return (lines if n else arcs).at(rows, xs, derivatives)
    vals = np.empty(xs.shape, dtype=np.complex128)
    ders = np.empty(xs.shape, dtype=np.complex128) if derivatives else None
    on_arc = rows >= n
    for table, mask, first in ((lines, ~on_arc, 0), (arcs, on_arc, n)):
        v, d = table.at(rows[mask] - first, xs[..., mask], derivatives)
        vals[..., mask] = v
        if derivatives:
            ders[..., mask] = d
    return vals, ders


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
        self._lines, self._arcs, self._rows = _tables(segments)

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
                  "_second_bounds": np.zeros(spans.size), "_arcs": _NO_ARCS,
                  "_rows": np.arange(spans.size)}
        s0, s1 = breaks[:-1], breaks[1:]
        paths = []
        columns = (verts[:, :-1], verts[:, 1:], verts[:, 0].tolist(), first, lipschitz_bounds.tolist())
        for z0, z1, start, bounds, lipschitz in zip(*columns):
            self = cls.__new__(cls)
            fields = self.__dict__
            fields.update(shared)
            fields["_lines"], fields["_start"] = _LineArrays(s0, s1, z0, z1), start
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
        first = np.array([reach * abs(rate) for rate in sweep_rates])
        start, end = (_arc_point(center, semi_re, semi_im, angle)
                      for angle in (angles[0], angles[-1]))
        # _check_closures' own test, in scalars (abs takes hypot, as numpy's
        # does), so that it runs only to raise
        if abs(end - start) > _CLOSURE_NOISE * max(1.0, abs(start), abs(end)):
            _check_closures(np.array([start]), np.array([end]))
        n = len(spans)
        self = cls.__new__(cls)
        self.__dict__.update({
            "_segments": None, "closed": True, "_breaks": breaks, "_start": start,
            "_first_bounds": first,
            "_second_bounds": np.array([reach * rate ** 2 for rate in sweep_rates]),
            "_lipschitz": require_finite_real(first.max(), "Lipschitz constant"),
            "_lines": _NO_LINES, "_rows": np.arange(n),
            "_arcs": _ArcArrays(breaks[:-1], breaks[1:], np.full(n, center), np.full(n, semi_re),
                                np.full(n, semi_im), np.array(angles[:-1]), np.array(angles[1:]),
                                first)})
        require_finite_real(math.hypot(center.real, center.imag) + reach,
                            "an arc's |center| + max(semi-axes)")
        return self

    @property
    def segments(self) -> tuple:
        if self._segments is None:
            made = [LineSegment(z0, z1, s0, s1) for s0, s1, z0, z1 in zip(*self._lines)]
            made += [ArcSegment(c, a, t0, t1, s0, s1, b)
                     for s0, s1, c, a, b, t0, t1, _ in zip(*self._arcs)]
            self._segments = tuple(made[r] for r in self._rows.tolist())
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

    @property
    def _all_lines(self) -> bool:
        return not self._arcs.s0.size

    def vertices(self) -> np.ndarray:
        """Values at the breakpoints, including the (snapped) closing point."""
        if self._all_lines:
            end = self._start if self.closed else complex(self._lines.z1[-1])
            return np.concatenate([self._lines.z0, [end]])
        vals = [s.start_value for s in self.segments]
        vals.append(self._start if self.closed else self.segments[-1].end_value)
        return np.array(vals, dtype=np.complex128)

    def _check_range(self, xs: np.ndarray):
        if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
            raise ValueError("parameter outside [0, 1]")

    def _segment_indices(self, xs):
        """Index of the segment holding each x in [0, 1]; 1 belongs to the last."""
        return np.searchsorted(self._breaks[1:-1], xs, side="right")

    def _at(self, xs, derivatives: bool):
        xs = np.asarray(xs, dtype=np.float64)
        self._check_range(xs)
        rows = self._segment_indices(xs)
        if self._lines.s0.size and self._arcs.s0.size:  # lines and arcs: lines first
            rows = self._rows[rows]
        vals, ders = _segment_values(self._lines, self._arcs, rows, xs, derivatives)
        if self.closed:
            vals[xs == 1.0] = self._start
        return vals, ders

    def values(self, xs):
        return self._at(xs, False)[0]

    def value(self, x: float) -> complex:
        return complex(self.values(np.array([float(x)], dtype=np.float64))[0])

    def eval_with_derivative(self, xs):
        """Values and one-sided derivatives, vectorized; breakpoints take the
        right-hand segment's derivative."""
        return self._at(xs, True)

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
    """``certified_clearance`` of each path, one pass per segment kind
    (``_Members.clearances``), each path with its own rounding allowance;
    a non-finite point is refused."""
    return _Members(tuple(paths)).clearances(points)


# no interior rows, as in the member table of a lone path
_NO_ROWS = np.empty((0, 2), dtype=np.complex128)


class _Members:
    """A run of members, in order: the paths ``head``, the closed
    polylines through the rows of ``rows`` at the shared ``breaks`` (a
    chain's interior members), and the paths ``tail``.  ``given`` lists
    (index, path) for every member given as a path.

    Their segments are two stacked tables in member order (``tables``):
    every line segment, the interior rows' as a ``from_vertex_rows`` view
    would hold them, and every arc.
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

    @functools.cached_property
    def tables(self) -> tuple:
        """(lines, arcs, line_runs, arc_runs): the members' stacked line and
        arc tables, and each table's runs of rows, one per member that has
        rows in it, as lists (starts, ids, widths): where each run begins,
        its member and its length."""
        h, k = len(self.head), len(self.rows)
        lines = [(path._lines, m, 1) for m, path in self.given]
        arcs = [(path._arcs, m, 1) for m, path in self.given]
        if k:
            b = self.breaks
            lines.insert(h, (_LineArrays(np.tile(b[:-1], k), np.tile(b[1:], k),
                                         self.rows[:, :-1].ravel(), self.rows[:, 1:].ravel()), h, k))
        (lines, line_runs), (arcs, arc_runs) = _stacked(_NO_LINES, lines), _stacked(_NO_ARCS, arcs)
        return lines, arcs, line_runs, arc_runs

    @functools.cached_property
    def closing(self) -> dict:
        """The start of each closed member with an arc, by the row of its
        last segment in ``tables`` (lines first): its value at 1, as
        ``PiecewisePath.values`` snaps it.  A member of lines alone is read
        as its vertices stand."""
        lines, arcs, (line_starts, line_ids, _), (arc_starts, arc_ids, _) = self.tables
        given, line_at = dict(self.given), dict(zip(line_ids, line_starts))
        closing = {}
        for m, at in zip(arc_ids, arc_starts):
            path = given[m]
            if path.closed:
                last, n = int(path._rows[-1]), path._lines.s0.size
                closing[line_at[m] + last if last < n else lines.s0.size + at + last - n] = path._start
        return closing

    def clearances(self, points) -> np.ndarray:
        """``certified_clearance`` of every member from ``points``: one pass
        per table, each reduced per member."""
        pts = np.asarray(points, dtype=np.complex128).ravel()
        if not np.isfinite(pts).all():
            raise ValueError(f"points must be finite, got {pts[~np.isfinite(pts)][0]!r}")
        out = np.full(self.count, math.inf)
        if pts.size == 0:
            return out
        lines, arcs, (line_starts, line_ids, _), (arc_starts, arc_ids, _) = self.tables
        if line_ids:
            plane = PuncturedPlane(tuple(dict.fromkeys(pts.tolist())))  # it refuses repeats
            # fmax: nan, past the float range, is clearance 0
            out[line_ids] = np.fmax(0.0, polyline_clearances(lines.z0, lines.z1, line_starts, plane,
                                                             _POLYLINE_ROUNDING))
        if arc_ids:  # a member of both kinds takes the smaller
            arc = _arc_clearance(arcs, pts, arc_starts)
            out[arc_ids] = np.fmin(out[arc_ids], arc) if line_ids else arc
        return out


def _stacked(empty, parts: list):
    """(table, runs): the tables of ``parts``, each (table, first member,
    count) with an equal run of rows per member, joined, and its runs."""
    parts = [part for part in parts if part[0].s0.size]
    starts, ids, widths, at = [], [], [], 0
    for table, first, count in parts:
        width = table.s0.size // count
        starts += range(at, at + width * count, width)
        ids += range(first, first + count)
        widths += [width] * count
        at += width * count
    tables = [table for table, _, _ in parts] or [empty]
    table = tables[0] if len(tables) == 1 else type(empty)(*map(np.concatenate, zip(*tables)))
    return table, (starts, ids, widths)


def _arc_clearance(arcs: _ArcArrays, pts: np.ndarray, starts) -> np.ndarray:
    """Lower bound on the distance from each run of arcs to the nearest
    point, run k holding the rows from ``starts[k]`` up to the next.

    An arc is c + A u(theta) for A = diag(a, b) and u on the unit arc between
    its angles.  With q = A^-1 (p - c), |p - z| = |A (q - u)| >= min(a, b)
    |q - u|, so min(a, b) times the unit arc's distance d(q) is a lower
    bound, and for a circle the distance itself: d(q) is ||q| - 1| when q's
    angle lies in the sweep, else the nearer end's distance.

    Rounding, with u = eps/2, S the larger of max(|c| + max(a, b)) over the
    run and the points' largest modulus, m = min(a, b), and libm's atan2
    within 2 ulps:
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
    near = np.minimum.reduceat(np.minimum(arcs.semi_re, arcs.semi_im) * dist, starts)
    reach = np.maximum.reduceat(np.abs(arcs.center) + np.maximum(arcs.semi_re, arcs.semi_im),
                                starts)
    return np.fmax(0.0, near - _POLYLINE_ROUNDING * np.maximum(reach, np.abs(pts).max()))


def _unit_frame(arcs: _ArcArrays, pts: np.ndarray) -> np.ndarray:
    """q = A^-1 (p - c) for every arc (rows) and point (columns): the points
    in the frame where each arc lies on the unit circle."""
    rel = pts - arcs.center[:, None]
    q = np.empty(rel.shape, dtype=np.complex128)
    np.divide(rel.real, arcs.semi_re[:, None], out=q.real)
    np.divide(rel.imag, arcs.semi_im[:, None], out=q.imag)
    return q


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
