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

A path is its segments as rows of two tables, ``_LineArrays`` and
``_ArcArrays``, each with one formula per kind for values, bounds, nearest
points and weights; a path that mixes lines and arcs has rows in both, and
``_Members`` stacks many paths' rows into the same two tables.  One routine,
``PiecewisePath._from_tables``, builds every path from its tables.

Endpoint equality of closed paths is enforced by construction: evaluating a
closed path at 1 returns the bit-exact value at 0, so no closedness
tolerance exists anywhere downstream.  A last line ends on the start, and a
last arc a float-noise gap off it (``homotopy._end_slack`` adds the gap).
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

    def values_at(self, xs):
        u = self._u(xs)
        return self.z0 * (1.0 - u) + self.z1 * u

    def derivatives_at(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        return np.full(xs.shape, (self.z1 - self.z0) / self.span, dtype=np.complex128)


def _arc_point(center, semi_re, semi_im, angle) -> complex:
    """c + a cos(angle) + i b sin(angle), with numpy's cos and sin, as on arrays."""
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

    def values_at(self, xs):
        theta = self._theta(xs)
        out = _parts(self.semi_re, np.cos(theta), self.semi_im, np.sin(theta))
        out += self.center
        return out

    def derivatives_at(self, xs):
        theta = self._theta(xs)
        rate = (self.angle1 - self.angle0) / self.span
        return _parts(-(self.semi_re * rate), np.sin(theta), self.semi_im * rate, np.cos(theta))


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

    def bounds(self):
        """(|z'| bounds, |z''| bounds), one per row: |z1 - z0| / span, and 0."""
        first = np.abs(self.z1 - self.z0) / (self.s1 - self.s0)
        return first, np.zeros(first.size)


class _ArcArrays(NamedTuple):
    """Arcs, one row each: ``ArcSegment``'s fields over [s0, s1], and its
    |z'| bound (``bounds``; None in a table no path holds yet)."""

    s0: np.ndarray
    s1: np.ndarray
    center: np.ndarray
    semi_re: np.ndarray
    semi_im: np.ndarray
    angle0: np.ndarray
    angle1: np.ndarray
    derivative_bound: np.ndarray | None = None

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

    def bounds(self):
        """(|z'| bounds, |z''| bounds), one per row: max(a, b) |w| and
        max(a, b) w^2 (libm's pow) for the sweep rate w = sweep / span."""
        rate = (self.angle1 - self.angle0) / (self.s1 - self.s0)
        reach = np.maximum(self.semi_re, self.semi_im)
        return reach * np.abs(rate), reach * np.float_power(rate, 2.0)


_NO_LINES = _LineArrays(*(np.empty(0, dtype) for dtype in (float, float, complex, complex)))
_NO_ARCS = _ArcArrays(*(np.empty(0, complex if f == "center" else float) for f in _ArcArrays._fields))
_ONE = np.ones(1)  # the last breakpoint


def _tables(segments) -> tuple[_LineArrays, _ArcArrays, np.ndarray]:
    """(lines, arcs, rows): the line table and the arc table of ``segments``,
    but for the arcs' |z'| column, and each segment's row in the two, lines
    first."""
    kinds = ([], [])  # lines, arcs
    for s in segments:
        kinds[isinstance(s, ArcSegment)].append(s)
    lines, arcs = (type(empty)(*(np.array([getattr(s, f) for s in mine], dtype=column.dtype)
                                 for f, column in zip(empty._fields, empty)
                                 if f not in empty._field_defaults)) if mine else empty
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


def _end_value(lines: _LineArrays, arcs: _ArcArrays, row: int, end: int) -> complex:
    """The value at the start (``end`` 0) or the end (1) of the segment on
    row ``row`` of the two tables (lines first), from its columns."""
    n = lines.s0.size
    if row < n:
        return (lines.z1 if end else lines.z0).item(row)
    row -= n
    return _arc_point(arcs.center.item(row), arcs.semi_re.item(row), arcs.semi_im.item(row),
                      (arcs.angle1 if end else arcs.angle0).item(row))


@functools.lru_cache
def _in_order(n: int) -> np.ndarray:
    """0, 1, ..., n - 1: the rows of a path of n arcs, shared by all."""
    return np.arange(n)


def _check_unit_span(s0: float, s1: float):
    """Refuse a run of spans that does not start at exactly 0 and end at exactly 1."""
    if not (s0 == 0.0 and s1 == 1.0):
        raise ValueError(f"a path's spans must run from 0 to 1, got [{s0!r}, {s1!r}]")


class PiecewisePath:
    """Finite run of C^1 segments over contiguous parameter spans of [0, 1].

    A path is its two segment tables and each segment's row in them, lines
    first; ``_from_tables`` sets every field from them, the bounds by one
    formula per kind, and ``segments`` is a view built when asked for.

    The spans must run from exactly 0 to exactly 1, and consecutive segments
    must agree bit-exactly at shared breakpoints.  A closed path's end may
    miss its start by ``_CLOSURE_NOISE`` times its reach (the largest
    max(|z0|, |z1|) over its lines and |c| + max(a, b) over its arcs), no
    more.  Its last line vertex is then made the start; a last arc keeps its
    end, and only its value at 1 is the start.  ``lipschitz_bound``, the
    largest per-segment bound on |z'|, is the path's modulus of continuity.
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
        self._from_tables(*_tables(segments), closed)

    @np.errstate(over="ignore")  # a bound past the float range is refused below, by name
    def _from_tables(self, lines: _LineArrays, arcs: _ArcArrays, rows: np.ndarray, closed: bool,
                     source: "PiecewisePath | None" = None):
        """Set every field of this path, whose k-th segment is row
        ``rows[k]`` of the two tables (lines first), from the tables alone,
        the arcs' |z'| column too, and return it.  The rows' spans must be
        positive and run from 0 to 1.  ``source`` is the path this one
        reverses, if any."""
        n, last, gap = lines.s0.size, rows.item(-1), 0.0
        start = _end_value(lines, arcs, rows.item(0), 0)
        if closed and (end := _end_value(lines, arcs, last, 1)) != start:
            gap = abs(end - start)
            # the reach, max(|z0|, |z1|) over lines and |c| + max(a, b) over
            # arcs, bounds every value: a gap within the ends' modulus passes
            if gap > _CLOSURE_NOISE * max(abs(start), abs(end)) and gap > _CLOSURE_NOISE * max(
                    np.abs(lines.z0).max(initial=0.0), np.abs(lines.z1).max(initial=0.0),
                    (np.abs(arcs.center) + np.maximum(arcs.semi_re, arcs.semi_im)).max(initial=0.0)):
                raise ValueError(f"path declared closed but endpoint gap {gap:.3g} "
                                 "exceeds float noise")
            if last < n:  # the last line runs to the start
                lines, gap = lines._replace(z1=lines.z1.copy()), 0.0
                lines.z1[last] = start
        kinds = [(*table.bounds(), table.s0) for table in (lines, arcs) if table.s0.size]
        arcs = _ArcArrays(*arcs[:-1], kinds[-1][0]) if arcs.s0.size else _NO_ARCS
        first, second, s0 = kinds[0] if len(kinds) == 1 else (  # one kind: rows in path order
            np.concatenate(pair)[rows] for pair in zip(*kinds))
        lipschitz = float(first.max())
        if not math.isfinite(lipschitz):
            raise ValueError("Lipschitz constant must be finite")
        self.closed = bool(closed)
        self._lines, self._arcs, self._rows, self._segments = lines, arcs, rows, None
        self._source = source
        # how far a closed path's last arc ends off its start, its value at 1
        self._breaks, self._start, self._seam_gap = np.concatenate((s0, _ONE)), start, gap
        self._first_bounds, self._second_bounds, self._lipschitz = first, second, lipschitz
        return self

    @classmethod
    def from_vertices(cls, vertices: np.ndarray, breakpoints: np.ndarray,
                      closed: bool = False) -> "PiecewisePath":
        """Polyline through ``vertices`` at ``breakpoints``: one line table,
        with no segment object built."""
        rows = np.asarray(vertices, dtype=np.complex128).ravel()[None, :]
        return cls.from_vertex_rows(rows, breakpoints, closed)[0]

    @classmethod
    def from_vertex_rows(cls, rows: np.ndarray, breakpoints: np.ndarray,
                         closed: bool = False) -> list["PiecewisePath"]:
        """One polyline per row of the (k, m+1) array ``rows``, all through
        their vertices at the same ``breakpoints``.

        The array is validated once for all rows, and each polyline's line
        table views its row of one copy of it.
        """
        verts = np.array(rows, dtype=np.complex128)
        breaks = np.asarray(breakpoints, dtype=np.float64).ravel().copy()
        if verts.ndim != 2 or verts.shape[1] != breaks.size or breaks.size < 2:
            raise ValueError("need matching vertex/breakpoint arrays with at least two entries")
        if not np.isfinite(verts).all():
            raise ValueError("polyline vertices must be finite")
        if not np.all(breaks[1:] > breaks[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        _check_unit_span(breaks[0], breaks[-1])
        s0, s1, order = breaks[:-1], breaks[1:], np.arange(breaks.size - 1)
        return [cls.__new__(cls)._from_tables(_LineArrays(s0, s1, row[:-1], row[1:]), _NO_ARCS, order,
                                              closed) for row in verts]

    @classmethod
    def _closed_arcs(cls, center: complex, semi_re: float, semi_im: float, angles: list,
                     breakpoints: np.ndarray) -> "PiecewisePath":
        """Closed run of arcs of one ellipse, the k-th from ``angles[k]`` to
        ``angles[k + 1]`` over the k-th span of ``breakpoints``: one arc
        table, with no segment object built.  The breakpoints must increase
        from 0 to 1, the semi-axes be positive, all finite, consecutive
        angles distinct."""
        # so that every value on the arcs is finite
        require_finite_real(abs(center) + max(semi_re, semi_im), "an arc's |center| + max(semi-axes)")
        breaks, angles = np.asarray(breakpoints, dtype=np.float64), np.asarray(angles, dtype=np.float64)
        n = breaks.size - 1
        arcs = _ArcArrays(breaks[:-1], breaks[1:], np.array([center] * n), np.array([semi_re] * n),
                          np.array([semi_im] * n), angles[:-1], angles[1:])
        return cls.__new__(cls)._from_tables(_NO_LINES, arcs, _in_order(n), True)

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
        lines, arcs = self._lines, self._arcs
        starts = (lines.z0 if self._all_lines else
                  [_end_value(lines, arcs, r, 0) for r in self._rows.tolist()])
        end = self._start if self.closed else _end_value(lines, arcs, self._rows.item(-1), 1)
        return np.concatenate([starts, [end]])

    def _check_range(self, xs: np.ndarray):
        if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
            raise ValueError("parameter outside [0, 1]")

    def _segment_indices(self, xs):
        """Index of the segment holding each x in [0, 1]; 1 belongs to the last."""
        return np.searchsorted(self._breaks[1:-1], xs, side="right")

    def _at(self, xs, derivatives: bool):
        xs = np.asarray(xs, dtype=np.float64)
        self._check_range(xs)
        return self._on_segments(self._segment_indices(xs), xs, derivatives)

    def _on_segments(self, segments: np.ndarray, xs: np.ndarray, derivatives: bool = False):
        """(values, derivatives or None) at the points ``xs`` of [0, 1],
        unchecked, each on the segment of the path that ``segments`` names
        for it, as ``values`` takes them: a closed path's value at 1 is its
        start."""
        rows = segments
        if self._lines.s0.size and self._arcs.s0.size:  # lines and arcs: lines first
            rows = self._rows[segments]
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
        the ends 0 and 1 exact.  Each table's rows run backwards over
        [1 - s1, 1 - s0], in reverse order, copied (numpy's |z| of a
        reversed view can differ from a copy's in the last bit).  A reversed
        path reverses to its source: 1 - (1 - s) need not round back to s,
        so its tables reversed again could miss the source's breakpoints by
        an ulp."""
        if self._source is not None:
            return self._source
        lines, arcs, n = self._lines, self._arcs, self._lines.s0.size
        lines, arcs = ([np.ascontiguousarray(column[::-1]) for column in columns] for columns in (
            (1.0 - lines.s1, 1.0 - lines.s0, lines.z1, lines.z0),
            (1.0 - arcs.s1, 1.0 - arcs.s0, arcs.center, arcs.semi_re, arcs.semi_im, arcs.angle1,
             arcs.angle0)))
        rows = self._rows[::-1]
        rows = np.where(rows < n, n - 1 - rows, rows.size + n - 1 - rows)
        return PiecewisePath.__new__(PiecewisePath)._from_tables(_LineArrays(*lines), _ArcArrays(*arcs),
                                                                 rows, self.closed, self)


# ---------------------------------------------------------------------------
# Built-in closed paths
# ---------------------------------------------------------------------------

def _uniform_breaks(n):
    return np.arange(n + 1) / n


# the angles and breakpoints of a circle's four arcs and of an ellipse's one
_QUARTERS = np.array([k * (math.pi / 2) for k in range(5)]), _uniform_breaks(4)
_FULL_TURN = np.array([0.0, 2 * math.pi]), _uniform_breaks(1)


def circle(center: complex = 0j, radius: float = 1.0) -> PiecewisePath:
    """Counterclockwise circle as four quarter arcs."""
    center = require_finite_complex(center, "center")
    if not require_finite_real(radius, "radius") > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return PiecewisePath._closed_arcs(center, radius, radius, *_QUARTERS)


def ellipse(semi_re: float, semi_im: float, center: complex = 0j) -> PiecewisePath:
    """Counterclockwise axis-aligned ellipse as one arc from angle 0 to 2 pi."""
    center = require_finite_complex(center, "center")
    semi_re, semi_im = require_finite_real(semi_re, "semi_re"), require_finite_real(semi_im, "semi_im")
    if not (semi_re > 0 and semi_im > 0):
        raise ValueError("semi-axes must be positive")
    return PiecewisePath._closed_arcs(center, semi_re, semi_im, *_FULL_TURN)


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


def _consecutive_gaps(rows: np.ndarray, reach: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (lo, hi) enclosing the sup-distance of each pair of consecutive
    rows of the (k, m+1) complex array ``rows``, polylines through their
    values on one partition: the largest |row j - row j+1|, widened on both
    sides by the rounding allowance at the larger of the two rows' largest
    |value| (``reach``, when the caller has it).  Evaluating the rows rounds
    by less than ``_POLYLINE_ROUNDING`` times that.  Unchecked;
    ``Bounds.from_arrays`` checks them."""
    if reach is None:
        reach = np.abs(rows).max(axis=1)
    exact = np.abs(rows[1:] - rows[:-1]).max(axis=1)
    slack = _POLYLINE_ROUNDING * np.maximum(reach[:-1], reach[1:])
    return np.maximum(0.0, exact - slack), exact + slack
