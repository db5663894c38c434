"""Certified polygonal approximation of closed paths.

Sample the path at a partition and connect the samples by straight segments;
the polyline is uniformly within 2*eps/3 of the path, and that sharper
constant is what the certificate carries.  Every breakpoint of the path is a
vertex, and one rule (``panel_counts``) splits each piece between
breakpoints, of width w, into equal panels from its bound M2 on |z''|, which
every segment carries (0 on a line): floor(w * sqrt(3*M2 / (16*eps))) + 1
panels, so every panel width h has M2*h^2/8 < 2*eps/3; the chord on a panel
inside one C^2 piece is within M2*h^2/8 of the path.  A straight piece gets
a single panel.

``Homotopy.panels`` sizes the one partition of a linear blend's
slices by the same rule, from the larger of its two end paths' bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEpsilon
from .paths import PiecewisePath

__all__ = ["PolygonalApproximation", "polygonal_approximation"]

_MAX_PANELS = 5_000_000


@dataclass(frozen=True, eq=False)
class PolygonalApproximation:
    """A closed polyline interpolating the input at partition points.

    ``bound`` is the certified value of sup |input - polyline|; ``epsilon`` is
    the budget it was built for (bound = 2*epsilon/3 <= epsilon).
    """

    path: PiecewisePath
    bound: float
    epsilon: float

    @property
    def num_segments(self) -> int:
        return self.path.num_segments


def _require_budget(panels: float):
    if panels > _MAX_PANELS:
        raise InvalidEpsilon(
            f"partition of {panels:.3g} panels exceeds the budget; eps too small for this path")


def panel_counts(widths, second, eps: float) -> np.ndarray:
    """Equal panels on each piece of width w: floor(w * sqrt(3*M2 / (16*eps))) + 1
    from its |z''| bound M2 in ``second``."""
    with np.errstate(over="ignore"):  # a count past the float range is inf: over every budget
        return np.floor(widths * np.sqrt(3 * second / (16 * eps))) + 1


def partition_points(breaks: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """(xs, pieces): the partition that splits each piece [breaks[k],
    breaks[k+1]] into counts[k] equal panels and ends with breaks[-1], so
    every breakpoint is a point of it, and the piece of each panel.  Panel j
    is [xs[j], xs[j+1]], and xs[j] is its piece's start or a point inside it."""
    _require_budget(counts.sum())
    counts = counts.astype(np.int64)
    pieces = np.repeat(np.arange(counts.size), counts)
    step = np.arange(pieces.size) - (np.cumsum(counts) - counts)[pieces]
    xs = np.empty(pieces.size + 1)
    np.add(breaks[pieces], (breaks[1:] - breaks[:-1])[pieces] * step / counts[pieces], out=xs[:-1])
    xs[-1] = breaks[-1]
    return xs, pieces


def polygonal_approximation(f: PiecewisePath, eps: float) -> PolygonalApproximation:
    """Closed polyline g with g(0) = f(0) = g(1) bit-exactly and sup |f-g| <= 2*eps/3,
    on the partition ``panel_counts`` gives from f's |z''| bounds."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidEpsilon(f"eps must be a positive finite number, got {eps!r}")
    counts = panel_counts(np.diff(f.breakpoints), f.second_derivative_bounds, eps)
    xs, _ = partition_points(f.breakpoints, counts)
    verts = f.values(xs)
    if verts[-1] != verts[0]:
        raise ValueError("input path is not closed: f(0) != f(1)")
    return PolygonalApproximation(path=PiecewisePath.from_vertices(verts, xs, closed=True),
                                  bound=2 * eps / 3, epsilon=eps)
