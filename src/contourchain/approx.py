"""Certified polygonal approximation of closed paths.

Sample the path at a partition and connect the samples by straight segments;
the polyline is uniformly within 2*eps/3 of the path, and that sharper
constant is what the certificate carries.  Every breakpoint of the path is a
vertex, and one rule (``panel_counts``) splits each piece between
breakpoints, of width w, into equal panels:

* Second order, when every segment bounds |z''| (lines, arcs, ellipses).  A
  piece with bound M2 gets floor(w * sqrt(3*M2 / (16*eps))) + 1 panels, so
  every panel width h has M2*h^2/8 < 2*eps/3; the chord on a panel inside
  one C^2 piece is within M2*h^2/8 of the path.  A straight piece gets a
  single panel.
* First order, otherwise, from the piece's bound L on |z'|:
  floor(3*w*L/eps) + 1 panels, each narrower than eps/(3L).  On each panel
  the value stays within eps/3 of the left vertex and the chord stays within
  eps/3 of it too.

``Homotopy.shared_vertices`` sizes the one partition of a linear blend's
slices by the same rule, from the larger of its two end paths' bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEpsilon
from .paths import PiecewisePath, reparametrize_to_unit

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


def panel_counts(widths, first, second, eps: float) -> np.ndarray:
    """Equal panels on each piece of width w: floor(w * sqrt(3*M2 / (16*eps))) + 1
    from its |z''| bound M2 in ``second``, or, when ``second`` is None,
    floor(3*w*L/eps) + 1 from its |z'| bound L in ``first``."""
    if second is None:
        return np.floor(3 * widths * first / eps) + 1
    return np.floor(widths * np.sqrt(3 * second / (16 * eps))) + 1


def partition_points(breaks: np.ndarray, counts) -> np.ndarray:
    """Points of one partition per row of ``counts``, concatenated.

    A row splits each piece [breaks[k], breaks[k+1]] into counts[k] equal
    panels and ends with breaks[-1], so every breakpoint is a point of it.
    """
    counts = np.atleast_2d(counts)
    _require_budget(counts.sum(axis=1).max(initial=0))
    # a last piece of width 0 and one panel ends every row with breaks[-1]
    counts = np.hstack([counts, np.ones((counts.shape[0], 1))]).astype(np.int64).ravel()
    widths = np.append(np.diff(breaks), 0.0)
    flat = np.repeat(np.arange(counts.size), counts)
    piece = flat % widths.size
    step = np.arange(flat.size) - (np.cumsum(counts) - counts)[flat]
    return breaks[piece] + widths[piece] * step / counts[flat]


def polygonal_approximation(f: PiecewisePath, eps: float) -> PolygonalApproximation:
    """Closed polyline g with g(0) = f(0) = g(1) bit-exactly and sup |f-g| <= 2*eps/3.

    The second-order partition is used when f has a second-derivative bound
    on every segment, the first-order one otherwise.
    """
    eps = float(eps)
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidEpsilon(f"eps must be a positive finite number, got {eps!r}")
    f = reparametrize_to_unit(f)
    counts = panel_counts(np.diff(f.breakpoints), f.derivative_bounds,
                          f.second_derivative_bounds, eps)
    xs = partition_points(f.breakpoints, counts)
    verts = f.values(xs)
    if verts[-1] != verts[0]:
        raise ValueError("input path is not closed: f(0) != f(1)")
    return PolygonalApproximation(path=PiecewisePath.from_vertices(verts, xs, closed=True),
                                  bound=2 * eps / 3, epsilon=eps)
