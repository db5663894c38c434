"""Certified polygonal approximation of closed paths.

Sample the path at a partition and connect the samples by straight segments;
the polyline is uniformly within 2*eps/3 of the path, and that sharper
constant is what the certificate carries.  The input selects the partition:

* Second order, for a piecewise path whose every segment bounds |z''| (lines,
  arcs, ellipses and the slices of their linear blends).  Each C^2 piece of
  width w with bound M2 gets floor(w * sqrt(3*M2 / (16*eps))) + 1 equal
  panels, so every panel width h has M2*h^2/8 < 2*eps/3.  The chord on a
  panel inside one C^2 piece is within M2*h^2/8 of the path, so every piece
  breakpoint is a vertex.  A straight piece gets a single panel.
* First order, for any other path, which carries only a modulus delta: a
  uniform partition finer than delta(eps/3).  On each panel the value stays
  within eps/3 of the left vertex and the chord stays within eps/3 of it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEpsilon
from .paths import Path, PiecewisePath, reparametrize_to_unit

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
            f"partition of {panels:.0f} panels exceeds the budget; eps too small for this path")


def _first_order_partition(f: Path, eps: float) -> np.ndarray:
    """floor(1/delta) + 1 uniform panels, delta the modulus at eps/3 clipped
    below 1, so every panel is strictly narrower than delta."""
    delta = min(f.modulus.delta(eps / 3), math.nextafter(1.0, 0.0))
    n = math.floor(1.0 / delta) + 1
    _require_budget(n)
    xs = np.arange(n + 1) / n
    xs[-1] = 1.0
    return xs


def _second_order_partition(breaks: np.ndarray, m2: np.ndarray, eps: float) -> np.ndarray:
    """Equal panels on each piece, floor(w * sqrt(3*M2 / (16*eps))) + 1 of them."""
    widths = np.diff(breaks)
    counts = np.floor(widths * np.sqrt(3 * m2 / (16 * eps))) + 1
    _require_budget(counts.sum())
    counts = counts.astype(np.int64)
    piece = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    step = np.arange(piece.size) - first[piece]
    xs = breaks[piece] + widths[piece] * step / counts[piece]
    return np.append(xs, breaks[-1])


def polygonal_approximation(f: Path, eps: float) -> PolygonalApproximation:
    """Closed polyline g with g(0) = f(0) = g(1) bit-exactly and sup |f-g| <= 2*eps/3.

    The second-order partition is used when f is a piecewise path with a
    second-derivative bound on every segment, the first-order one otherwise.
    """
    eps = float(eps)
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidEpsilon(f"eps must be a positive finite number, got {eps!r}")
    f = reparametrize_to_unit(f)
    m2 = f.second_derivative_bounds if isinstance(f, PiecewisePath) else None
    if m2 is None:
        xs = _first_order_partition(f, eps)
    else:
        xs = _second_order_partition(f.breakpoints, m2, eps)
    verts = f.values(xs)
    if verts[-1] != verts[0]:
        raise ValueError("input path is not closed: f(0) != f(1)")
    return PolygonalApproximation(path=PiecewisePath.from_vertices(verts, xs, closed=True),
                                  bound=2 * eps / 3, epsilon=eps)
