"""Shared generators and oracles for the test suite."""

import cmath
import math
import random
import re

import numpy as np
import pytest
from hypothesis import settings

from contourchain import ParseError, PiecewisePath, circle, ellipse, polyline, square

# Every run draws the same examples: each property test keeps its own
# max_examples and deadline, and only the seed is fixed.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def random_builtin_path(rng: random.Random):
    """One of the built-in closed path families with random parameters."""
    kind = rng.choice(["circle", "ellipse", "square", "polyline"])
    if kind == "circle":
        return circle(center=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                      radius=rng.uniform(0.3, 1.5))
    if kind == "ellipse":
        return ellipse(rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5),
                       center=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    if kind == "square":
        return square(rng.uniform(0.4, 2.0),
                      center=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return random_polyline(rng, rng.randint(3, 7), radius=rng.uniform(0.4, 1.4))


def random_polyline(rng: random.Random, n_vertices: int, radius: float = 1.0,
                    center: complex = 0j):
    """Closed star-shaped polyline about ``center`` (vertices sorted by angle,
    so the polyline never degenerates)."""
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n_vertices))
    verts = [center + rng.uniform(0.3, 1.0) * radius * cmath.exp(1j * a) for a in angles]
    return polyline(verts, closed=True)


def counted_vertex_rows(monkeypatch) -> list:
    """The arguments of every ``PiecewisePath.from_vertex_rows`` call from now on."""
    calls = []
    make = PiecewisePath.from_vertex_rows.__func__
    monkeypatch.setattr(PiecewisePath, "from_vertex_rows", classmethod(
        lambda cls, *args, **kwargs: calls.append(args) or make(cls, *args, **kwargs)))
    return calls


def counted_calls(monkeypatch, owner, name: str) -> list:
    """The arguments of every call of the function, method or static method
    ``owner.name`` from now on."""
    calls, raw = [], owner.__dict__[name]
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name,
                        staticmethod(counted) if isinstance(raw, staticmethod) else counted)
    return calls


# The expression tokenizer that one ``findall`` scan replaced, kept as the
# oracle: one match object per token, kinds by group name, ``finditer``
# offsets.
_FINDITER_TOKENS = re.compile(
    r"(?P<NUMBER>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)|(?P<NAME>[A-Za-z]+)"
    r"|(?P<OP>[-+*/^()])|(?P<SPACE>\s+)|(?P<OTHER>.)", re.ASCII | re.DOTALL)


def finditer_tokens(text: str) -> tuple[list, list, list]:
    """(kinds, texts, offsets) of ``text``, an EOF entry last, by the
    ``finditer`` tokenizer, or its ParseError at the first stray character."""
    kinds, texts, offsets = [], [], []
    for match in _FINDITER_TOKENS.finditer(text):
        kind, word = match.lastgroup, match.group()
        if kind == "OTHER":
            raise ParseError(f"unexpected character {word!r}", match.start(),
                             {"number", "name", "operator"})
        if kind != "SPACE":
            kinds.append(word if kind == "OP" else kind)
            texts.append(word)
            offsets.append(match.start())
    return kinds + ["EOF"], texts + [""], offsets + [len(text)]


def _dense_grid(n: int) -> np.ndarray:
    """n + 1 equally spaced points of [0, 1], where every path lives."""
    return np.arange(n + 1) / n


def dense_sup(p, q, n: int = 10_000) -> float:
    """Maximum of |p - q| sampled on a uniform grid of n + 1 points.

    Every sample is attained, so this is a lower bound on sup |p - q|, not the
    sup itself: compare it only with upper bounds (see ``dense_sup_upper``).
    """
    xs = _dense_grid(n)
    return float(np.abs(p.values(xs) - q.values(xs)).max())


def dense_sup_upper(p, q, n: int = 10_000) -> float:
    """Certified upper bound on sup |p - q| from the same grid as ``dense_sup``.

    Every parameter lies within h/2 of a grid point, where h is the widest
    grid gap, and |p - q| is (L_p + L_q)-Lipschitz for the paths' Lipschitz
    bounds, so the sampled maximum plus (L_p + L_q) * h / 2 bounds the sup.
    """
    h = float(np.diff(_dense_grid(n)).max())
    return dense_sup(p, q, n) + (p.lipschitz_bound + q.lipschitz_bound) * h / 2


def slice_values(sigma, ts, xs) -> np.ndarray:
    """The homotopy's slices at the times ``ts`` on the points ``xs``, one row
    per t, read through ``sigma.rows`` from both end paths' values at xs."""
    xs = np.asarray(xs, dtype=np.float64)
    return sigma.rows(ts, sigma.gamma0.values(xs), sigma.gamma1.values(xs))


def slice_sup_upper(member, sigma, t: float, n: int) -> float:
    """Certified upper bound on sup |member - slice of ``sigma`` at t|.

    The slice's values on a grid of n + 1 points of [0, 1] are
    ``slice_values(sigma, [t], xs)``, and the slice is
    sigma.lipschitz-Lipschitz in x, so the grid maximum plus
    (L_member + sigma.lipschitz) * h / 2 bounds the sup, as in
    ``dense_sup_upper``.
    """
    xs = np.arange(n + 1) / n
    gap = float(np.abs(member.values(xs) - slice_values(sigma, [t], xs)[0]).max())
    h = float(np.diff(xs).max())
    return gap + (member.lipschitz_bound + sigma.lipschitz) * h / 2


# Antiderivative oracles for the entire functions used in corollary tests:
# each maps an expression label to (integrand text, antiderivative callable).
ENTIRE_FUNCTIONS = {
    "poly": ("z^2 - 3*z + 2",
             lambda z: z ** 3 / 3 - 1.5 * z ** 2 + 2 * z),
    "exp": ("exp(z)", cmath.exp),
    "sin": ("sin(z)", lambda z: -cmath.cos(z)),
}


@pytest.fixture
def rng():
    """A freshly seeded generator per test, so what a test draws does not
    depend on which tests ran before it."""
    return random.Random(20260810)
