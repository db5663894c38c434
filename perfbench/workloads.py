"""Workload inputs generated from a seed, and the operations run on them.

A workload is one round of operations; the runner repeats the round until the
run time is spent.  Every parameter comes from ``random.Random`` seeded with
the workload name and the seed, so the same seed gives the same inputs.

Geometry is drawn as a similarity transform (a scale in [1, 1.2] and a
translation of at most 0.2 per axis) of fixed base problems, with poles and
winding points drawn inside their allowed ranges.  A similarity leaves
chain lengths and segment counts unchanged, so the cost of a round moves
little between seeds while the program still sees different numbers.

Operations call the package through module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

from contourchain import cli, homotopy, integrate, verify
from contourchain.expressions import parse_function
from contourchain.paths import circle, ellipse, square

from checks import (CheckFailed, Integrand, Polyline, Region, Shape, check_chain,
                    check_integral, check_winding)

TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Op:
    """One timed operation: ``run`` calls the program, ``check`` validates its output.

    ``inputs`` describes what the operation passes to the program.
    """

    family: str
    inputs: object
    run: Callable[[], object]
    check: Callable[[object], None]


def build(workload: str, seed: int) -> list[Op]:
    """The round of operations for a workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    return {"annulus_verify": _annulus_verify, "tight_chain": _tight_chain,
            "near_pole_integrals": _near_pole_integrals}[workload](rng)


# ---------------------------------------------------------------------------
# Spec documents
# ---------------------------------------------------------------------------

def _ctext(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _expression(f: Integrand) -> str:
    factors = [f"(z-({_ctext(p)}))" for p in f.poles]
    if f.kind == "exp":
        return f"exp(z)/{factors[0]}"
    return "1/" + ("(" + "*".join(factors) + ")" if len(factors) > 1 else factors[0])


def _path_spec(s: Shape) -> dict:
    spec = {"kind": s.kind, "center": _ctext(s.center)}
    if s.kind == "circle":
        spec["radius"] = s.a
    elif s.kind == "ellipse":
        spec.update(semi_re=s.a, semi_im=s.b)
    else:
        spec["side"] = 2 * s.a
    return spec


def _domain_spec(r: Region) -> dict:
    if r.kind == "disk":
        return {"kind": "disk", "center": _ctext(r.center), "radius": r.r_out}
    return {"kind": "annulus", "center": _ctext(r.center), "r_inner": r.r_in, "r_outer": r.r_out}


def _spec(gamma0: Shape, gamma1: Shape, region: Region, f: Integrand) -> dict:
    if gamma1.kind == "point":
        homotopy_spec = {"kind": "star", "path": "from", "center": _ctext(gamma1.center)}
        paths = {"from": _path_spec(gamma0)}
    else:
        homotopy_spec = {"kind": "linear", "from": "from", "to": "to"}
        paths = {"from": _path_spec(gamma0), "to": _path_spec(gamma1)}
    return {"version": 1, "paths": paths, "homotopy": homotopy_spec,
            "domain": _domain_spec(region),
            "function": {"expression": _expression(f), "poles": [_ctext(p) for p in f.poles]},
            "tolerances": {"tol": TOL}}


def _similarity(rng: random.Random) -> tuple[float, complex]:
    return rng.uniform(1.0, 1.2), complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))


def _interior(chain):
    """The chain's interior members, one at a time, so that a check holds one copy."""
    return (Polyline(m.breakpoints, m.vertices()) for m in chain.members[1:-1])


# ---------------------------------------------------------------------------
# annulus_verify: spec -> homotopy -> verify -> report, chain and quadrature
# ---------------------------------------------------------------------------

def _annulus_verify(rng: random.Random) -> list[Op]:
    s, c = _similarity(rng)
    region = Region("annulus", c, r_out=2.5 * s, r_in=0.5 * s)

    def hole_pole():
        return c + rng.uniform(0.0, 0.25 * s) * cmath.exp(2j * math.pi * rng.random())

    far_pole = c + rng.uniform(3.0 * s, 4.0 * s) * cmath.exp(2j * math.pi * rng.random())
    # The three families cost about the same (702, 651 and 691 members), so
    # the median operation is drawn from all of them, not from one family.
    families = [
        ("circle-circle", Shape("circle", c, s), Shape("circle", c, 2 * s),
         Integrand("inv", (hole_pole(),))),
        ("square-circle", Shape("square", c, s), Shape("circle", c, 1.8 * s),
         Integrand("inv2", (hole_pole(), far_pole))),
        ("circle-ellipse", Shape("circle", c, s), Shape("ellipse", c, 2 * s, s),
         Integrand("exp", (hole_pole(),))),
    ]
    return [_verify_op(name, g0, g1, region, f) for name, g0, g1, f in families]


def _verify_op(name: str, gamma0: Shape, gamma1: Shape, region: Region, f: Integrand) -> Op:
    doc = _spec(gamma0, gamma1, region, f)

    def run():
        spec = cli.SpecDocument.from_dict(doc)
        sigma, g0, g1 = spec.build_homotopy()
        report = verify.verify_homotopy_invariance(spec.function, g0, g1, sigma,
                                                   spec.domain, spec.tol)
        return report, report.to_dict()

    def check(out):
        report, summary = out
        if summary["verdict"] != "pass":
            raise CheckFailed(f"verdict {summary['verdict']}, deviation {summary['deviation']:.3g}")
        if len(summary["integrals"]) != summary["members"]:
            raise CheckFailed(f"{len(summary['integrals'])} integrals for {summary['members']} members")
        for member in summary["integrals"]:
            value = complex(member["value_re"], member["value_im"])
            check_integral(value, f, gamma0, TOL)
            check_integral(value, f, gamma1, TOL)
        bounds = [e["analytic"] for e in summary["certificate"]]
        check_chain(_interior(report.chain), bounds, gamma0, gamma1, region)

    return Op(name, doc, run, check)


# ---------------------------------------------------------------------------
# tight_chain: build_chain alone in tight domains
# ---------------------------------------------------------------------------

def _tight_chain(rng: random.Random) -> list[Op]:
    s, c = _similarity(rng)
    families = [
        ("star-square", Shape("square", c, s), Shape("point", c), Region("disk", c, 1.55 * s)),
        ("circle-circle", Shape("circle", c, s), Shape("circle", c, 1.2 * s),
         Region("annulus", c, r_out=1.4 * s, r_in=0.8 * s)),
        ("ellipse-ellipse", Shape("ellipse", c, 1.2 * s, 0.8 * s),
         Shape("ellipse", c, 1.4 * s, 1.0 * s), Region("annulus", c, r_out=1.6 * s, r_in=0.6 * s)),
    ]
    # build_chain never evaluates the function; the spec format requires one.
    f = Integrand("exp", (c,))
    return [_chain_op(name, g0, g1, region, f) for name, g0, g1, region in families]


def _chain_op(name: str, gamma0: Shape, gamma1: Shape, region: Region, f: Integrand) -> Op:
    doc = _spec(gamma0, gamma1, region, f)

    def run():
        spec = cli.SpecDocument.from_dict(doc)
        sigma, g0, g1 = spec.build_homotopy()
        return homotopy.build_chain(sigma, g0, g1, spec.domain, eps=spec.eps)

    def check(chain):
        bounds = [e.analytic for e in chain.certificate.entries]
        check_chain(_interior(chain), bounds, gamma0, gamma1, region)

    return Op(name, doc, run, check)


# ---------------------------------------------------------------------------
# near_pole_integrals: deep bisection on few segments, and both clearance loops
# ---------------------------------------------------------------------------

# Pole distances from the path, log-spaced.  Closer poles make contour_integral
# raise ToleranceNotReached at tol 1e-9 on some inputs (see CHANGES.md), so the
# ladder starts at 3e-3.  The ladder is the same for every seed, which keeps
# the bisection work of a round nearly seed-independent.
_POLE_DISTANCES = tuple(3e-3 * (1e-1 / 3e-3) ** (k / 5) for k in range(6))


def _near_pole_integrals(rng: random.Random) -> list[Op]:
    s, c = _similarity(rng)
    shapes = [Shape("circle", c, s), Shape("square", c, 0.9 * s),
              Shape("ellipse", c, 1.6 * s, s)]
    ops = []
    for shape in shapes:
        path = _builtin_path(shape)
        for side in (-1.0, 1.0):  # -1 inside the path, +1 outside
            for d in _POLE_DISTANCES:
                for kind in ("inv", "exp"):
                    pole = _offset_point(shape, side * d, rng)
                    ops.append(_integral_op(shape, path, Integrand(kind, (pole,))))
            # The winding clearance loop refines only while the raw distance
            # exceeds its net resolution, 0.05 max(1, max|vertex|); points
            # closer than that are refused (see CHANGES.md), so stay at 2.5-3x.
            eta = 0.05 * max(1.0, shape.max_modulus)
            for _ in range(2):
                point = _offset_point(shape, side * rng.uniform(2.5, 3.0) * eta, rng)
                ops.append(_winding_op(shape, path, point))
    return ops


def _builtin_path(shape: Shape):
    if shape.kind == "circle":
        return circle(center=shape.center, radius=shape.a)
    if shape.kind == "ellipse":
        return ellipse(shape.a, shape.b, center=shape.center)
    return square(2 * shape.a, center=shape.center)


def _offset_point(shape: Shape, offset: float, rng: random.Random) -> complex:
    """A point ``|offset|`` along the normal from a random foot point on the path,
    outward for offset > 0.  Square feet keep 0.2 half-sides from the corners."""
    if shape.kind == "square":
        along = rng.uniform(-0.8, 0.8) * shape.a
        side = cmath.exp(0.5j * math.pi * rng.randrange(4))
        return shape.center + side * complex(shape.a + offset, along)
    theta = 2 * math.pi * rng.random()
    foot = complex(shape.a * math.cos(theta), (shape.b or shape.a) * math.sin(theta))
    normal = complex((shape.b or shape.a) * math.cos(theta), shape.a * math.sin(theta))
    return shape.center + foot + offset * normal / abs(normal)


def _integral_op(shape: Shape, path, f: Integrand) -> Op:
    function = parse_function(_expression(f), f.poles)

    def run():
        return integrate.contour_integral(function, path, TOL)

    def check(result):
        check_integral(result.value, f, shape, TOL)

    return Op(f"{shape.kind}-{f.kind}", (shape, f), run, check)


def _winding_op(shape: Shape, path, point: complex) -> Op:
    def run():
        return verify.winding_number(path, point, TOL)

    def check(winding):
        check_winding(winding, shape, point)

    return Op(f"{shape.kind}-winding", (shape, point), run, check)
