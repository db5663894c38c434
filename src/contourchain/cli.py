"""Command-line front end.

Subcommands map one-to-one onto the library operations: ``approx`` builds a
certified polyline, ``carrier`` samples a path's eta-net, ``chain`` runs the
full homotopy discretization, ``integrate`` evaluates one contour integral,
``verify`` runs ``verify_homotopy_invariance`` on a spec file's homotopy of
any kind (a star or any blend onto a constant path reports a
null-homotopy), and ``wind`` computes a winding number.

Exit codes: 0 success/pass, 1 usage or parse errors, 2 refusal (containment
or singularity clearance cannot be certified), 3 failure (deviation above
threshold, quadrature tolerance not reached, non-integer winding).

Problem specs are JSON documents; the ``SpecDocument`` docstring gives the
schema.  One builder makes every path and domain, from spec objects and
``--path`` text alike, out of two static tables, ``_PATHS`` and ``_DOMAINS``:
each kind's constructor and its fields in order, with a reader and a default.
``--path`` text gives the fields as arguments in that order (``polyline``
takes all of them as vertices).  Unknown fields, surplus arguments and empty
arguments are refused.  Complex numbers in specs and flags are written like
``1.5``, ``2i``, ``1+2i`` or ``-0.5-1i``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass

import click

from .approx import polygonal_approximation
from .errors import (
    CertificateViolation,
    ContainmentNotCertified,
    ContourChainError,
    NearSingularity,
    NonIntegerWinding,
    ParseError,
    SpecError,
    ToleranceNotReached,
)
from .expressions import AnalyticFunction, parse_function
from .geometry import Annulus, Disk, DomainDescriptor, PuncturedPlane, Rectangle
from .homotopy import Chain, Homotopy, build_chain, linear_homotopy, star_null_homotopy
from .integrate import contour_integral
from .paths import (
    PiecewisePath,
    carrier_of_path,
    circle,
    constant_path,
    ellipse,
    polyline,
    reparametrize_to_unit,
    square,
)
from .verify import verify_homotopy_invariance, winding_number

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2
EXIT_FAILED = 3

SPEC_VERSION = 1


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_complex(text: str) -> complex:
    """Parse ``a``, ``bi``, ``a+bi`` style complex literals."""
    cleaned = str(text).replace(" ", "").replace("*", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise SpecError(f"cannot parse complex number {text!r}")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise SpecError(f"complex number {text!r} is not finite")
    return value


# ---------------------------------------------------------------------------
# Spec documents: one field table per kind of path or domain, one builder
# ---------------------------------------------------------------------------

def _real(value) -> float:
    """A finite real from a JSON number or a numeric string, never a boolean."""
    z = complex(float(value)) if type(value) in (int, float) else parse_complex(value)
    if z.imag != 0 or not math.isfinite(z.real):
        raise ValueError
    return z.real


def _points(value) -> tuple[complex, ...]:
    if not isinstance(value, list):
        raise TypeError
    return tuple(parse_complex(v) for v in value)


def _integer(value) -> int:
    x = _real(value)
    if not x.is_integer():
        raise ValueError
    return int(x)


_EXPECTED = {_real: "a real number", _integer: "an integer", parse_complex: "a complex number",
             _points: "a list of complex numbers"}


def _read(read, value, what: str, key: str | None = None):
    """``read(value)``, or a SpecError saying what ``what`` (field ``key``) must be."""
    try:
        return read(value)
    except (SpecError, TypeError, ValueError, OverflowError):
        what = what if key is None else f"{what} field {key!r}"
        raise SpecError(f"{what} must be {_EXPECTED[read]}, got {value!r}") from None


def _polygon(vertices) -> PiecewisePath:
    if len(vertices) < 3:
        raise ValueError("needs at least three vertices")
    return polyline(vertices)


_REQUIRED = object()
# kind -> (constructor, {field: (reader, default)}); text arguments fill the
# fields in this order
_PATHS = {
    "unit_circle": (circle, {}),
    "circle": (circle, {"radius": (_real, 1.0), "center": (parse_complex, 0j)}),
    "ellipse": (ellipse, {"semi_re": (_real, _REQUIRED), "semi_im": (_real, _REQUIRED),
                          "center": (parse_complex, 0j)}),
    "square": (square, {"side": (_real, _REQUIRED), "center": (parse_complex, 0j)}),
    "polyline": (_polygon, {"vertices": (_points, _REQUIRED)}),
    "constant": (constant_path, {"point": (parse_complex, _REQUIRED)}),
}
_DOMAINS = {
    "disk": (Disk, {"center": (parse_complex, 0j), "radius": (_real, _REQUIRED)}),
    "annulus": (Annulus, {"center": (parse_complex, 0j), "r_inner": (_real, _REQUIRED),
                          "r_outer": (_real, _REQUIRED)}),
    "rectangle": (Rectangle, {"corner_lo": (parse_complex, _REQUIRED),
                              "corner_hi": (parse_complex, _REQUIRED)}),
    "punctured_plane": (PuncturedPlane, {"excluded": (_points, ())}),
}


def _build(table: dict, label: str, doc):
    """Construct ``doc["kind"]`` from ``table`` with the fields ``doc`` gives.

    A field the kind does not name is refused, and so is a missing field
    without a default.  A constructor's ``ValueError`` becomes a SpecError.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecError(f"{label} needs a 'kind' field")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise SpecError(f"{label} has unknown kind {kind!r} (try {', '.join(table)})")
    build, fields = table[kind]
    what = f"{kind} {label}"
    unknown = [key for key in doc if key != "kind" and key not in fields]
    if unknown:
        raise SpecError(f"{what} has no field {unknown[0]!r} "
                        f"(fields: {', '.join(fields) or 'none'})")
    args = {}
    for key, (read, default) in fields.items():
        if key in doc:
            args[key] = _read(read, doc[key], what, key)
        elif default is _REQUIRED:
            raise SpecError(f"{what} needs a {key!r} field")
        else:
            args[key] = default
    try:
        return build(**args)
    except ValueError as exc:
        raise SpecError(f"{what}: {exc}") from None


def _split_args(text: str) -> list[str]:
    """Comma-separated arguments, stripped; an empty one is refused."""
    args = [a.strip() for a in text.split(",")] if text.strip() else []
    if "" in args:
        raise SpecError(f"empty argument in {text!r}")
    return args


def path_from_text(text: str) -> PiecewisePath:
    """Build a path from ``kind`` or ``kind(arg, ...)`` text.

    The arguments fill the kind's spec fields in order; ``polyline`` takes
    them all as its ``vertices``.
    """
    name, paren, rest = text.strip().partition("(")
    if paren and not rest.endswith(")"):
        raise SpecError(f"malformed path expression {text!r}")
    kind, args = name.strip(), _split_args(rest[:-1])
    if kind not in _PATHS:
        raise SpecError(f"unknown path {kind!r} (try {', '.join(_PATHS)})")
    fields = list(_PATHS[kind][1])
    if fields == ["vertices"]:
        args = [args]
    elif len(args) > len(fields):
        raise SpecError(f"{kind} path takes at most {len(fields)} arguments "
                        f"({', '.join(fields)}), got {len(args)}")
    return _build(_PATHS, "path", {"kind": kind, **dict(zip(fields, args))})


def _typed(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (str or dict), else a SpecError."""
    if not isinstance(value, kind):
        names = {str: "a string", dict: "a JSON object"}
        raise SpecError(f"{what} must be {names[kind]}, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class SpecDocument:
    """Parsed and resolved problem description.

    A spec is one JSON object.  Complex numbers are strings such as ``"1.5"``,
    ``"2i"`` or ``"1+2i"``; reals are JSON numbers or real numeric strings.

    * ``version`` (required): 1.
    * ``paths``: an object from names to path objects, and ``domain``
      (required): one domain object.  Each has a ``kind`` from ``_PATHS`` or
      ``_DOMAINS`` and only that kind's fields, required where the table
      gives no default.  A polyline closes back to the first of its at least
      three vertices; a ``punctured_plane`` with no ``excluded`` points is the
      whole plane.
    * ``homotopy`` (required): an object with a ``kind``: ``linear`` (path
      names ``from`` and ``to``), ``constant`` (``path``) or ``star`` (``path``
      and ``center``, default 0).
    * ``function`` (required): an object with an ``expression`` string in z
      and ``poles``, a list of the complex singular points to keep clear of.
    * ``tolerances``: an object with the quadrature ``tol`` (default 1e-9)
      and the chain budget ``eps`` (default: half the certified containment
      margin; required for the whole plane, whose margin is unbounded).

    Anything of the wrong shape raises ``SpecError``.
    """

    version: int
    paths: dict
    homotopy_spec: dict
    domain: DomainDescriptor
    function: AnalyticFunction
    tol: float
    eps: float | None

    @classmethod
    def from_dict(cls, doc: dict) -> "SpecDocument":
        if not isinstance(doc, dict):
            raise SpecError("spec document must be a JSON object")
        if "version" not in doc:
            raise SpecError("spec document is missing the 'version' field")
        version = _read(_integer, doc["version"], "spec document", "version")
        if version != SPEC_VERSION:
            raise SpecError(f"unsupported spec version {doc['version']!r} (expected {SPEC_VERSION})")
        paths = _typed(doc.get("paths", {}), dict, "spec document's 'paths' section")
        paths = {name: _build(_PATHS, f"path {name!r}", spec) for name, spec in paths.items()}
        homotopy_spec = doc.get("homotopy")
        if not isinstance(homotopy_spec, dict) or "kind" not in homotopy_spec:
            raise SpecError("spec document needs a 'homotopy' section with a 'kind'")
        for key in ("from", "to", "path"):
            ref = homotopy_spec.get(key)
            if ref is not None and not (isinstance(ref, str) and ref in paths):
                raise SpecError(f"homotopy references unknown path {ref!r}")
        fn = doc.get("function")
        if not isinstance(fn, dict) or "expression" not in fn:
            raise SpecError("spec document needs a 'function' section with an 'expression'")
        expression = _typed(fn["expression"], str, "function 'expression'")
        poles = _read(_points, fn.get("poles", []), "function 'poles'")
        try:
            function = parse_function(expression, poles)
        except ParseError as exc:
            raise SpecError(f"bad function expression: {exc}")
        tolerances = _typed(doc.get("tolerances", {}), dict, "spec document's 'tolerances' section")
        tol = _read(_real, tolerances.get("tol", 1e-9), "tolerances", "tol")
        eps = tolerances.get("eps")
        eps = None if eps is None else _read(_real, eps, "tolerances", "eps")
        return cls(version=version, paths=paths, homotopy_spec=homotopy_spec,
                   domain=_build(_DOMAINS, "domain", doc.get("domain")), function=function,
                   tol=tol, eps=eps)

    @classmethod
    def from_file(cls, filename: str) -> "SpecDocument":
        try:
            with open(filename, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise SpecError(f"cannot read spec file: {exc}")
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file is not valid JSON: {exc}")
        return cls.from_dict(doc)

    def _named(self, key: str) -> PiecewisePath:
        name = self.homotopy_spec.get(key)
        if name is None:
            raise SpecError(f"homotopy of kind {self.homotopy_spec['kind']!r} needs {key!r}")
        return reparametrize_to_unit(self.paths[name])

    def build_homotopy(self) -> tuple[Homotopy, PiecewisePath, PiecewisePath]:
        kind = self.homotopy_spec["kind"]
        try:
            if kind == "linear":
                g0, g1 = self._named("from"), self._named("to")
                return linear_homotopy(g0, g1), g0, g1
            if kind == "constant":
                g = self._named("path")
                return linear_homotopy(g, g), g, g
            if kind == "star":
                sigma = star_null_homotopy(self._named("path"), self.star_center)
                return sigma, sigma.gamma0, sigma.gamma1
        except ValueError as exc:
            raise SpecError(f"{kind} homotopy: {exc}")
        raise SpecError(f"unknown homotopy kind {kind!r}")

    @property
    def star_center(self) -> complex:
        return parse_complex(self.homotopy_spec.get("center", "0"))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _write_text(filename: str, text: str):
    with open(filename, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _vertex_rows(path: PiecewisePath) -> list[str]:
    return [f"{k},{_fmt(t)},{_fmt(z.real)},{_fmt(z.imag)}"
            for k, (t, z) in enumerate(zip(path.breakpoints, path.vertices()))]


def path_csv(path: PiecewisePath) -> str:
    return "\n".join(["index,t,re,im", *_vertex_rows(path)]) + "\n"


def carrier_csv(carrier) -> str:
    lines = ["index,re,im"]
    for k, z in enumerate(carrier.net):
        lines.append(f"{k},{_fmt(z.real)},{_fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def chain_csv(chain: Chain) -> str:
    rows = (f"{m},{row}" for m, member in enumerate(chain.members) for row in _vertex_rows(member))
    return "\n".join(["member,index,t,re,im", *rows]) + "\n"


def _emit_json(obj: dict):
    click.echo(json.dumps(obj, indent=2))


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ContourChainError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            if isinstance(exc, (ContainmentNotCertified, NearSingularity)):
                sys.exit(EXIT_REFUSED)
            if isinstance(exc, (ToleranceNotReached, NonIntegerWinding, CertificateViolation)):
                sys.exit(EXIT_FAILED)
            sys.exit(EXIT_USAGE)
    return wrapper


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group()
def main():
    """Certified chains, contour integrals, and homotopy-invariance checks."""


@main.command("approx")
@click.option("--path", "path_text", required=True, help="Built-in path, e.g. unit_circle or square(2).")
@click.option("--eps", type=float, required=True, help="Approximation budget.")
@click.option("--out", "out_file", type=click.Path(), default=None, help="Write vertex CSV here.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON summary.")
@_guarded
def cmd_approx(path_text, eps, out_file, as_json):
    """Polygonal approximation of a closed path with a certified sup bound."""
    path = reparametrize_to_unit(path_from_text(path_text))
    result = polygonal_approximation(path, eps)
    if out_file:
        _write_text(out_file, path_csv(result.path))
    if as_json:
        _emit_json({"segments": result.num_segments, "bound": result.bound, "epsilon": result.epsilon})
    else:
        click.echo(f"segments: {result.num_segments}  certified bound: {_fmt(result.bound)}")


@main.command("carrier")
@click.option("--path", "path_text", required=True, help="Built-in path expression.")
@click.option("--eta", type=float, required=True, help="Net resolution.")
@click.option("--out", "out_file", type=click.Path(), default=None, help="Write net CSV here.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON summary.")
@_guarded
def cmd_carrier(path_text, eta, out_file, as_json):
    """Finite eta-net of a path's carrier."""
    path = path_from_text(path_text)
    carrier = carrier_of_path(path, eta)
    if out_file:
        _write_text(out_file, carrier_csv(carrier))
    if as_json:
        _emit_json({"points": len(carrier), "resolution": carrier.resolution})
    else:
        click.echo(f"net points: {len(carrier)}  resolution: {_fmt(carrier.resolution)}")


@main.command("chain")
@click.option("--spec", "spec_file", type=click.Path(), required=True, help="Problem spec (JSON).")
@click.option("--out", "out_file", type=click.Path(), default=None, help="Write chain CSV here.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON summary.")
@_guarded
def cmd_chain(spec_file, out_file, as_json):
    """Build the certified chain for the spec's homotopy (no integration)."""
    spec = SpecDocument.from_file(spec_file)
    sigma, g0, g1 = spec.build_homotopy()
    chain = build_chain(sigma, g0, g1, spec.domain, eps=spec.eps)
    if out_file:
        _write_text(out_file, chain_csv(chain))
    if as_json:
        _emit_json(chain.to_dict())
    else:
        click.echo(f"chain members: {len(chain.members)}  epsilon: {_fmt(chain.epsilon)}  "
                   f"margin: {_fmt(chain.containment.margin)}")
        click.echo(f"certificate: {chain.certificate.summary_text()}, all hold")


@main.command("integrate")
@click.option("--f", "expr_text", required=True, help="Integrand expression, e.g. '1/z'.")
@click.option("--poles", default="", help="Comma-separated declared singularities.")
@click.option("--path", "path_text", required=True, help="Built-in path expression.")
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Error budget.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON summary.")
@_guarded
def cmd_integrate(expr_text, poles, path_text, tol, as_json):
    """Contour integral of an analytic function along a path."""
    f = parse_function(expr_text, _read(_points, _split_args(poles), "--poles"))
    path = path_from_text(path_text)
    result = contour_integral(f, path, tol)
    if as_json:
        _emit_json({"value_re": result.value.real, "value_im": result.value.imag,
                    "error_estimate": result.error_estimate, "evaluations": result.evaluations,
                    "tol": tol})
    else:
        sign = "+" if result.value.imag >= 0 else "-"
        click.echo(f"value: {_fmt(result.value.real)} {sign} {_fmt(abs(result.value.imag))}i")
        click.echo(f"error estimate: {_fmt(result.error_estimate)}  evaluations: {result.evaluations}")


@main.command("verify")
@click.option("--spec", "spec_file", type=click.Path(), required=True, help="Problem spec (JSON).")
@click.option("--out", "out_file", type=click.Path(), default=None, help="Write chain CSV here.")
@click.option("--json", "as_json", is_flag=True, help="Emit the machine-readable summary.")
@_guarded
def cmd_verify(spec_file, out_file, as_json):
    """Verify integral invariance along the spec's homotopy; exit 0 pass, 2 refusal, 3 fail."""
    spec = SpecDocument.from_file(spec_file)
    sigma, g0, g1 = spec.build_homotopy()
    report = verify_homotopy_invariance(spec.function, g0, g1, sigma, spec.domain,
                                        spec.tol, eps=spec.eps)
    if out_file:
        _write_text(out_file, chain_csv(report.chain))
    if as_json:
        _emit_json(report.to_dict())
    else:
        click.echo(report.format_text())
    if not report.passed:
        sys.exit(EXIT_FAILED)


@main.command("wind")
@click.option("--path", "path_text", required=True, help="Built-in path expression.")
@click.option("--point", default="0", show_default=True, help="Point to wind about.")
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Quadrature budget.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON summary.")
@_guarded
def cmd_wind(path_text, point, tol, as_json):
    """Winding number of a closed path about a point."""
    path = path_from_text(path_text)
    a = parse_complex(point)
    w = winding_number(path, a, tol)
    if as_json:
        _emit_json({"winding": w, "tol": tol})
    else:
        click.echo(str(w))


if __name__ == "__main__":
    main()
