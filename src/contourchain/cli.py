"""Command-line front end.

Subcommands map one-to-one onto the library operations: ``approx`` builds a
certified polyline, ``chain`` runs the full homotopy discretization,
``integrate`` evaluates one contour integral, ``verify`` runs
``verify_homotopy_invariance`` on a spec file's homotopy of any kind (a star
or any blend onto a constant path reports a null-homotopy), and ``wind``
counts a winding number exactly.

Exit codes: 0 success/pass, 1 usage or parse errors (click's own included),
2 refusal (a chain member or pair, or a singularity's or winding point's
clearance, cannot be certified within the budgets, or a declared singularity
lies inside the domain), 3 failure (deviation above threshold, quadrature
tolerance not reached).

Problem specs are JSON documents whose schema is a set of field tables (see
``SpecDocument``): each row a constructor and its fields in order, each with
a reader and a default.  One field loop, ``_construct``, reads every section
and ``--path`` text, whose arguments fill a path's fields in order
(``polyline`` takes them all as vertices).  It refuses unknown, missing,
surplus and empty fields.  Complex numbers look like ``1.5``, ``2i``,
``1+2i`` or ``-0.5-1i``.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from dataclasses import dataclass

import click

from .approx import polygonal_approximation
from .errors import (
    ContainmentNotCertified,
    ContourChainError,
    NearSingularity,
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
    circle,
    constant_path,
    ellipse,
    polyline,
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


# A complex literal: no whitespace or '*' but about its one joining sign (a
# sign after a digit or a point, unlike an exponent's sign, which follows e
# or E), and a '*' between a number and its i.  Each part stops at
# whitespace or '*', so a match takes time linear in the text.
_LITERAL = re.compile(r"([^\s*]*)(?:(?<=[\d.])(?:\s+([+-])\s*|([+-])\s+)([^\s*]*))?"
                      r"(?:(?<=[\d.])\*(?=i))?([^\s*]*)")


def parse_complex(text: str) -> complex:
    """Parse ``a``, ``bi``, ``a+bi`` style complex literals.

    Whitespace may stand at the ends and around the sign that joins the two
    parts, and ``*`` only between a number and its ``i`` (``2*i``).  Anything
    else is refused, so ``"1 2"``, ``"2**3"`` or ``"1+2*3i"`` is never read
    as another number.  What is left, with ``i`` for ``j``, is read by
    ``complex``."""
    literal = _LITERAL.fullmatch(str(text).strip())
    try:
        if literal is None:
            raise ValueError
        value = complex("".join(literal.groups("")).replace("i", "j"))
    except ValueError:
        raise SpecError(f"cannot parse complex number {text!r}")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise SpecError(f"complex number {text!r} is not finite")
    return value


# ---------------------------------------------------------------------------
# Spec documents: one field table per section or kind, one field loop
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


def _version(value) -> int:
    if _real(value) != SPEC_VERSION:
        raise ValueError
    return SPEC_VERSION


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError
    return value


def _given(value):  # a section, or a path name that a homotopy looks up
    return value


_EXPECTED = {_real: "a real number", _version: str(SPEC_VERSION), parse_complex: "a complex number",
             _points: "a list of complex numbers", _string: "a string"}


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


def _named_path(paths: dict, name) -> PiecewisePath:
    if not (isinstance(name, str) and name in paths):
        raise SpecError(f"homotopy references unknown path {name!r}")
    return paths[name]


# Homotopy constructors take the spec's paths first, and look their functions
# up as module globals when called, so that a wrapper set here sees the call.
def _linear(paths: dict, **ends) -> Homotopy:  # the fields "from" and "to"
    return linear_homotopy(_named_path(paths, ends["from"]), _named_path(paths, ends["to"]))


def _constant(paths: dict, path) -> Homotopy:
    g = _named_path(paths, path)
    return linear_homotopy(g, g)


def _star(paths: dict, path, center: complex) -> Homotopy:
    return star_null_homotopy(_named_path(paths, path), center)


def _function(expression: str, poles: tuple[complex, ...]) -> AnalyticFunction:
    try:
        return parse_function(expression, poles)
    except ParseError as exc:
        raise SpecError(f"bad function expression: {exc}") from None


_REQUIRED = object()
# A row is (constructor, {field: (reader, default)}).  Kind tables map each
# kind to its row; text arguments fill a path's fields in this order.
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
_HOMOTOPIES = {
    "linear": (_linear, {"from": (_given, _REQUIRED), "to": (_given, _REQUIRED)}),
    "constant": (_constant, {"path": (_given, _REQUIRED)}),
    "star": (_star, {"path": (_given, _REQUIRED), "center": (parse_complex, 0j)}),
}
# The kindless sections, and the document itself
_FUNCTION = (_function, {"expression": (_string, _REQUIRED), "poles": (_points, ())})
_TOLERANCES = (dict, {"tol": (_real, 1e-9), "eps": (_real, None)})
_SPEC = (dict, {"version": (_version, _REQUIRED), "paths": (_given, {}),
                "domain": (_given, _REQUIRED), "homotopy": (_given, _REQUIRED),
                "function": (_given, _REQUIRED), "tolerances": (_given, {})})


def _construct(row, what: str, doc, *context):
    """``row``'s constructor called with ``context`` and the fields of the
    object ``doc``, each through its reader.  A field the row does not name
    is refused, and so is a missing field without a default.  A
    constructor's ``ValueError`` becomes a SpecError."""
    build, fields = row
    if not isinstance(doc, dict):
        raise SpecError(f"{what} must be a JSON object, got {doc!r}")
    unknown = [key for key in doc if key not in fields]
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
        return build(*context, **args)
    except ValueError as exc:
        raise SpecError(f"{what}: {exc}") from None


def _build(table: dict, label: str, doc, *context):
    """``_construct`` with the row of ``doc["kind"]`` in ``table``."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecError(f"{label} needs a 'kind' field")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise SpecError(f"{label} has unknown kind {kind!r} (try {', '.join(table)})")
    fields = {key: value for key, value in doc.items() if key != "kind"}
    return _construct(table[kind], f"{kind} {label}", fields, *context)


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
    return _construct(_PATHS[kind], f"{kind} path", dict(zip(fields, args)))


@dataclass(frozen=True, eq=False)
class SpecDocument:
    """Parsed and resolved problem description: one JSON object whose schema
    is the field tables, each section read by ``_construct``.

    * ``version`` (required): 1.
    * ``paths``: names to path objects of a kind in ``_PATHS``; a polyline
      closes back to the first of its at least three vertices.
    * ``domain`` (required): a kind in ``_DOMAINS``; a ``punctured_plane``
      with no ``excluded`` points is the whole plane.
    * ``homotopy`` (required): a kind in ``_HOMOTOPIES`` whose path fields
      name ``paths``; it is built as the spec is read.
    * ``function`` (required, ``_FUNCTION``): an ``expression`` in z and the
      ``poles`` to keep clear of.
    * ``tolerances`` (``_TOLERANCES``): the quadrature ``tol``, and ``eps``,
      an optional cap on every certified pair bound of the chain (by default
      a pair is bounded by its members' clearances alone).

    Complex numbers are strings such as ``"1.5"``, ``"2i"`` or ``"1+2i"``;
    reals are JSON numbers or real numeric strings.  Anything unknown,
    missing or of the wrong shape raises ``SpecError``.
    """

    version: int
    paths: dict
    homotopy: Homotopy
    domain: DomainDescriptor
    function: AnalyticFunction
    tol: float
    eps: float | None

    @classmethod
    def from_dict(cls, doc: dict) -> "SpecDocument":
        spec = _construct(_SPEC, "spec document", doc)
        if not isinstance(spec["paths"], dict):
            raise SpecError(f"'paths' section must be a JSON object, got {spec['paths']!r}")
        paths = {name: _build(_PATHS, f"path {name!r}", path) for name, path in spec["paths"].items()}
        return cls(version=spec["version"], paths=paths,
                   homotopy=_build(_HOMOTOPIES, "homotopy", spec["homotopy"], paths),
                   function=_construct(_FUNCTION, "function", spec["function"]),
                   domain=_build(_DOMAINS, "domain", spec["domain"]),
                   **_construct(_TOLERANCES, "tolerances", spec["tolerances"]))

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

    def build_homotopy(self) -> tuple[Homotopy, PiecewisePath, PiecewisePath]:
        """The homotopy, built as the spec was read, and its two end paths."""
        return self.homotopy, self.homotopy.gamma0, self.homotopy.gamma1


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _write_text(filename: str, text: str):
    with open(filename, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _vertex_rows(breakpoints, vertices) -> list[str]:
    return [f"{k},{_fmt(t)},{_fmt(z.real)},{_fmt(z.imag)}"
            for k, (t, z) in enumerate(zip(breakpoints, vertices))]


def path_csv(path: PiecewisePath) -> str:
    return "\n".join(["index,t,re,im", *_vertex_rows(path.breakpoints, path.vertices())]) + "\n"


def chain_csv(chain: Chain) -> str:
    """One block of rows per member; an interior member's vertices are its
    row, closed on its first vertex as a closed polyline is."""
    members = [(chain.gamma0.breakpoints, chain.gamma0.vertices()),
               *((chain.breakpoints, [*row[:-1], row[0]]) for row in chain.rows),
               (chain.gamma1.breakpoints, chain.gamma1.vertices())]
    rows = (f"{m},{row}" for m, member in enumerate(members) for row in _vertex_rows(*member))
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
            if isinstance(exc, ToleranceNotReached):
                sys.exit(EXIT_FAILED)
            sys.exit(EXIT_USAGE)
    return wrapper


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

class _Group(click.Group):
    """A command group whose usage errors (a missing or malformed option, an
    unknown command) exit with EXIT_USAGE, not click's own 2, which the exit
    codes reserve for refusals.  Click still prints its message."""

    def make_context(self, *args, **kwargs):
        return _usage_exit(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_exit(super().invoke, ctx)


def _usage_exit(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_USAGE
        raise


@click.group(cls=_Group)
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
    path = path_from_text(path_text)
    result = polygonal_approximation(path, eps)
    if out_file:
        _write_text(out_file, path_csv(result.path))
    if as_json:
        _emit_json({"segments": result.num_segments, "bound": result.bound, "epsilon": result.epsilon})
    else:
        click.echo(f"segments: {result.num_segments}  certified bound: {_fmt(result.bound)}")


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
        cap = "" if chain.epsilon is None else f"  eps cap: {_fmt(chain.epsilon)}"
        click.echo(f"chain members: {len(chain)}  "
                   f"smallest member clearance (margin): {_fmt(chain.margin)}{cap}")
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
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON summary.")
@_guarded
def cmd_wind(path_text, point, as_json):
    """Exact winding number of a closed path about a point, counted on a
    certified polyline; exit 2 when the point is not certifiably clear."""
    path = path_from_text(path_text)
    w = winding_number(path, parse_complex(point))
    if as_json:
        _emit_json({"winding": w})
    else:
        click.echo(str(w))


if __name__ == "__main__":
    main()
