"""Command-line front end.

Subcommands map one-to-one onto the library operations: ``approx`` builds a
certified polyline, ``carrier`` samples a path net, ``chain`` runs the full
homotopy discretization, ``integrate`` evaluates one contour integral,
``verify`` runs an invariance or null-homotopy verification from a spec file,
and ``wind`` computes a winding number.

Exit codes: 0 success/pass, 1 usage or parse errors, 2 refusal (containment
or singularity clearance cannot be certified), 3 failure (deviation above
threshold, quadrature tolerance not reached, non-integer winding).

Problem specs are JSON documents with a ``version`` field and sections
``paths``, ``homotopy``, ``domain``, ``function``, ``tolerances``; see the
README for the schema.  Complex numbers in specs and flags are written like
``1.5``, ``2i``, ``1+2i`` or ``-0.5-1i``.
"""

from __future__ import annotations

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
    EndpointMismatch,
    InvalidEpsilon,
    MismatchedDomains,
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
from .verify import verify_homotopy_invariance, verify_null_homotopic, winding_number

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
    if cleaned in ("j", "+j"):
        cleaned = "1j"
    elif cleaned == "-j":
        cleaned = "-1j"
    try:
        value = complex(cleaned)
    except ValueError:
        raise SpecError(f"cannot parse complex number {text!r}")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise SpecError(f"complex number {text!r} is not finite")
    return value


def _real_arg(value, what: str) -> float:
    z = parse_complex(value) if isinstance(value, str) else complex(value)
    if z.imag != 0:
        raise SpecError(f"{what} must be real, got {value!r}")
    return z.real


def build_named_path(text: str) -> PiecewisePath:
    """Build a built-in path from ``name`` or ``name(arg, ...)`` text."""
    text = text.strip()
    if "(" in text:
        name, _, rest = text.partition("(")
        if not rest.endswith(")"):
            raise SpecError(f"malformed path expression {text!r}")
        args = [a for a in rest[:-1].split(",") if a.strip()]
    else:
        name, args = text, []
    name = name.strip()
    if name == "unit_circle":
        if args:
            raise SpecError("unit_circle takes no arguments")
        return circle()
    if name == "circle":
        radius = _real_arg(args[0], "radius") if args else 1.0
        center = parse_complex(args[1]) if len(args) > 1 else 0j
        return circle(center=center, radius=radius)
    if name == "ellipse":
        if len(args) < 2:
            raise SpecError("ellipse(a, b) needs two semi-axes")
        center = parse_complex(args[2]) if len(args) > 2 else 0j
        return ellipse(_real_arg(args[0], "semi-axis"), _real_arg(args[1], "semi-axis"), center=center)
    if name == "square":
        if len(args) < 1:
            raise SpecError("square(s) needs a side length")
        center = parse_complex(args[1]) if len(args) > 1 else 0j
        return square(_real_arg(args[0], "side"), center=center)
    if name == "polyline":
        if len(args) < 3:
            raise SpecError("polyline(v1, v2, v3, ...) needs at least three vertices")
        return polyline([parse_complex(a) for a in args], closed=True)
    if name == "constant":
        if len(args) != 1:
            raise SpecError("constant(c) needs exactly one point")
        return constant_path(parse_complex(args[0]))
    raise SpecError(f"unknown path {name!r} (try unit_circle, circle, ellipse, square, polyline)")


def _parse_poles(text: str) -> tuple[complex, ...]:
    if not text or not text.strip():
        return ()
    return tuple(parse_complex(p) for p in text.split(","))


# ---------------------------------------------------------------------------
# Spec documents
# ---------------------------------------------------------------------------

_PATH_KINDS = {"circle", "ellipse", "square", "polyline", "constant", "unit_circle"}
_REQUIRED = object()


def _field(d: dict, key: str, what: str, default=_REQUIRED):
    value = d.get(key, default)
    if value is _REQUIRED:
        raise SpecError(f"{what} needs a {key!r} field")
    return value


def _real_field(d: dict, key: str, what: str, default=_REQUIRED) -> float:
    value = _field(d, key, what, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SpecError(f"{what} field {key!r} must be a real number, got {value!r}")


def _int_field(d: dict, key: str, what: str) -> int:
    value = _field(d, key, what)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise SpecError(f"{what} field {key!r} must be an integer, got {value!r}")


def _path_from_dict(name: str, d: dict) -> PiecewisePath:
    if not isinstance(d, dict) or "kind" not in d:
        raise SpecError(f"path {name!r} needs a 'kind' field")
    kind = d["kind"]
    if kind not in _PATH_KINDS:
        raise SpecError(f"path {name!r} has unknown kind {kind!r}")
    what = f"{kind} path {name!r}"
    center = parse_complex(d.get("center", "0"))
    if kind == "unit_circle":
        path = circle()
    elif kind == "circle":
        path = circle(center=center, radius=_real_field(d, "radius", what, 1.0))
    elif kind == "ellipse":
        path = ellipse(_real_field(d, "semi_re", what), _real_field(d, "semi_im", what),
                       center=center)
    elif kind == "square":
        path = square(_real_field(d, "side", what), center=center)
    elif kind == "constant":
        path = constant_path(parse_complex(_field(d, "point", what)))
    else:
        verts = [parse_complex(v) for v in d.get("vertices", [])]
        if len(verts) < 3:
            raise SpecError(f"polyline path {name!r} needs at least three vertices")
        path = polyline(verts, closed=bool(d.get("closed", True)))
    lip = _real_field(d, "lipschitz", what) if "lipschitz" in d else None
    if lip is not None and lip < path.lipschitz_bound:
        raise SpecError(
            f"path {name!r} declares lipschitz={lip} below the automatic bound "
            f"{path.lipschitz_bound:.6g}; an explicit modulus may only be more conservative")
    return path


def _domain_from_dict(d: dict) -> DomainDescriptor:
    if not isinstance(d, dict) or "kind" not in d:
        raise SpecError("domain needs a 'kind' field")
    kind = d["kind"]
    what = f"{kind} domain"
    if kind == "disk":
        return Disk(parse_complex(d.get("center", "0")), _real_field(d, "radius", what))
    if kind == "annulus":
        return Annulus(parse_complex(d.get("center", "0")),
                       _real_field(d, "r_inner", what), _real_field(d, "r_outer", what))
    if kind == "rectangle":
        return Rectangle(parse_complex(_field(d, "corner_lo", what)),
                         parse_complex(_field(d, "corner_hi", what)))
    if kind == "punctured_plane":
        return PuncturedPlane(tuple(parse_complex(p) for p in d.get("excluded", [])))
    raise SpecError(f"unknown domain kind {kind!r}")


@dataclass(frozen=True, eq=False)
class SpecDocument:
    """Parsed and resolved problem description."""

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
        version = _int_field(doc, "version", "spec document")
        if version != SPEC_VERSION:
            raise SpecError(f"unsupported spec version {doc['version']!r} (expected {SPEC_VERSION})")
        if "domain" not in doc:
            raise SpecError("spec document needs exactly one 'domain' section")
        paths = {name: _path_from_dict(name, spec)
                 for name, spec in doc.get("paths", {}).items()}
        homotopy_spec = doc.get("homotopy")
        if not isinstance(homotopy_spec, dict) or "kind" not in homotopy_spec:
            raise SpecError("spec document needs a 'homotopy' section with a 'kind'")
        for key in ("from", "to", "path"):
            ref = homotopy_spec.get(key)
            if ref is not None and ref not in paths:
                raise SpecError(f"homotopy references unknown path {ref!r}")
        fn = doc.get("function")
        if not isinstance(fn, dict) or "expression" not in fn:
            raise SpecError("spec document needs a 'function' section with an 'expression'")
        try:
            function = parse_function(fn["expression"],
                                      tuple(parse_complex(p) for p in fn.get("poles", [])))
        except ParseError as exc:
            raise SpecError(f"bad function expression: {exc}")
        tolerances = doc.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise SpecError("spec document's 'tolerances' section must be a JSON object")
        tol = _real_field(tolerances, "tol", "tolerances", 1e-9)
        eps = None if tolerances.get("eps") is None else _real_field(tolerances, "eps", "tolerances")
        return cls(version=version, paths=paths, homotopy_spec=homotopy_spec,
                   domain=_domain_from_dict(doc["domain"]), function=function,
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
        if kind == "linear":
            g0, g1 = self._named("from"), self._named("to")
            return linear_homotopy(g0, g1), g0, g1
        if kind == "constant":
            g = self._named("path")
            return linear_homotopy(g, g), g, g
        if kind == "star":
            g = self._named("path")
            center = parse_complex(self.homotopy_spec.get("center", "0"))
            sigma = star_null_homotopy(g, center)
            return sigma, sigma.gamma0, sigma.gamma1
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


def path_csv(path: PiecewisePath) -> str:
    lines = ["index,t,re,im"]
    breaks = path.breakpoints
    verts = path.vertices()
    for k in range(len(verts)):
        lines.append(f"{k},{_fmt(breaks[k])},{_fmt(verts[k].real)},{_fmt(verts[k].imag)}")
    return "\n".join(lines) + "\n"


def carrier_csv(carrier) -> str:
    lines = ["index,re,im"]
    for k, z in enumerate(carrier.net):
        lines.append(f"{k},{_fmt(z.real)},{_fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def chain_csv(chain: Chain) -> str:
    lines = ["member,index,t,re,im"]
    for m, member in enumerate(chain.members):
        breaks = member.breakpoints
        verts = member.vertices()
        for k in range(len(verts)):
            lines.append(f"{m},{k},{_fmt(breaks[k])},{_fmt(verts[k].real)},{_fmt(verts[k].imag)}")
    return "\n".join(lines) + "\n"


def _emit_json(obj: dict):
    click.echo(json.dumps(obj, indent=2))


def _handle(exc: ContourChainError):
    click.echo(f"error: {exc}", err=True)
    if isinstance(exc, (ContainmentNotCertified, NearSingularity)):
        sys.exit(EXIT_REFUSED)
    if isinstance(exc, (ToleranceNotReached, NonIntegerWinding, CertificateViolation)):
        sys.exit(EXIT_FAILED)
    sys.exit(EXIT_USAGE)


def _guarded(fn):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ContourChainError as exc:
            _handle(exc)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
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
    path = reparametrize_to_unit(build_named_path(path_text))
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
    path = build_named_path(path_text)
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
    f = parse_function(expr_text, _parse_poles(poles))
    path = build_named_path(path_text)
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
    kind = spec.homotopy_spec["kind"]
    if kind == "star":
        gamma = spec._named("path")
        report = verify_null_homotopic(spec.function, gamma, spec.star_center,
                                       spec.domain, spec.tol, eps=spec.eps)
    else:
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
    path = build_named_path(path_text)
    a = parse_complex(point)
    w = winding_number(path, a, tol)
    if as_json:
        _emit_json({"winding": w, "tol": tol})
    else:
        click.echo(str(w))


if __name__ == "__main__":
    main()
