import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import contourchain
from contourchain import cli
from contourchain.cli import EXIT_FAILED, EXIT_OK, EXIT_REFUSED, EXIT_USAGE, SpecDocument, main
from contourchain.errors import ContourChainError, SpecError
from contourchain.homotopy import build_chain
from conftest import counted_vertex_rows


def _spec(**overrides):
    doc = {
        "version": 1,
        "paths": {"inner": {"kind": "circle", "radius": 1.0},
                  "outer": {"kind": "circle", "radius": 1.5}},
        "homotopy": {"kind": "linear", "from": "inner", "to": "outer"},
        "domain": {"kind": "annulus", "r_inner": 0.5, "r_outer": 2.5},
        "function": {"expression": "1/z", "poles": ["0"]},
        "tolerances": {"tol": 1e-9},
    }
    doc.update(overrides)
    return doc


def _run(tmp_path, command, doc, *extra):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(doc))
    return CliRunner().invoke(main, [command, "--spec", str(spec_file), *extra])


class TestSpecEps:
    def test_verify_reports_the_spec_eps(self, tmp_path):
        doc = _spec(tolerances={"tol": 1e-9, "eps": 0.05})
        chain = _run(tmp_path, "chain", doc, "--json")
        verify = _run(tmp_path, "verify", doc, "--json")
        assert chain.exit_code == 0 and verify.exit_code == 0, verify.output
        assert json.loads(chain.stdout)["epsilon"] == 0.05
        report = json.loads(verify.stdout)
        assert report["epsilon"] == 0.05
        assert report["verdict"] == "pass"

    def test_bad_eps_refused_like_chain(self, tmp_path):
        doc = _spec(tolerances={"tol": 1e-9, "eps": -1.0})
        chain = _run(tmp_path, "chain", doc)
        verify = _run(tmp_path, "verify", doc)
        assert chain.exit_code == verify.exit_code == EXIT_USAGE
        assert "eps must be a positive finite number, got -1.0" in verify.stderr
        assert verify.stderr == chain.stderr

    def test_eps_caps_every_pair_bound(self, tmp_path):
        # an eps above every clearance caps nothing; a small one caps every
        # bound and takes more members
        members = {}
        for eps in (10.0, 0.05):
            result = _run(tmp_path, "chain", _spec(tolerances={"tol": 1e-9, "eps": eps}), "--json")
            assert result.exit_code == EXIT_OK, result.output
            summary = json.loads(result.stdout)
            assert all(e["sampled_hi"] < e["analytic"] <= eps for e in summary["certificate"])
            members[eps] = summary["members"]
        assert members[10.0] < members[0.05]


class TestIdentityHomotopy:
    def test_two_member_chain(self, tmp_path):
        # sigma(t, x) = gamma(x) does not move in time, so one time step
        # certifies it: the chain is gamma twice, 0 apart
        doc = _spec(homotopy={"kind": "constant", "path": "inner"})
        result = _run(tmp_path, "chain", doc, "--json")
        assert result.exit_code == 0, result.output
        summary = json.loads(result.stdout)
        assert summary["members"] == 2
        assert summary["certificate"][0]["sampled_lo"] == 0.0


@pytest.mark.parametrize("overrides, field", [
    ({"paths": {"inner": {"kind": "ellipse", "semi_re": 2.0}}}, "semi_im"),
    ({"paths": {"inner": {"kind": "square"}}}, "side"),
    ({"paths": {"inner": {"kind": "constant"}}}, "point"),
    ({"domain": {"kind": "annulus", "r_inner": 0.5}}, "r_outer"),
    ({"domain": {"kind": "annulus"}}, "r_inner"),
    ({"domain": {"kind": "disk"}}, "radius"),
])
def test_missing_spec_field_is_a_usage_error(tmp_path, overrides, field):
    doc = _spec(**overrides)
    if "paths" in overrides:
        doc["homotopy"] = {"kind": "constant", "path": "inner"}
    for command in ("chain", "verify"):
        result = _run(tmp_path, command, doc)
        assert result.exit_code == EXIT_USAGE
        assert isinstance(result.exception, SystemExit)
        assert f"needs a {field!r} field" in result.stderr


@pytest.mark.parametrize("overrides, field", [
    ({"version": None}, "version"),
    ({"version": [1]}, "version"),
    ({"tolerances": {"tol": None}}, "tol"),
    ({"tolerances": {"tol": 1e-9, "eps": [0.05]}}, "eps"),
    ({"paths": {"inner": {"kind": "circle", "radius": 10 ** 400},
                "outer": {"kind": "circle", "radius": 1.5}}}, "radius"),
    ({"version": 1.9}, "version"),
    ({"paths": {"inner": {"kind": "circle", "radius": True},
                "outer": {"kind": "circle", "radius": 1.5}}}, "radius"),
])
def test_null_or_non_numeric_spec_field_is_a_usage_error(tmp_path, overrides, field):
    doc = _spec(**overrides)
    for command in ("chain", "verify"):
        result = _run(tmp_path, command, doc)
        assert result.exit_code == EXIT_USAGE
        assert isinstance(result.exception, SystemExit)
        assert f"field {field!r} must be" in result.stderr


@pytest.mark.parametrize("section, value, field", [
    ("inner", {"kind": "circle", "radius": 1.0, "lipschitz": None}, "lipschitz"),
    ("inner", {"kind": "polyline", "vertices": ["1", "i", "-1"], "closed": False}, "closed"),
    ("inner", {"kind": "circle", "raduis": 2}, "raduis"),
    ("inner", {"kind": "unit_circle", "center": "5"}, "center"),
    ("domain", {"kind": "annulus", "r_inner": 0.5, "r_outer": 2.5, "radius": 3}, "radius"),
    ("homotopy", {"kind": "constant", "path": "inner", "bogus": 1}, "bogus"),
    ("homotopy", {"kind": "linear", "from": "inner", "to": "outer", "center": "0"}, "center"),
    ("function", {"expression": "1/z", "pole": ["0"]}, "pole"),
    ("tolerances", {"tl": 1e-3}, "tl"),
    ("tolerances", {"tol": 1e-9, "epsilon": 0.01}, "epsilon"),
    ("comment", "a top-level note", "comment"),
], ids=["lipschitz", "closed", "raduis", "unit_circle-center", "annulus-radius",
        "homotopy-bogus", "linear-center", "function-pole", "tolerances-tl",
        "tolerances-epsilon", "top-level-comment"])
def test_unknown_spec_field_is_a_usage_error(tmp_path, section, value, field):
    doc = _spec(homotopy={"kind": "constant", "path": "inner"})
    if section == "inner":
        doc["paths"][section] = value
    else:
        doc[section] = value
    for command in ("chain", "verify"):
        result = _run(tmp_path, command, doc)
        assert result.exit_code == EXIT_USAGE
        assert isinstance(result.exception, SystemExit)
        assert f"has no field {field!r}" in result.stderr


_PARITY_ROWS = [
    ("unit_circle", {}),
    ("circle(1.5, 0.25+0.5i)", {"radius": 1.5, "center": "0.25+0.5i"}),
    ("circle", {}),
    ("ellipse(2, 1, -0.5i)", {"semi_re": 2, "semi_im": 1, "center": "-0.5i"}),
    ("square(2.5)", {"side": 2.5}),
    ("polyline(1, 1+i, -1, -1-i)", {"vertices": ["1", "1+i", "-1", "-1-i"]}),
    ("constant(0.5-2i)", {"point": "0.5-2i"}),
]


@pytest.mark.parametrize("text, fields", _PARITY_ROWS)
def test_text_and_spec_paths_are_bit_identical(text, fields):
    kind = text.partition("(")[0]
    doc = _spec(paths={"p": {"kind": kind, **fields}}, homotopy={"kind": "constant", "path": "p"})
    from_spec = SpecDocument.from_dict(doc).paths["p"]
    from_text = cli.path_from_text(text)
    assert from_spec.breakpoints.tobytes() == from_text.breakpoints.tobytes()
    assert from_spec.vertices().tobytes() == from_text.vertices().tobytes()


def test_parity_rows_cover_every_path_kind():
    assert {text.partition("(")[0] for text, _ in _PARITY_ROWS} == set(cli._PATHS)


@pytest.mark.parametrize("args, code, text", [
    (["approx", "--path", "unit_circle", "--eps", "0.1"], EXIT_OK, "segments: 12"),
    (["approx", "--path", "hexagon", "--eps", "0.1"], EXIT_USAGE, "unknown path 'hexagon'"),
    (["approx", "--path", "unit_circle", "--eps", "-1"], EXIT_USAGE, "eps must be a positive"),
    (["approx", "--path", "circle(1)", "--eps", "1e-300"], EXIT_USAGE,
     "error: partition of 2.72e+150 panels exceeds the budget; eps too small for this path\n"),
    (["integrate", "--f", "1/z", "--poles", "0", "--path", "unit_circle"], EXIT_OK,
     "6.283185307179586"),
    (["integrate", "--f", "1/", "--path", "unit_circle"], EXIT_USAGE, "unexpected token"),
    (["integrate", "--f", "1/(z-1)", "--poles", "1", "--path", "unit_circle"], EXIT_REFUSED,
     "not certifiably clear of declared singularities"),
    (["integrate", "--f", "1/z", "--poles", "0", "--path", "unit_circle", "--tol", "1e-300"],
     EXIT_FAILED, "quadrature error estimate"),
    # an undeclared pole on the path: no node lands on it, and the pieces
    # about it still fail at the depth cap
    (["integrate", "--f", "1/(z-1)", "--path", "circle(1)"], EXIT_FAILED,
     "within 40 bisections per segment"),
    (["wind", "--path", "unit_circle", "--point", "0"], EXIT_OK, "1"),
    (["wind", "--path", "unit_circle", "--point", "abc"], EXIT_USAGE, "cannot parse complex"),
    (["wind", "--path", "unit_circle", "--point", "1"], EXIT_REFUSED,
     "not certifiably clear of the winding point"),
    # a point on the path is said to be there, not sized against the budget
    (["wind", "--path", "unit_circle", "--point", "1"], EXIT_REFUSED,
     "clearance 0, the point (1+0j) lies on the path, up to rounding)\n"),
    (["wind", "--path", "polyline(0,1,1i)", "--point", "0.5"], EXIT_REFUSED,
     "clearance 0, the point (0.5+0j) lies on the path, up to rounding)\n"),
    # the count is exact: no quadrature budget to set, and a point at 1e-12
    # from a side is answered, while one at 1e-13 from the circle would need
    # a polyline over the panel budget, and one at 2e-14 from a side is
    # within the rounding allowance
    (["wind", "--path", "unit_circle", "--point", "0", "--tol", "1e-9"], EXIT_USAGE,
     "No such option '--tol'"),
    (["wind", "--path", "square(2)", "--point", "0.3+0.999999999999i"], EXIT_OK, "1"),
    (["wind", "--path", "unit_circle", "--point", "0.9999999999999"], EXIT_REFUSED,
     "not certifiably clear of the winding point"),
    (["wind", "--path", "square(2)", "--point", "0.3+0.99999999999998i"], EXIT_REFUSED,
     "rounding allowance"),
    (["approx", "--path", "ellipse(2,1,0,junk)", "--eps", "0.1"], EXIT_USAGE,
     "takes at most 3 arguments"),
    (["approx", "--path", "square(2, 0, 99)", "--eps", "0.1"], EXIT_USAGE,
     "takes at most 2 arguments"),
    (["approx", "--path", "circle(1,,2)", "--eps", "0.1"], EXIT_USAGE, "empty argument"),
    (["integrate", "--f", "1/z", "--poles", "0,,1", "--path", "unit_circle"], EXIT_USAGE,
     "empty argument"),
    (["wind", "--path", "circle(2i)", "--point", "0"], EXIT_USAGE,
     "field 'radius' must be a real number"),
    # a complex number is never misread: whitespace inside a part and a *
    # other than before i are refused wherever one is read
    (["wind", "--path", "circle(1 2)", "--point", "5"], EXIT_USAGE,
     "field 'radius' must be a real number, got '1 2'"),
    (["wind", "--path", "unit_circle", "--point", "2**3"], EXIT_USAGE,
     "cannot parse complex number '2**3'"),
    (["wind", "--path", "unit_circle", "--point", "1+2*3i"], EXIT_USAGE,
     "cannot parse complex number '1+2*3i'"),
    (["integrate", "--f", "1/z", "--poles", "1 2", "--path", "unit_circle"], EXIT_USAGE,
     "--poles must be a list of complex numbers, got ['1 2']"),
    (["approx", "--path", "polyline(0, 1, 1+2*3i)", "--eps", "0.1"], EXIT_USAGE,
     "must be a list of complex numbers"),
    (["approx", "--path", "square(2**3)", "--eps", "0.1"], EXIT_USAGE,
     "field 'side' must be a real number, got '2**3'"),
    # click's own usage errors take the usage exit, not the refusal's
    (["verify"], EXIT_USAGE, "Missing option '--spec'"),
    (["integrate", "--f", "1/z", "--path", "unit_circle", "--tol", "abc"], EXIT_USAGE,
     "'abc' is not a valid float"),
    (["bogus"], EXIT_USAGE, "No such command 'bogus'"),
    (["carrier", "--path", "square(2)", "--eta", "0.1"], EXIT_USAGE, "No such command 'carrier'"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_path_command_exit_codes(args, code, text):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == code, result.output
    assert text in (result.stdout if code == EXIT_OK else result.stderr)
    if code != EXIT_OK:
        assert isinstance(result.exception, SystemExit)


def test_winding_point_over_the_panel_budget_is_refused_before_a_partition(monkeypatch):
    # 1e-13 from the unit circle needs a polyline of 1.24e7 segments; the
    # refusal comes from the panel count alone, before any partition is built
    from contourchain import verify

    def unbuilt(*args):
        raise AssertionError("a partition was built")

    monkeypatch.setattr(verify, "partition_points", unbuilt)
    result = CliRunner().invoke(main, ["wind", "--path", "unit_circle", "--point", "0.9999999999999"])
    assert result.exit_code == EXIT_REFUSED, result.output
    assert "needing 1.24e+07 segments, budget 5000000" in result.stderr


def test_wind_json_reports_only_the_winding():
    result = CliRunner().invoke(main, ["wind", "--path", "circle(2)", "--point", "1+1i", "--json"])
    assert result.exit_code == EXIT_OK, result.output
    assert json.loads(result.stdout) == {"winding": 1}


def test_declared_pole_inside_the_domain_is_refused(tmp_path):
    # f is not analytic on the disk, so the chain's integrals, which jump by
    # 2 pi i across the pole, prove nothing: a refusal, not a failure
    doc = _spec(paths={"inner": {"kind": "circle", "radius": 1.0},
                       "outer": {"kind": "circle", "radius": 2.0}},
                domain={"kind": "disk", "radius": 3.0},
                function={"expression": "1/(z-(1.5+0.01i))", "poles": ["1.5+0.01i"]})
    result = _run(tmp_path, "verify", doc)
    assert result.exit_code == EXIT_REFUSED, result.output
    assert "declared singularity (1.5+0.01j) lies inside the domain" in result.stderr
    assert "complement distance 1.49997" in result.stderr
    # a punctured plane that excludes the pole keeps it outside, and the
    # homotopy across it is refused by the chain instead
    doc["domain"] = {"kind": "punctured_plane", "excluded": ["1.5+0.01i"]}
    result = _run(tmp_path, "verify", doc)
    assert result.exit_code == EXIT_REFUSED, result.output
    assert "bisections of its time step" in result.stderr


def test_tiny_clearance_of_a_still_homotopy_is_refused(tmp_path):
    # the circle 1e-13 from the inner rim, blended into itself: one time
    # step, but its members would need a partition of 2e7 panels
    doc = _spec(homotopy={"kind": "linear", "from": "inner", "to": "inner"},
                domain={"kind": "annulus", "r_inner": 1.0 - 1e-13, "r_outer": 2.0})
    for command in ("chain", "verify"):
        result = _run(tmp_path, command, doc)
        assert result.exit_code == EXIT_REFUSED, result.output
        assert "over the budget of 2000000 vertices" in result.stderr


def _cli_process(*args):
    """The command run in a fresh interpreter, so that its stderr is what a
    user sees, warnings included."""
    src = Path(contourchain.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "contourchain.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)


def test_non_finite_integrand_fails_at_once_without_warnings():
    run = _cli_process("integrate", "--f", "z^99999", "--path", "circle(2)")
    assert run.returncode == EXIT_FAILED
    assert "integrand is not finite on the path" in run.stderr
    assert "Warning" not in run.stderr


@pytest.mark.parametrize("command", [
    ["approx", "--path", "square(1e308)", "--eps", "1"],
    ["wind", "--path", "square(1e308)", "--point", "0"],
    ["integrate", "--f", "1/z", "--path", "square(1e308)"],
], ids=lambda v: v[0])
def test_overflowing_polyline_is_refused_without_warnings(command):
    # the side's Lipschitz bound overflows to inf, which is refused
    run = _cli_process(*command)
    assert run.returncode == EXIT_USAGE
    assert run.stderr == "error: square path: Lipschitz constant must be finite\n"


@pytest.mark.parametrize("command", [
    ["approx", "--path", "circle(1e307, 1.75e308)", "--eps", "1e300"],
    ["wind", "--path", "circle(1e307, 1.75e308)", "--point", "0"],
    ["integrate", "--f", "exp(z)", "--path", "circle(1e307, 1.75e308)"],
    ["integrate", "--f", "exp(z)", "--path", "ellipse(1, 1e307, 1.75e308i)"],
], ids=["approx", "wind", "integrate", "ellipse"])
def test_arcs_past_the_float_range_are_refused_without_warnings(command):
    # a radius of 1e307 about 1.75e308: the Lipschitz bound is finite, but
    # |center| + radius is not, so some of the arc's points overflow
    run = _cli_process(*command)
    assert run.returncode == EXIT_USAGE
    kind = command[command.index("--path") + 1].partition("(")[0]
    assert run.stderr == (f"error: {kind} path: an arc's |center| + max(semi-axes) must be "
                          "finite, got inf\n")


@pytest.mark.parametrize("command, refusal", [
    (["integrate", "--f", "1/(z-0.001i)", "--poles", "0.001i",
      "--path", "polyline(-1e200, 3e200, 1e200i)"], "declared singularities"),
    (["wind", "--path", "polyline(0, 1.38e154, 1.38e154+1i, 1i)", "--point", "0.69e154+0.5i"],
     "the winding point"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_long_segments_are_refused_without_warnings(command, refusal):
    # |b - a|^2 overflows on these sides: the clearance is a lower bound
    # (0 at this scale's rounding), not the distance to a side's start or nan
    run = _cli_process(*command)
    assert run.returncode == EXIT_REFUSED
    assert run.stderr.startswith(f"error: path not certifiably clear of {refusal} ")
    assert "Warning" not in run.stderr


_CORNERS = {"corner_lo": "-1.7e308-1.7e308i", "corner_hi": "1.7e308+1.7e308i"}
_MOVED = "the homotopy moves a point by inf"
_TOO_LARGE = "the domain's largest modulus is inf"
_FAR_CORNER = "1.5e308+1.5e308i"


def _far_paths(center="-1e308"):
    """A circle of radius 1 about 1e308 and a square of side 2 about ``center``."""
    return {"a": {"kind": "circle", "radius": 1, "center": "1e308"},
            "b": {"kind": "square", "side": 2, "center": center}}


_LINEAR = {"kind": "linear", "from": "a", "to": "b"}


@pytest.mark.parametrize("command", ["chain", "verify"])
@pytest.mark.parametrize("domain, paths, homotopy, eps, refusal", [
    ({"kind": "disk", "radius": 1.7e308}, _far_paths(), _LINEAR, None, _MOVED),
    ({"kind": "disk", "radius": 1.7e308}, _far_paths(),
     {"kind": "star", "path": "a", "center": "-1e308"}, None, _MOVED),
    ({"kind": "rectangle", **_CORNERS}, _far_paths(), _LINEAR, None, _TOO_LARGE),
    ({"kind": "punctured_plane"}, _far_paths(), _LINEAR, None, _MOVED),
    ({"kind": "annulus", "r_inner": 1e-300, "r_outer": 1.7e308}, _far_paths(), _LINEAR, None,
     _MOVED),
    ({"kind": "rectangle", **_CORNERS}, _far_paths("0"), _LINEAR, None, _TOO_LARGE),
    ({"kind": "punctured_plane"}, {"a": {"kind": "unit_circle"}},
     {"kind": "star", "path": "a", "center": "1e154"}, 1e-300, "the chain would need inf members"),
    # vertices of modulus 2.1e308 in a plane with no puncture: the clearance
    # is inf less inf times the rounding allowance, nan
    ({"kind": "punctured_plane"}, {"a": {"kind": "square", "side": 2, "center": _FAR_CORNER}},
     {"kind": "star", "path": "a", "center": _FAR_CORNER}, None,
     "past the float range: the member at t=0 has certified clearance nan"),
], ids=["disk", "disk-star", "rectangle", "plane", "annulus", "rectangle-to-0", "tiny-eps",
        "nan-clearance"])
def test_chains_past_the_float_range_are_refused(tmp_path, command, domain, paths, homotopy, eps,
                                                 refusal):
    # ends 2e308 apart, a rectangle with a corner of modulus 2.4e308, and
    # steps of eps 1e-300 over 1e154, all past the float range: each
    # refusal names the quantity that is not finite, with no warning (a
    # RuntimeWarning is an error under the test settings)
    doc = _spec(paths=paths, homotopy=homotopy, domain=domain, function={"expression": "exp(z)"},
                tolerances={"tol": 1e-9, **({} if eps is None else {"eps": eps})})
    result = _run(tmp_path, command, doc)
    assert result.exit_code == EXIT_REFUSED, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ") and refusal in result.stderr


@pytest.mark.parametrize("text, value", [
    # the documented forms, spaces about the joining sign, * before i, and
    # the forms the benchmark's spec writer prints
    ("1.5", 1.5), ("2i", 2j), ("1+2i", 1 + 2j), ("-0.5-1i", -0.5 - 1j), (" 1 + 2i ", 1 + 2j),
    ("2*i", 2j), ("1-2.5*i", 1 - 2.5j), ("i", 1j), ("-i", complex(0.0, -1.0)),
    ("1e-05+0.5i", 1e-05 + 0.5j), ("-0.0-1.0i", complex(-0.0, -1.0)),
    ("1e+20-3e-05i", 1e20 - 3e-05j),
])
def test_complex_literals_parse(text, value):
    parsed = cli.parse_complex(text)
    assert parsed == value
    assert [math.copysign(1.0, part) for part in (parsed.real, parsed.imag)] == \
        [math.copysign(1.0, part) for part in (value.real, value.imag)]


@pytest.mark.parametrize("text", ["1 2", "2**3", "1+2*3i", "2 i", "2 * i", "- 1", "1e - 5",
                                  "*i", "1+*i", "3*"])
def test_malformed_complex_literals_are_refused(text):
    with pytest.raises(SpecError, match="cannot parse complex number"):
        cli.parse_complex(text)
    with pytest.raises(SpecError, match="must be a real number"):
        SpecDocument.from_dict(_spec(tolerances={"tol": text}))


# parse_complex as it read literals with two substitutions and a scan for
# what they left, frozen here as the oracle of the language it accepts, but
# for the characters complex() alone knows (see _expected_outcome)
_FROZEN_JOINING_SIGN = re.compile(r"(?<=[\d.])\s*([+-])\s*")
_FROZEN_TIMES_I = re.compile(r"(?<=[\d.])\*(?=i)")


def _frozen_parse_complex(text):
    cleaned = _FROZEN_TIMES_I.sub("", _FROZEN_JOINING_SIGN.sub(r"\1", str(text).strip()))
    try:
        if any(c.isspace() or c == "*" for c in cleaned):
            raise ValueError
        value = complex(cleaned.replace("i", "j"))
    except ValueError:
        raise SpecError(f"cannot parse complex number {text!r}")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise SpecError(f"complex number {text!r} is not finite")
    return value


def _outcome(parse, text):
    """The value with the signs of both its parts, or the refusal's message."""
    try:
        value = parse(text)
    except SpecError as exc:
        return str(exc)
    return value, math.copysign(1.0, value.real), math.copysign(1.0, value.imag)


# what a literal may hold besides whitespace and '*': complex()'s j and J,
# brackets, underscores and non-ASCII digits are not the spec language
_LITERAL_ALPHABET = set("0123456789.+-abcdefghiklmnopqrstuvwxyzABCDEFGHIKLMNOPQRSTUVWXYZ")


def _expected_outcome(text):
    """The frozen reader's outcome, or a refusal for a character outside
    ``_LITERAL_ALPHABET`` that is neither whitespace nor '*'."""
    if any(not (c in _LITERAL_ALPHABET or c.isspace() or c == "*") for c in str(text)):
        return f"cannot parse complex number {text!r}"
    return _outcome(_frozen_parse_complex, text)


# the characters literals are made of and the ones they are refused for:
# unicode digits and spaces, which complex() and the regexes both know, too
_LITERAL_CHARS = st.sampled_from(list("0123456789.eE+-*iIjJ()_ \tnafty") + ["\xa0", "\u0661", "\n"])
_NUMBERS = st.sampled_from(["1", "2.5", ".5", "5.", "1e5", "1e-05", "1E+2", "inf", "nan", "0",
                            "-0.0", "1_0", "\u0661", ""])
_LITERALS = st.one_of(
    st.text(_LITERAL_CHARS, max_size=10),
    st.builds(lambda *parts: "".join(parts),
              st.sampled_from(["", "(", "-", "+", " ", "( "]), _NUMBERS,
              st.sampled_from(["+", "-", " + ", " - ", "+ ", " -", "  +\t", "*", " ", ""]), _NUMBERS,
              st.sampled_from(["i", "j", "*i", " i", "I", "*j", ""]),
              st.sampled_from(["", ")", " ", " )"])))


@given(text=_LITERALS)
@settings(max_examples=3000, deadline=None)
def test_complex_literals_read_as_before(text):
    assert _outcome(cli.parse_complex, text) == _expected_outcome(text)


@pytest.mark.parametrize("text", ["inf", "nan", "1_0", "-0.0-0i", "(1+2i)", "\u0661\u0662",
                                  "1 2", "2**3", "1+2*3i", "2 i", "2 * i", "- 1", "1e - 5",
                                  "*i", "1+*i", "3*", "2j", "2J", "1+2j", "\xa01+2i\n"])
def test_complex_literal_examples_read_as_before(text):
    assert _outcome(cli.parse_complex, text) == _expected_outcome(text)


@pytest.mark.parametrize("text", ["2j", "2J", "1+2j", "(1+2i)", "1_0", "\u0661\u0662",
                                  "1+\u0662i"])
def test_forms_only_complex_reads_are_refused(text):
    # complex() reads each of these, and the frozen reader did; the spec
    # language names none of them
    assert _frozen_parse_complex(text) is not None
    with pytest.raises(SpecError, match="cannot parse complex number"):
        cli.parse_complex(text)
    run = CliRunner().invoke(main, ["wind", "--path", "circle(2)", "--point", text])
    assert run.exit_code == EXIT_USAGE
    assert "cannot parse complex number" in run.output


def test_long_malformed_literals_are_refused():
    # each part of the pattern stops at whitespace or '*', so a match takes
    # time linear in the text; a pattern that backtracked over every split
    # of these would not finish
    for text in ("1+" * 5000 + " x", "1" * 10000 + " 2", "1 " * 5000, "1*" * 5000 + "i"):
        with pytest.raises(SpecError, match="cannot parse complex number"):
            cli.parse_complex(text)


def test_budget_refusal_prints_a_readable_count(tmp_path):
    # eps 1e-300 asks for about 1e300 members: the count is printed in
    # three digits, not in its 301
    doc = _spec(tolerances={"tol": 1e-9, "eps": 1e-300})
    for command in ("chain", "verify"):
        result = _run(tmp_path, command, doc)
        assert result.exit_code == EXIT_REFUSED, result.output
        assert result.stderr == (
            "error: the chain would need 5e+299 members, over the budget of 4000 time slices: "
            "the homotopy moves 0.5 per unit time against a clearance of 1e-300\n")


def test_pole_a_hundred_thousandth_off_an_ellipse_is_certified_clear():
    # the clearance is certified in closed form (6.25e-6), so the command is
    # not refused for the pole's distance
    result = CliRunner().invoke(main, ["integrate", "--f", "1/(z-1.60001)", "--poles", "1.60001",
                                       "--path", "ellipse(1.6,1)"])
    assert result.exit_code != EXIT_REFUSED
    assert "not certifiably clear" not in result.stderr


@pytest.mark.parametrize("command", ["chain", "verify"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_commands_build_no_interior_member(monkeypatch, tmp_path, command, flags):
    # the chain and its reports, CSV and quadrature read the rows: from the
    # chain's build on, no member is made a path object
    verify_module = importlib.import_module("contourchain.verify")
    calls, chains = counted_vertex_rows(monkeypatch), []

    def recorded(build):
        def wrapped(*args, **kwargs):
            before = len(calls)
            chains.append((build(*args, **kwargs), before))
            return chains[-1][0]
        return wrapped

    for module in (cli, verify_module):
        monkeypatch.setattr(module, "build_chain", recorded(module.build_chain))
    doc = _spec(paths={"inner": {"kind": "square", "side": 2.0},
                       "outer": {"kind": "ellipse", "semi_re": 2.0, "semi_im": 1.5}})
    result = _run(tmp_path, command, doc, "--out", str(tmp_path / "chain.csv"), *flags)
    assert result.exit_code == EXIT_OK, result.output
    [(chain, before)] = chains
    assert len(chain) > 2 and len(calls) == before
    assert "members" not in vars(chain)


class TestCertificateOutput:
    def test_chain_json_is_the_report_certificate_block(self, tmp_path):
        doc = _spec(paths={"inner": {"kind": "circle", "radius": 1.0},
                           "outer": {"kind": "ellipse", "semi_re": 2.0, "semi_im": 1.0}})
        chain = json.loads(_run(tmp_path, "chain", doc, "--json").stdout)
        report = json.loads(_run(tmp_path, "verify", doc, "--json").stdout)
        for key, value in chain.items():
            assert report[key] == value
        exact = [entry["exact"] for entry in chain["certificate"]]
        assert exact == [False] + [True] * (chain["members"] - 3) + [False]
        for entry in chain["certificate"]:
            assert entry["sampled_lo"] <= entry["analytic"]
            assert entry["sampled_lo"] <= entry["sampled_hi"]

    def test_text_outputs_name_the_exact_and_sampled_ratios(self, tmp_path):
        for command in ("chain", "verify"):
            result = _run(tmp_path, command, _spec())
            assert result.exit_code == 0, result.output
            assert "exact (polyline pairs)" in result.stdout
            assert "vertex (curved end pairs)" in result.stdout

    def test_a_pair_kind_the_chain_lacks_prints_none(self, tmp_path):
        # both ends are squares, so every pair is exact and none is a curved end pair
        doc = _spec(paths={"inner": {"kind": "square", "side": 2.0},
                           "outer": {"kind": "square", "side": 3.0}})
        for command in ("chain", "verify"):
            result = _run(tmp_path, command, doc)
            assert result.exit_code == 0, result.output
            assert "none vertex (curved end pairs)" in result.stdout
            assert "none exact" not in result.stdout


def test_star_spec_verifies_a_null_homotopy(tmp_path, monkeypatch):
    built = []
    original = cli.star_null_homotopy

    def counted(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "star_null_homotopy", counted)
    doc = _spec(homotopy={"kind": "star", "path": "inner", "center": "0.1"},
                domain={"kind": "disk", "radius": 2.0},
                function={"expression": "exp(z)", "poles": []})
    result = _run(tmp_path, "verify", doc, "--json")
    assert result.exit_code == EXIT_OK, result.output
    report = json.loads(result.stdout)
    assert report["kind"] == "null-homotopy"
    assert report["null_integral_abs"] <= report["threshold"]
    assert len(built) == 1


def test_large_circles_chain_and_verify(tmp_path):
    # the clearances and the shared partition scale with the paths, so the
    # blend of paths with Lipschitz constant near 2e4 is built and verified
    doc = _spec(paths={"inner": {"kind": "circle", "radius": 2000.0},
                       "outer": {"kind": "circle", "radius": 3000.0}},
                domain={"kind": "annulus", "r_inner": 1000.0, "r_outer": 5000.0})
    chain = _run(tmp_path, "chain", doc, "--json")
    assert chain.exit_code == EXIT_OK, chain.output
    summary = json.loads(chain.stdout)
    # gap 1000 against the coarse grid's clearance 1000, the gap rounded up:
    # two equal steps, each pair below the larger clearance of its members,
    # none of which keeps more than the outer circle's 2000 from the rims
    assert summary["members"] == 3 and summary["epsilon"] is None
    for entry in summary["certificate"]:
        assert entry["sampled_hi"] < entry["analytic"] <= 2000.0
    verify = _run(tmp_path, "verify", doc)
    assert verify.exit_code == EXIT_OK, verify.output
    assert "verdict: PASS" in verify.stdout


class TestWholePlane:
    """PuncturedPlane(()) has no complement, so every clearance is unbounded."""

    @staticmethod
    def _doc(**tolerances):
        return _spec(domain={"kind": "punctured_plane"},
                     function={"expression": "exp(z)", "poles": []},
                     tolerances={"tol": 1e-9, **tolerances})

    def test_eps_override_certifies(self, tmp_path):
        for command in ("chain", "verify"):
            result = _run(tmp_path, command, self._doc(eps=0.05), "--json")
            assert result.exit_code == EXIT_OK, result.output
            assert "Infinity" not in result.stdout
            summary = json.loads(result.stdout)
            assert summary["margin"] is None
            assert summary["epsilon"] == 0.05
        assert summary["verdict"] == "pass"
        text = _run(tmp_path, "chain", self._doc(eps=2.0))
        assert text.exit_code == EXIT_OK, text.output
        assert "smallest member clearance (margin): inf  eps cap: 2" in text.stdout

    def test_without_eps_is_its_two_ends(self, tmp_path):
        # nothing bounds a pair, so one time step certifies the homotopy
        for command in ("chain", "verify"):
            result = _run(tmp_path, command, self._doc(), "--json")
            assert result.exit_code == EXIT_OK, result.output
            assert "Infinity" not in result.stdout
            summary = json.loads(result.stdout)
            assert summary["members"] == 2
            assert summary["margin"] is None and summary["epsilon"] is None
            assert summary["certificate"][0]["analytic"] is None
        assert summary["verdict"] == "pass"


@pytest.mark.parametrize("section, key, value, text", [
    (None, "paths", [], "'paths' section must be a JSON object"),
    ("function", "poles", 5, "'poles' must be a list"),
    ("homotopy", "from", ["inner"], "unknown path ['inner']"),
    ("paths", "inner", {"kind": "polyline", "vertices": 5}, "'vertices' must be a list"),
    ("function", "expression", 5, "'expression' must be a string"),
])
def test_malformed_section_is_a_usage_error(tmp_path, section, key, value, text):
    doc = _spec()
    (doc if section is None else doc[section])[key] = value
    with pytest.raises(ContourChainError, match=text.replace("[", r"\[").replace("]", r"\]")):
        SpecDocument.from_dict(doc)
    result = _run(tmp_path, "chain", doc)
    assert result.exit_code == EXIT_USAGE
    assert isinstance(result.exception, SystemExit)
    assert text in result.stderr


@pytest.mark.parametrize("homotopy, text", [
    ({"kind": "star", "path": "inner", "center": "junk"},
     "star homotopy field 'center' must be a complex number, got 'junk'"),
    ({"kind": "spiral", "path": "inner"}, "homotopy has unknown kind 'spiral'"),
    ({"kind": "linear", "from": "inner"}, "linear homotopy needs a 'to' field"),
], ids=["star-center", "unknown-kind", "linear-without-to"])
def test_spec_reader_refuses_a_bad_homotopy(homotopy, text):
    # the homotopy is built as the spec is read, not later
    with pytest.raises(SpecError, match=re.escape(text)):
        SpecDocument.from_dict(_spec(homotopy=homotopy))


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True)
    | st.sampled_from(["", "0", "1+i", "a", "inner", "z"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


def _seldom(valid):
    """A well-formed value four times in five, else any JSON value in its
    place.  (``one_of`` with a repeated branch would draw each distinct
    branch alike.)"""
    return st.integers(0, 4).flatmap(lambda k: _json if k == 4 else valid)


def _well_formed(valid):
    """Always a well-formed value."""
    return valid


# magnitudes at the ends of the float range: squares of 1e154 are near its
# top, 1e308 is within a factor of 2 of it, and 1e-300 near its bottom
_EXTREMES = [1e154, -1e154, 1e308, -1e308, 1e-300]


def _field_values(seldom) -> dict:
    """Values for each field reader of cli._PATHS, cli._DOMAINS and
    cli._HOMOTOPIES (whose path names are read as given), each one passed
    through ``seldom``."""
    complex_ = seldom(st.sampled_from(["0", "1", "0.1+0.2i", "2i", "-0.5-1i"]) | st.floats(-3, 3)
                      | st.sampled_from(_EXTREMES))
    return {
        cli._real: seldom(st.floats(0.1, 3) | st.floats(-3, 3) | st.sampled_from(["1", "0.5"])
                          | st.sampled_from(_EXTREMES)),
        cli.parse_complex: complex_,
        cli._points: seldom(st.lists(complex_, max_size=5)),
        cli._given: seldom(st.sampled_from(["inner", "outer"])),
    }


def _kind_doc(table: dict, seldom, values: dict):
    """An object of a kind from ``table`` with that kind's own fields: the
    required ones always, the ones with a default sometimes."""
    return seldom(st.one_of(*(
        st.fixed_dictionaries(
            {"kind": st.just(kind),
             **{key: values[read] for key, (read, default) in fields.items()
                if default is cli._REQUIRED}},
            optional={key: values[read] for key, (read, default) in fields.items()
                      if default is not cli._REQUIRED})
        for kind, (_, fields) in table.items())))


def _spec_doc(homotopies: dict, seldom=_seldom):
    """A spec document whose homotopy is of a kind from ``homotopies``, each
    value passed through ``seldom``."""
    values = _field_values(seldom)
    path = _kind_doc(cli._PATHS, seldom, values)
    # a well-formed document names both paths, so that no homotopy misses one
    paths = (st.fixed_dictionaries({"inner": path}, optional={"outer": path})
             if seldom is _seldom else st.fixed_dictionaries({"inner": path, "outer": path}))
    return st.fixed_dictionaries(
        {"version": seldom(st.just(1)),
         "domain": _kind_doc(cli._DOMAINS, seldom, values),
         "paths": seldom(paths),
         "homotopy": _kind_doc(homotopies, seldom, values),
         "function": seldom(st.fixed_dictionaries(
             {"expression": seldom(st.sampled_from(["1/z", "exp(z)", "z^", "sin(z)/(z-1)"]))},
             optional={"poles": seldom(st.lists(values[cli.parse_complex], max_size=2))}))},
        optional={"tolerances": seldom(st.fixed_dictionaries(
            {}, optional={"tol": values[cli._real], "eps": values[cli._real]}))})


def _fuzzed_chains(seldom) -> tuple[list, list]:
    """(built, chains): the homotopy kinds of the fuzzed spec documents, drawn
    through ``seldom``, that read and build a homotopy, and of those whose
    chain is certified.  Every other document may be refused only with a
    package error, as it is read or as its chain is built.

    One fuzz per homotopy kind: a fuzz over all kinds at once builds most of
    its documents of one kind, and may build none of another."""
    built, chains = [], []
    for kind, entry in cli._HOMOTOPIES.items():
        @given(doc=_spec_doc({kind: entry}, seldom))
        @settings(derandomize=True, max_examples=200, deadline=None, database=None)
        def check(doc):
            try:
                spec = SpecDocument.from_dict(doc)
            except ContourChainError:
                return
            sigma, gamma0, gamma1 = spec.build_homotopy()
            built.append(doc["homotopy"]["kind"])
            try:
                build_chain(sigma, gamma0, gamma1, spec.domain, eps=spec.eps)
            except ContourChainError:
                return
            chains.append(doc["homotopy"]["kind"])

        check()
    return built, chains


def test_fuzzed_spec_raises_only_package_errors():
    built, chains = _fuzzed_chains(_seldom)
    # the documents reach every homotopy constructor, not only the refusals
    assert len(built) >= 10
    assert set(built) == set(cli._HOMOTOPIES)
    assert chains


def test_fuzzed_well_formed_specs_raise_only_package_errors():
    # every value well formed, so that most documents reach build_chain, with
    # the extremes of the float range in their numbers
    built, chains = _fuzzed_chains(_well_formed)
    assert len(built) >= 100
    assert set(chains) == set(cli._HOMOTOPIES)


def _mostly(valid, junk):
    """Mostly one of ``valid``, sometimes one of ``junk``."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), st.sampled_from(junk))


_junk = ["nan", "1e400", "", "junk", "-1", "0"]
_text_arg = _mostly(["1", "0.5", "2", " 1.5 ", "0.3i", "1+i", "-0.2-0.1i",
                     *map(repr, _EXTREMES)], [*_junk, "2i"])
_path_text = st.builds(
    lambda form, kind, args: form.format(kind, ",".join(args)),
    _mostly(["{}({})"], ["{}", "{}({}"]), _mostly(list(cli._PATHS), ["hexagon", ""]),
    st.lists(_text_arg, max_size=5))
_flag = _mostly(["0.5", "0.1", "0.25"], [*_junk, "2i"])
_tol = _mostly(["1e-9", "1e-6"], _junk)
_poles = st.lists(_text_arg, max_size=3).map(",".join)
_command = st.one_of(
    st.tuples(st.just("approx"), st.just("--path"), _path_text, st.just("--eps"), _flag),
    st.tuples(st.just("integrate"), st.just("--f"), st.sampled_from(["1/z", "exp(z)", "z^"]),
              st.just("--poles"), _poles, st.just("--path"), _path_text, st.just("--tol"), _tol),
    st.tuples(st.just("wind"), st.just("--path"), _path_text, st.just("--point"), _text_arg))


@given(args=_command)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_fuzzed_path_commands_never_end_in_a_traceback(args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code in (EXIT_OK, EXIT_USAGE, EXIT_REFUSED, EXIT_FAILED), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), args
