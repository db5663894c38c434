import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from contourchain.cli import EXIT_FAILED, EXIT_OK, EXIT_REFUSED, EXIT_USAGE, SpecDocument, main
from contourchain.errors import ContourChainError


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

    def test_eps_above_the_margin_refused_like_chain(self, tmp_path):
        doc = _spec(tolerances={"tol": 1e-9, "eps": 10.0})
        chain = _run(tmp_path, "chain", doc)
        verify = _run(tmp_path, "verify", doc)
        assert chain.exit_code == verify.exit_code == EXIT_USAGE
        assert "eps override 10.0 outside" in verify.stderr
        assert verify.stderr == chain.stderr


class TestIdentityHomotopy:
    def test_three_member_chain(self, tmp_path):
        # sigma(t, x) = gamma(x) does not move in time, so the chain keeps
        # only the one interior member every chain has.
        doc = _spec(homotopy={"kind": "constant", "path": "inner"})
        result = _run(tmp_path, "chain", doc, "--json")
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["members"] == 3


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
    ({"paths": {"inner": {"kind": "circle", "radius": 1.0, "lipschitz": None},
                "outer": {"kind": "circle", "radius": 1.5}}}, "lipschitz"),
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


@pytest.mark.parametrize("args, code, text", [
    (["approx", "--path", "unit_circle", "--eps", "0.1"], EXIT_OK, "segments: 12"),
    (["approx", "--path", "hexagon", "--eps", "0.1"], EXIT_USAGE, "unknown path 'hexagon'"),
    (["approx", "--path", "unit_circle", "--eps", "-1"], EXIT_USAGE, "eps must be a positive"),
    (["carrier", "--path", "square(2)", "--eta", "0.1"], EXIT_OK, "net points: 81"),
    (["carrier", "--path", "square(2)", "--eta", "0"], EXIT_USAGE, "eta must be positive"),
    (["integrate", "--f", "1/z", "--poles", "0", "--path", "unit_circle"], EXIT_OK,
     "6.283185307179586"),
    (["integrate", "--f", "1/", "--path", "unit_circle"], EXIT_USAGE, "unexpected token"),
    (["integrate", "--f", "1/(z-1)", "--poles", "1", "--path", "unit_circle"], EXIT_REFUSED,
     "not certifiably clear of declared singularities"),
    (["integrate", "--f", "1/z", "--poles", "0", "--path", "unit_circle", "--tol", "1e-300"],
     EXIT_FAILED, "quadrature error estimate"),
    (["wind", "--path", "unit_circle", "--point", "0"], EXIT_OK, "1"),
    (["wind", "--path", "unit_circle", "--point", "abc"], EXIT_USAGE, "cannot parse complex"),
    (["wind", "--path", "unit_circle", "--point", "1"], EXIT_REFUSED,
     "not certifiably clear of the winding point"),
    (["wind", "--path", "unit_circle", "--point", "0.5", "--tol", "1e-300"], EXIT_FAILED,
     "quadrature error estimate"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_path_command_exit_codes(args, code, text):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == code, result.output
    assert text in (result.stdout if code == EXIT_OK else result.stderr)
    if code != EXIT_OK:
        assert isinstance(result.exception, SystemExit)


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
            assert "exact (interior pairs)" in result.stdout
            assert "sampled (end pairs)" in result.stdout


def test_star_spec_verifies_a_null_homotopy(tmp_path):
    doc = _spec(homotopy={"kind": "star", "path": "inner", "center": "0.1"},
                domain={"kind": "disk", "radius": 2.0},
                function={"expression": "exp(z)", "poles": []})
    result = _run(tmp_path, "verify", doc, "--json")
    assert result.exit_code == EXIT_OK, result.output
    report = json.loads(result.stdout)
    assert report["kind"] == "null-homotopy"
    assert report["null_integral_abs"] <= report["threshold"]


def test_large_circles_chain_and_verify(tmp_path):
    # the containment net and the shared partition scale with the paths, so
    # the blend of paths with Lipschitz constant near 2e4 is built and verified
    doc = _spec(paths={"inner": {"kind": "circle", "radius": 2000.0},
                       "outer": {"kind": "circle", "radius": 3000.0}},
                domain={"kind": "annulus", "r_inner": 1000.0, "r_outer": 5000.0})
    chain = _run(tmp_path, "chain", doc, "--json")
    assert chain.exit_code == EXIT_OK, chain.output
    summary = json.loads(chain.stdout)
    # gap 1000: end steps eps/6000, then ceil((1 - 2 eps/6000) 1000 / (eps/2))
    # equal interior steps
    assert summary["members"] == 12
    for entry in summary["certificate"]:
        assert entry["sampled_hi"] <= entry["analytic"] <= summary["epsilon"] / 2
    verify = _run(tmp_path, "verify", doc)
    assert verify.exit_code == EXIT_OK, verify.output
    assert "verdict: PASS" in verify.stdout


class TestWholePlane:
    """PuncturedPlane(()) has no complement, so its margin is unbounded."""

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
        assert "margin: inf" in text.stdout

    def test_without_eps_refused(self, tmp_path):
        for command in ("chain", "verify"):
            result = _run(tmp_path, command, self._doc())
            assert result.exit_code == EXIT_USAGE
            assert isinstance(result.exception, SystemExit)
            assert "tolerances.eps" in result.stderr


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


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True)
    | st.sampled_from(["", "0", "1+i", "a", "inner", "z"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


def _maybe(valid):
    """Mostly a well-formed value, sometimes any JSON value in its place."""
    return st.one_of(valid, valid, _json)


_number = _maybe(st.floats(-3, 3) | st.sampled_from(["1", "2i", "-0.5-1i"]))
_path_doc = _maybe(st.fixed_dictionaries(
    {"kind": _maybe(st.sampled_from(["unit_circle", "circle", "ellipse", "square",
                                     "polyline", "constant", "hexagon"]))},
    optional={"radius": _number, "semi_re": _number, "semi_im": _number, "side": _number,
              "center": _number, "point": _number, "lipschitz": _number,
              "closed": _maybe(st.booleans()),
              "vertices": _maybe(st.lists(_number, max_size=5))}))
_spec_doc = st.fixed_dictionaries(
    {"version": _maybe(st.just(1)),
     "domain": _maybe(st.fixed_dictionaries(
         {"kind": _maybe(st.sampled_from(["disk", "annulus", "rectangle", "punctured_plane"]))},
         optional={"center": _number, "radius": _number, "r_inner": _number,
                   "r_outer": _number, "corner_lo": _number, "corner_hi": _number,
                   "excluded": _maybe(st.lists(_number, max_size=3))}))},
    optional={
        "paths": _maybe(st.dictionaries(st.sampled_from(["inner", "outer"]), _path_doc,
                                        max_size=2)),
        "homotopy": _maybe(st.fixed_dictionaries(
            {"kind": _maybe(st.sampled_from(["linear", "constant", "star", "spiral"]))},
            optional={"from": _maybe(st.sampled_from(["inner", "outer", "other"])),
                      "to": _maybe(st.sampled_from(["inner", "outer"])),
                      "path": _maybe(st.sampled_from(["inner", "outer"])),
                      "center": _number})),
        "function": _maybe(st.fixed_dictionaries(
            {"expression": _maybe(st.sampled_from(["1/z", "exp(z)", "z^", "sin(z)/(z-1)"]))},
            optional={"poles": _maybe(st.lists(_number, max_size=2))})),
        "tolerances": _maybe(st.fixed_dictionaries({}, optional={"tol": _number,
                                                                  "eps": _number})),
    })


@given(doc=_spec_doc)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_fuzzed_spec_raises_only_package_errors(doc):
    try:
        SpecDocument.from_dict(doc).build_homotopy()
    except ContourChainError:
        pass
