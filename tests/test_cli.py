import json

import pytest
from click.testing import CliRunner

from contourchain.cli import EXIT_FAILED, EXIT_OK, EXIT_REFUSED, EXIT_USAGE, main


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


def test_large_circles_chain_and_verify(tmp_path):
    # the gap of paths with Lipschitz constant near 2e4 is certified on a
    # grid of at most 10^6 steps, so the blend is built and verified
    doc = _spec(paths={"inner": {"kind": "circle", "radius": 2000.0},
                       "outer": {"kind": "circle", "radius": 3000.0}},
                domain={"kind": "annulus", "r_inner": 1000.0, "r_outer": 5000.0})
    chain = _run(tmp_path, "chain", doc, "--json")
    assert chain.exit_code == EXIT_OK, chain.output
    assert json.loads(chain.stdout)["members"] == 28
    verify = _run(tmp_path, "verify", doc)
    assert verify.exit_code == EXIT_OK, verify.output
    assert "verdict: PASS" in verify.stdout
