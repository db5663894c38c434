import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from contourchain import cli
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
], ids=["lipschitz", "closed", "raduis", "unit_circle-center", "annulus-radius"])
def test_unknown_spec_field_is_a_usage_error(tmp_path, section, value, field):
    doc = _spec(homotopy={"kind": "constant", "path": "inner"})
    if section == "domain":
        doc["domain"] = value
    else:
        doc["paths"][section] = value
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
    (["carrier", "--path", "square(2)", "--eta", "0.1"], EXIT_OK, "net points: 81"),
    (["carrier", "--path", "square(2)", "--eta", "0"], EXIT_USAGE, "eta must be positive"),
    (["carrier", "--path", "circle(1)", "--eta", "1e-320"], EXIT_USAGE,
     "error: sampling grid of inf steps exceeds the budget; "
     "Lipschitz bound too large for the requested accuracy\n"),
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
    (["wind", "--path", "unit_circle", "--point", "0.5", "--tol", "1e-300"], EXIT_FAILED,
     "quadrature error estimate"),
    (["approx", "--path", "ellipse(2,1,0,junk)", "--eps", "0.1"], EXIT_USAGE,
     "takes at most 3 arguments"),
    (["approx", "--path", "square(2, 0, 99)", "--eps", "0.1"], EXIT_USAGE,
     "takes at most 2 arguments"),
    (["approx", "--path", "circle(1,,2)", "--eps", "0.1"], EXIT_USAGE, "empty argument"),
    (["integrate", "--f", "1/z", "--poles", "0,,1", "--path", "unit_circle"], EXIT_USAGE,
     "empty argument"),
    (["wind", "--path", "circle(2i)", "--point", "0"], EXIT_USAGE,
     "field 'radius' must be a real number"),
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


def _seldom(valid):
    """A well-formed value four times in five, else any JSON value in its
    place.  (``one_of`` with a repeated branch would draw each distinct
    branch alike.)"""
    return st.integers(0, 4).flatmap(lambda k: _json if k == 4 else valid)


_complex = _seldom(st.sampled_from(["0", "1", "0.1+0.2i", "2i", "-0.5-1i"]) | st.floats(-3, 3))
# values for each field reader of cli._PATHS and cli._DOMAINS
_FIELD_VALUES = {
    cli._real: _seldom(st.floats(0.1, 3) | st.floats(-3, 3) | st.sampled_from(["1", "0.5"])),
    cli.parse_complex: _complex,
    cli._points: _seldom(st.lists(_complex, max_size=5)),
}


def _kind_doc(table: dict):
    """A path or domain object of a kind from ``table`` with that kind's own
    fields: the required ones always, the ones with a default sometimes."""
    return _seldom(st.one_of(*(
        st.fixed_dictionaries(
            {"kind": st.just(kind),
             **{key: _FIELD_VALUES[read] for key, (read, default) in fields.items()
                if default is cli._REQUIRED}},
            optional={key: _FIELD_VALUES[read] for key, (read, default) in fields.items()
                      if default is not cli._REQUIRED})
        for kind, (_, fields) in table.items())))


_names = _seldom(st.sampled_from(["inner", "outer"]))
_spec_doc = st.fixed_dictionaries(
    {"version": _seldom(st.just(1)),
     "domain": _kind_doc(cli._DOMAINS),
     "paths": _seldom(st.fixed_dictionaries({"inner": _kind_doc(cli._PATHS)},
                                           optional={"outer": _kind_doc(cli._PATHS)})),
     "homotopy": _seldom(st.one_of(
         st.fixed_dictionaries({"kind": st.just("linear"), "from": _names, "to": _names}),
         st.fixed_dictionaries({"kind": st.just("constant"), "path": _names}),
         st.fixed_dictionaries({"kind": st.just("star"), "path": _names},
                               optional={"center": _complex}),
         st.fixed_dictionaries({"kind": st.sampled_from(["spiral", "linear"])},
                               optional={"from": st.just("other"), "path": _names}))),
     "function": _seldom(st.fixed_dictionaries(
         {"expression": _seldom(st.sampled_from(["1/z", "exp(z)", "z^", "sin(z)/(z-1)"]))},
         optional={"poles": _seldom(st.lists(_complex, max_size=2))}))},
    optional={"tolerances": _seldom(st.fixed_dictionaries(
        {}, optional={"tol": _FIELD_VALUES[cli._real], "eps": _FIELD_VALUES[cli._real]}))})


def test_fuzzed_spec_raises_only_package_errors():
    built = []

    @given(doc=_spec_doc)
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    def check(doc):
        try:
            spec = SpecDocument.from_dict(doc)
        except ContourChainError:
            return
        try:
            built.append(spec.build_homotopy())
        except ContourChainError:
            built.append(None)

    check()
    # the documents reach the homotopy constructors, not only the refusals
    assert len(built) >= 10
    assert sum(b is not None for b in built) >= 5


def _mostly(valid, junk):
    """Mostly one of ``valid``, sometimes one of ``junk``."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), st.sampled_from(junk))


_junk = ["nan", "1e400", "", "junk", "-1", "0"]
_text_arg = _mostly(["1", "0.5", "2", " 1.5 ", "0.3i", "1+i", "-0.2-0.1i"], [*_junk, "2i"])
_path_text = st.builds(
    lambda form, kind, args: form.format(kind, ",".join(args)),
    _mostly(["{}({})"], ["{}", "{}({}"]), _mostly(list(cli._PATHS), ["hexagon", ""]),
    st.lists(_text_arg, max_size=5))
_flag = _mostly(["0.5", "0.1", "0.25"], [*_junk, "2i"])
_tol = _mostly(["1e-9", "1e-6"], _junk)
_poles = st.lists(_text_arg, max_size=3).map(",".join)
_command = st.one_of(
    st.tuples(st.just("approx"), st.just("--path"), _path_text, st.just("--eps"), _flag),
    st.tuples(st.just("carrier"), st.just("--path"), _path_text, st.just("--eta"), _flag),
    st.tuples(st.just("integrate"), st.just("--f"), st.sampled_from(["1/z", "exp(z)", "z^"]),
              st.just("--poles"), _poles, st.just("--path"), _path_text, st.just("--tol"), _tol),
    st.tuples(st.just("wind"), st.just("--path"), _path_text, st.just("--point"), _text_arg,
              st.just("--tol"), _tol))


@given(args=_command)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_fuzzed_path_commands_never_end_in_a_traceback(args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code in (EXIT_OK, EXIT_USAGE, EXIT_REFUSED, EXIT_FAILED), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), args
