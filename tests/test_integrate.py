import cmath
import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from contourchain import (
    Annulus,
    ArcSegment,
    Chain,
    ChainCertificate,
    Disk,
    InvalidEpsilon,
    LineSegment,
    NearSingularity,
    PiecewisePath,
    ToleranceNotReached,
    build_chain,
    circle,
    constant_path,
    contour_integral,
    ellipse,
    integral_along_chain,
    linear_homotopy,
    parse_function,
    polyline,
    square,
    star_null_homotopy,
)
from contourchain.cli import SpecDocument
from contourchain.expressions import Add, AnalyticFunction, Const, Div, Mul, Sub, Var
from contourchain.integrate import _Members
from contourchain.paths import certified_clearances
from conftest import ENTIRE_FUNCTIONS, random_polyline

TWO_PI_I = 2j * math.pi


def _dummy_chain(gamma0, gamma1, rows=None, breakpoints=(0.0, 1.0)):
    """A Chain of the end paths about the interior ``rows`` on
    ``breakpoints``, built directly with no certificate (tests only)."""
    breaks = np.array(breakpoints, dtype=np.float64)
    rows = np.array(rows if rows is not None else np.empty((0, breaks.size)), dtype=np.complex128)
    count = len(rows) + 2
    return Chain(gamma0=gamma0, rows=rows, breakpoints=breaks, gamma1=gamma1, epsilon=None,
                 certificate=ChainCertificate(()), partition=np.linspace(0.0, 1.0, count),
                 clearances=np.full(count, 0.5))


class TestResidueOracle:
    def test_polynomial_over_closed_polyline_is_zero(self):
        f = parse_function("z^3 - 2*z + 1")
        path = polyline([1 + 0j, 0.5 + 1j, -1 + 0.25j, -0.5 - 1j])
        result = contour_integral(f, path, 1e-10)
        assert abs(result.value) <= 1e-10

    def test_one_over_z_around_unit_circle(self):
        # residue oracle: the exact value is 2 pi i
        result = contour_integral(parse_function("1/z", [0j]), circle(), 1e-10)
        assert abs(result.value - TWO_PI_I) <= 1e-10
        assert result.error_estimate <= 1e-10

    def test_exp_over_z_around_unit_circle(self):
        # residue at 0 of exp(z)/z is exp(0) = 1
        result = contour_integral(parse_function("exp(z)/z", [0j]), circle(), 1e-10)
        assert abs(result.value - TWO_PI_I) <= 1e-10

    def test_constant_function(self):
        # an antiderivative oracle: the integral of 2 is 2 (end - start)
        assert contour_integral(parse_function("2"), square(2.0), 1e-12).value == 0j
        open_path = polyline([0j, 1 + 1j, 3 - 1j], closed=False)
        assert abs(contour_integral(parse_function("2"), open_path, 1e-12).value
                   - 2 * (3 - 1j)) <= 1e-12
        assert abs(contour_integral(parse_function("2"), circle(), 1e-12).value) <= 1e-12

    def test_shifted_pole(self):
        # residue of 1/(z - a) inside a square about a
        f = parse_function("1/(z - (0.25+0.25i))", [0.25 + 0.25j])
        result = contour_integral(f, square(2.0), 1e-10)
        assert abs(result.value - TWO_PI_I) <= 1e-9


class TestAlgebraicProperties:
    def test_linearity(self, rng):
        tol = 1e-10
        for _ in range(5):
            path = random_polyline(rng, 5)
            f = parse_function("z^2 + 1")
            g = parse_function("exp(z)")
            a, b = 2.0 - 1j, 0.5j
            combo = AnalyticFunction(Add(Mul(Const(a), f.expr), Mul(Const(b), g.expr)), ())
            lhs = contour_integral(combo, path, tol).value
            rhs = a * contour_integral(f, path, tol).value + b * contour_integral(g, path, tol).value
            assert abs(lhs - rhs) <= 2 * tol * max(1.0, abs(a) + abs(b))

    def test_orientation_reversal_negates(self, rng):
        tol = 1e-10
        f = parse_function("1/z", [0j])
        for radius in [1.0, 1.7]:
            path = circle(radius=radius)
            forward = contour_integral(f, path, tol).value
            backward = contour_integral(f, path.reverse(), tol).value
            assert abs(forward + backward) <= 2 * tol

    def test_additivity_under_vertex_split(self):
        tol = 1e-10
        f = parse_function("exp(z)")
        verts = [1 + 0j, 1j, -1 - 0.5j]
        split = [1 + 0j, 0.5 + 0.5j, 1j, -1 - 0.5j]  # extra collinear vertex
        i1 = contour_integral(f, polyline(verts), tol).value
        i2 = contour_integral(f, polyline(split), tol).value
        assert abs(i1 - i2) <= 2 * tol

    def test_closed_path_exactness_for_entire_functions(self, rng):
        # antiderivative oracle: exact integral over any closed path is 0
        tol = 1e-10
        for label, (text, antideriv) in ENTIRE_FUNCTIONS.items():
            f = parse_function(text)
            for _ in range(4):
                path = random_polyline(rng, 6)
                start = path.value(0.0)
                assert antideriv(start) - antideriv(path.value(1.0)) == 0
                assert abs(contour_integral(f, path, tol).value) <= tol, label

    def test_winding_quantization(self, rng):
        f = parse_function("1/(z - (2+2i))", [2 + 2j])
        for _ in range(8):
            path = random_polyline(rng, 5)  # stays inside |z| <= 1, far from 2+2i
            value = contour_integral(f, path, 1e-9).value / TWO_PI_I
            assert abs(value - round(value.real)) <= 1e-6


class TestGuards:
    def test_pole_on_the_path_refused(self):
        f = parse_function("1/(z - 1)", [1 + 0j])
        with pytest.raises(NearSingularity):
            contour_integral(f, circle(), 1e-8)

    def test_pole_too_close_to_path_refused(self):
        f = parse_function("1/(z - 1.0000000001)", [1.0000000001 + 0j])
        with pytest.raises(NearSingularity):
            contour_integral(f, circle(), 1e-8)

    def test_pole_clearance_accepts_moderate_gap(self):
        f = parse_function("1/(z - 1.001)", [1.001 + 0j])
        result = contour_integral(f, circle(), 1e-8)
        assert abs(result.value) <= 1e-7  # winding 0 about an outside pole

    def test_unreachable_tolerance(self):
        f = parse_function("exp(z)")
        path = polyline([0j, 1 + 1j], closed=False)
        with pytest.raises(ToleranceNotReached):
            contour_integral(f, path, 1e-300)

    def test_rounding_limited_tolerance_is_met(self):
        # near the pole the K15/G7 discrepancy bottoms out at rounding level
        # before tol 1e-12 is met piece by piece; those pieces are accepted
        # and the total error estimate still stays within tol
        f = parse_function("1/(z-0.99)", [0.99 + 0j])
        result = contour_integral(f, circle(), 1e-12)
        assert abs(result.value - TWO_PI_I) <= 1e-12
        assert result.error_estimate <= 1e-12

    def test_invalid_tolerance(self):
        with pytest.raises(InvalidEpsilon):
            contour_integral(parse_function("z"), circle(), 0.0)

    def test_only_piecewise_paths(self):
        # a bare evaluator of the unit circle is not a path
        def not_a_path(xs):
            return np.exp(2j * math.pi * np.asarray(xs))

        with pytest.raises(TypeError):
            contour_integral(parse_function("z"), not_a_path, 1e-8)


class TestChainIntegration:
    def test_two_member_chain_of_identical_circles(self):
        chain = _dummy_chain(circle(), circle())
        out = integral_along_chain(parse_function("1/z", [0j]), chain, 1e-10)
        assert len(out.results) == 2
        assert out.max_deviation <= 2e-10
        for r in out.results:
            assert abs(r.value - TWO_PI_I) <= 1e-10

    def test_polynomial_chain_members_all_zero(self):
        chain = _dummy_chain(square(2.0), square(2.0))
        out = integral_along_chain(parse_function("z^2"), chain, 1e-10)
        assert all(abs(r.value) <= 1e-10 for r in out.results)

    def test_constant_member_integrates_to_zero(self):
        # a constant end path and a constant row alike
        p = 0.5 + 0.5j
        chain = _dummy_chain(constant_path(p), constant_path(p), rows=[[p, p]])
        out = integral_along_chain(parse_function("exp(z)"), chain, 1e-12)
        assert [r.value for r in out.results] == [0j] * 3

    def test_member_errors_carry_index(self):
        f = parse_function("1/(z - 1)", [1 + 0j])
        chain = _dummy_chain(circle(center=5 + 0j, radius=0.5), circle())
        with pytest.raises(NearSingularity) as exc_info:
            integral_along_chain(f, chain, 1e-8)
        assert exc_info.value.member_index == 1

    def test_deviation_by_blocks_of_rows_is_the_full_matrix_max(self):
        # 600 values take three blocks of 256 rows; |a - b| and |b - a| have
        # the same bits and max is exact, so the blocks give the same float
        from contourchain import integrate

        rng = np.random.default_rng(7)
        scale = 10.0 ** rng.uniform(-3, 3, 600)
        values = (rng.standard_normal(600) + 1j * rng.standard_normal(600)) * scale
        full = float(np.abs(values[:, None] - values[None, :]).max())
        assert integrate._max_deviation(values) == full
        assert integrate._max_deviation(values[:1]) == 0.0

    def test_non_finite_integrand_fails_the_lowest_such_member_at_once(self):
        # z^1100 overflows for |z| >= 2 but not on the unit circle; at a
        # point where f overflows, f z' = inf * 0 is not finite either
        f = parse_function("z^1100")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the middle member a row through 3, 3i, -3 and -3i, all of whose
            # points have |z| >= 2
            square_row = dict(rows=[[3, 3j, -3, -3j, 3]], breakpoints=np.arange(5) / 4)
            for members, lowest in [(dict(gamma0=circle(), gamma1=circle(radius=2.0),
                                          **square_row), 1),
                                    (dict(gamma0=circle(), gamma1=constant_path(3 + 0j)), 1),
                                    (dict(gamma0=square(5.0), gamma1=circle()), 0)]:
                with pytest.raises(ToleranceNotReached, match="integrand is not finite") as exc:
                    integral_along_chain(f, _dummy_chain(**members), 1e-9)
                assert exc.value.member_index == lowest
            with pytest.raises(ToleranceNotReached, match="integrand is not finite"):
                contour_integral(f, circle(radius=2.0), 1e-9)
            assert abs(contour_integral(f, circle(), 1e-9).value) <= 1e-9


class TestDeterminism:
    def test_bit_identical_repeat(self):
        f = parse_function("exp(z)/z", [0j])
        r1 = contour_integral(f, circle(), 1e-12)
        r2 = contour_integral(f, circle(), 1e-12)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate
        assert r1.evaluations == r2.evaluations


class TestRuleSums:
    def test_one_piece_alone_and_in_a_batch_bit_identical(self):
        # a lone column and the same column in a batch take the same sums
        from contourchain import integrate

        rng = np.random.default_rng(11)
        n = 300
        scale = 10.0 ** rng.uniform(-3, 3, n)
        cols = (rng.standard_normal((15, n)) + 1j * rng.standard_normal((15, n))) * scale
        half = rng.uniform(1e-3, 1.0, n)
        batch = integrate._rule_sums(cols, half)
        for i in range(n):
            alone = integrate._rule_sums(np.ascontiguousarray(cols[:, i:i + 1]), half[i:i + 1])
            for one, many in zip(alone, batch):
                assert one.shape == (1,)
                assert one[0] == many[i]


def _annulus_chain(g0, g1):
    # eps caps every pair bound at 0.05, so the chains have 21 to 27 members
    return build_chain(linear_homotopy(g0, g1), g0, g1, Annulus(0j, 0.5, 2.5), eps=0.05)


def _star_chain():
    g = square(2.0, center=0.1 + 0.1j)
    sigma = star_null_homotopy(g, 0.1 + 0.1j)
    return build_chain(sigma, g, sigma.gamma1, Disk(0.1 + 0.1j, 1.55))


def test_quadrature_clearances_are_the_members_certified_clearances(monkeypatch):
    # the quadrature measures its line members from one stacked table; on
    # the benchmark's annulus chains (seeds 101-105) that gives, bit for
    # bit, what certified_clearances gives on the member paths
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    chains = 0
    for seed in range(101, 106):
        for op in workloads.build("annulus_verify", seed):
            spec = SpecDocument.from_dict(op.inputs)
            sigma, gamma0, gamma1 = spec.build_homotopy()
            chain = build_chain(sigma, gamma0, gamma1, spec.domain, eps=spec.eps)
            poles = spec.function.singularities
            members = _Members((chain.gamma0,), chain.rows, chain.breakpoints, (chain.gamma1,))
            assert members.clearances(poles).tobytes() == \
                certified_clearances(chain.members, poles).tobytes()
            chains += 1
    assert chains == 15


class TestBatchedChainQuadrature:
    """All members go through one quadrature batch; each gets what it gets alone."""

    @pytest.mark.parametrize("make, text, poles", [
        (lambda: _annulus_chain(circle(), circle(radius=2.0)), "1/(z-(0.1+0.05i))",
         [0.1 + 0.05j]),
        (lambda: _annulus_chain(square(2.0), circle(radius=1.8)),
         "1/((z-(0.1+0.05i))*(z-(3.2-0.4i)))", [0.1 + 0.05j, 3.2 - 0.4j]),
        (lambda: _annulus_chain(circle(), ellipse(2.0, 1.0)), "exp(z)/(z-(0.1+0.05i))",
         [0.1 + 0.05j]),
        (_star_chain, "exp(z)/(z-3)", [3 + 0j]),
    ], ids=["circle-circle", "square-circle", "circle-ellipse", "star-square"])
    def test_members_match_one_at_a_time(self, make, text, poles):
        chain = make()
        f = parse_function(text, poles)
        batch = integral_along_chain(f, chain, 1e-9).results
        assert len(batch) == len(chain.members)
        for member, result in zip(chain.members, batch):
            single = contour_integral(f, member, 1e-9)
            assert result.value == single.value
            assert result.error_estimate == single.error_estimate
            assert result.evaluations == single.evaluations

    def test_only_a_graded_end_member_gets_other_first_pieces(self, monkeypatch):
        # the pole is more than a third of a segment's weight from every
        # member but the ellipse, whose one arc weighs 4 pi: only that end
        # member starts from graded pieces, the same alone and in the chain
        chain = _annulus_chain(circle(), ellipse(2.0, 1.0))
        f = parse_function("exp(z)/(z-(0.1+0.05i))", [0.1 + 0.05j])
        first = _recorded_first_pieces(monkeypatch)
        batch = integral_along_chain(f, chain, 1e-9).results
        [(lows, _)] = first
        first.clear()
        for member, result in zip(chain.members, batch):
            single = contour_integral(f, member, 1e-9)
            assert (result.value, result.error_estimate, result.evaluations) == (
                single.value, single.error_estimate, single.evaluations)
        graded = [k for k, member in enumerate(chain.members)
                  if not np.array_equal(first[k][0], member.breakpoints[:-1])]
        assert graded == [len(chain.members) - 1]
        assert lows.size == sum(len(pieces[0]) for pieces in first)

    def test_interior_member_inside_the_pole_clearance(self):
        chain = _annulus_chain(circle(), circle(radius=2.0))
        member = chain.members[5]
        a, b = member.vertices()[3:5]
        # 5e-10 off the middle of one of the member's segments
        pole = (a + b) / 2 + 5e-10 * 1j * (b - a) / abs(b - a)
        f = AnalyticFunction(Div(Const(1 + 0j), Sub(Var(), Const(pole))), (pole,))
        with pytest.raises(NearSingularity) as exc_info:
            integral_along_chain(f, chain, 1e-9)
        assert exc_info.value.member_index == 5
        with pytest.raises(NearSingularity) as single:
            contour_integral(f, member, 1e-9)
        assert str(exc_info.value) == str(single.value)

    @pytest.mark.parametrize("declared, undeclared", [(9, 6), (4, 6)])
    def test_lowest_failing_member_raises(self, declared, undeclared):
        # a declared pole on one member fails its clearance check; an
        # undeclared one a third of the way along a segment of another
        # keeps that member's quadrature from converging
        chain = _annulus_chain(circle(), circle(radius=2.0))
        a, b = chain.members[undeclared].vertices()[7:9]
        p, q = (2 * a + b) / 3, complex(chain.members[declared].vertices()[2])
        f = AnalyticFunction(Div(Const(1 + 0j), Mul(Sub(Var(), Const(p)), Sub(Var(), Const(q)))),
                             (q,))
        expected = min(declared, undeclared)
        with pytest.raises((NearSingularity, ToleranceNotReached)) as single:
            contour_integral(f, chain.members[expected], 1e-9)
        with pytest.raises(type(single.value)) as exc_info:
            integral_along_chain(f, chain, 1e-9)
        assert exc_info.value.member_index == expected
        assert str(exc_info.value) == str(single.value)

    def test_lowest_member_raising_in_evaluation(self):
        # undeclared poles at the middle of a segment of two members: the
        # centre node of the first round lands on them, and the divisor's
        # guard raises for both in the same evaluation
        chain = _annulus_chain(circle(), circle(radius=2.0))
        poles = [complex(chain.members[k].vertices()[7:9].mean()) for k in (9, 6)]
        f = AnalyticFunction(Div(Const(1 + 0j), Mul(Sub(Var(), Const(poles[0])),
                                                     Sub(Var(), Const(poles[1])))), ())
        with pytest.raises(NearSingularity) as single:
            contour_integral(f, chain.members[6], 1e-9)
        with pytest.raises(NearSingularity) as exc_info:
            integral_along_chain(f, chain, 1e-9)
        assert exc_info.value.member_index == 6
        assert str(exc_info.value) == str(single.value)

    def test_two_members_inside_the_pole_clearance(self):
        chain = _annulus_chain(circle(), circle(radius=2.0))
        poles = [complex(chain.members[k].vertices()[2]) for k in (8, 3)]
        f = AnalyticFunction(Div(Const(1 + 0j), Mul(Sub(Var(), Const(poles[0])),
                                                     Sub(Var(), Const(poles[1])))), tuple(poles))
        with pytest.raises(NearSingularity) as exc_info:
            integral_along_chain(f, chain, 1e-9)
        assert exc_info.value.member_index == 3

    def test_constant_member_in_a_batch(self):
        # the constant member, a row of one segment from 0.5+0.5i to itself,
        # has zero weight and shares its tol evenly, with no 0/0 on the way
        chain = _dummy_chain(square(2.0), circle(), rows=[[0.5 + 0.5j, 0.5 + 0.5j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = integral_along_chain(parse_function("exp(z)/(z-0.25)", [0.25 + 0j]), chain,
                                       1e-12)
        assert out.results[1].value == 0j
        assert out.results[1].evaluations == 15
        for member, result in zip(chain.members, out.results):
            single = contour_integral(parse_function("exp(z)/(z-0.25)", [0.25 + 0j]), member,
                                      1e-12)
            assert result.value == single.value
            assert result.error_estimate == single.error_estimate
            assert result.evaluations == single.evaluations

    def test_batch_never_holds_more_pieces_than_one_member_may(self, monkeypatch):
        # with the cap at 150 pieces each member fits alone but the chain's
        # 20 members do not; the highest members wait for later batches
        from contourchain import integrate

        chain = _annulus_chain(circle(), circle(radius=2.0))
        f = parse_function("1/(z-(0.1+0.05i))", [0.1 + 0.05j])
        monkeypatch.setattr(integrate, "_MAX_PIECES", 150)
        rounds = []
        evaluate = AnalyticFunction.evaluate
        monkeypatch.setattr(AnalyticFunction, "evaluate",
                            lambda self, z: rounds.append(np.shape(z)) or evaluate(self, z))
        batch = integral_along_chain(f, chain, 1e-9).results
        assert max(shape[-1] for shape in rounds) <= 150
        for member, result in zip(chain.members, batch):
            single = contour_integral(f, member, 1e-9)
            assert result.value == single.value
            assert result.error_estimate == single.error_estimate
            assert result.evaluations == single.evaluations

    def test_deferred_end_member_alone_and_in_the_chain_bit_identical(self, monkeypatch):
        # with the cap at 150 pieces the outer circle, the chain's last
        # member, waits for a later batch; there and alone it is integrated
        # by the same loop and summed in the same order
        from contourchain import integrate

        chain = _annulus_chain(circle(), circle(radius=2.0))
        f = parse_function("exp(z)/(z-(0.1+0.05i))", [0.1 + 0.05j])
        monkeypatch.setattr(integrate, "_MAX_PIECES", 150)
        batches = []
        run_batch = integrate._batch

        def batch(f, paths, *rest):
            batches.append(len(paths))
            return run_batch(f, paths, *rest)

        monkeypatch.setattr(integrate, "_batch", batch)
        in_chain = integral_along_chain(f, chain, 1e-9).results[-1]
        assert len(batches) >= 2 and batches[-1] < len(chain.members)
        batches.clear()
        alone = contour_integral(f, chain.members[-1], 1e-9)
        assert batches == [1]
        assert (in_chain.value, in_chain.error_estimate, in_chain.evaluations) == (
            alone.value, alone.error_estimate, alone.evaluations)


def _with_pole(text: str, a: complex):
    """f parsed from ``text``, where the letter a stands for the declared pole ``a``."""
    sign = "+" if a.imag >= 0 else "-"
    return parse_function(text.replace("a", f"({a.real!r}{sign}{abs(a.imag)!r}i)"), [a])


def _recorded_pieces(monkeypatch):
    """Every node array the quadrature evaluates, one column per piece."""
    from contourchain import integrate

    seen = []
    path_values = integrate._path_values
    monkeypatch.setattr(integrate, "_path_values",
                        lambda nodes, *rest: seen.append(nodes.copy()) or path_values(nodes, *rest))
    return seen


def _recorded_first_pieces(monkeypatch):
    """The (lows, highs) of the first pieces of every quadrature loop."""
    from contourchain import integrate

    first = []
    first_pieces = integrate._first_pieces

    def record(*args):
        tables = first_pieces(*args)
        first.append(tables[:2])
        return tables

    monkeypatch.setattr(integrate, "_first_pieces", record)
    return first


def _nodes(lo, hi):
    """The Gauss-Kronrod nodes of the piece [lo, hi], as the loop computes them."""
    from contourchain import integrate

    return (lo + hi) / 2 + (hi - lo) / 2 * integrate._XGK


def _quarters(lo, hi):
    """The quarters of [lo, hi] that the loop cuts, by two bisections."""
    mid = (lo + hi) / 2
    cuts = [lo, (lo + mid) / 2, mid, (mid + hi) / 2, hi]
    return list(zip(cuts, cuts[1:]))


# the pole ladder of the near-pole benchmark: six distances, log-spaced
_POLE_LADDER = [3e-3 * (1e-1 / 3e-3) ** (k / 5) for k in range(6)]
# the circle's and the square's four segments lie on spans whose inner ends
# are not dyadic, so a quarter's bounds computed any other way than by two
# bisections differ in some bits; the ellipse's one arc is graded, so its
# first pieces are not dyadic either
_SPANS = np.array([0.0, 0.3, 0.55, 0.8, 1.0])
_ELLIPSE_NORMAL = complex(math.cos(2.1), 1.6 * math.sin(2.1))
_SHAPES = {
    # (path, foot on the path, unit outward normal there)
    "circle": (PiecewisePath._closed_arcs(0j, 1.0, 1.0, [k * (math.pi / 2) for k in range(5)],
                                          _SPANS), cmath.exp(0.4j), cmath.exp(0.4j)),
    "square": (PiecewisePath.from_vertices(square(2.0).vertices(), _SPANS, closed=True),
               1 + 0.3j, 1 + 0j),
    "ellipse": (ellipse(1.6, 1.0), complex(1.6 * math.cos(2.1), math.sin(2.1)),
                _ELLIPSE_NORMAL / abs(_ELLIPSE_NORMAL)),
    # the vertex 1.6 is the seam where the ellipse's one arc starts and ends
    "ellipse-seam": (ellipse(1.6, 1.0), 1.6 + 0j, 1 + 0j),
}


class TestQuarterSplit:
    """The first pieces are graded towards the declared poles; each round
    then splits an unfinished piece into the quarters that two bisections
    give."""

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("side", [-1, 1], ids=["inside", "outside"])
    def test_every_piece_is_two_bisections_deep(self, monkeypatch, shape, side):
        # every evaluated piece is a graded first piece, or a quarter of a
        # piece evaluated in the round before, bit for bit
        path, foot, normal = _SHAPES[shape]
        pole = foot + side * 3e-3 * normal
        seen = _recorded_pieces(monkeypatch)
        first = _recorded_first_pieces(monkeypatch)
        result = contour_integral(_with_pole("1/(z-a)", pole), path, 1e-9)
        assert 15 * sum(nodes.shape[1] for nodes in seen) == result.evaluations
        [(lows, highs)] = first
        # the first pieces tile the path, cut at every breakpoint and more
        assert lows[0] == 0.0 and highs[-1] == 1.0
        assert np.array_equal(lows[1:], highs[:-1])
        assert set(path.breakpoints[:-1].tolist()) <= set(lows.tolist())
        assert lows.size > path.num_segments
        candidates = list(zip(lows.tolist(), highs.tolist()))
        for k, nodes in enumerate(seen):
            by_nodes = {_nodes(lo, hi).tobytes(): (lo, hi) for lo, hi in candidates}
            evaluated = [by_nodes[column.tobytes()] for column in nodes.T]
            assert len(set(evaluated)) == len(evaluated)  # no piece evaluated twice
            if k == 0:
                assert len(evaluated) == len(candidates)
            candidates = [q for lo, hi in evaluated for q in _quarters(lo, hi)]

    def test_near_pole_integral_takes_at_most_two_rounds(self, monkeypatch):
        # the bisection loop takes 11 rounds here and the quarter split from
        # whole segments 6, each at a fixed cost
        seen = _recorded_pieces(monkeypatch)
        result = contour_integral(parse_function("1/(z-1.003)", [1.003 + 0j]), circle(), 1e-9)
        assert abs(result.value) <= 1e-9
        assert len(seen) <= 2

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("text, residue", [("1/(z-a)", lambda a: 1.0),
                                               ("exp(z)/(z-a)", cmath.exp)],
                             ids=["inv", "exp"])
    def test_pole_ladder_against_the_residue(self, monkeypatch, shape, text, residue):
        path, foot, normal = _SHAPES[shape]
        seen = _recorded_pieces(monkeypatch)
        for distance in _POLE_LADDER:
            for side in (-1, 1):
                a = foot + side * distance * normal
                exact = TWO_PI_I * residue(a) if side < 0 else 0j
                seen.clear()
                result = contour_integral(_with_pole(text, a), path, 1e-9)
                assert abs(result.value - exact) <= 1e-9, (distance, side)
                assert result.error_estimate <= 1e-9
                assert len(seen) <= 2, (distance, side)

    @pytest.mark.parametrize("make, distance", [(circle, 2e-9), (circle, 1e-6),
                                                (lambda: square(2.0), 2e-9),
                                                (lambda: square(2.0), 1e-6),
                                                (lambda: circle(radius=1e4), 2e-7)],
                             ids=["circle-2e-9", "circle-1e-6", "square-2e-9", "square-1e-6",
                                  "wide-circle-2e-7"])
    def test_graded_pieces_keep_the_caps(self, monkeypatch, make, distance):
        # a pole this close meets the no-progress fault: pieces whose
        # discrepancy stops shrinking above their share are quartered until
        # a cap ends them.  From graded first pieces the loop ends as it does
        # from whole segments (the grading switched off), in no more rounds;
        # no round holds more than _MAX_PIECES pieces and no piece is finer
        # than 2**-40 of its segment, not even where the pole is closer than
        # that to a wide segment.  The pieces evaluated in all are not
        # bounded by the whole-segment loop's: both end when a round would
        # pass the piece cap, and 1e-6 off the circle the graded start
        # evaluates up to twice as many.
        from contourchain import integrate

        path = make()
        foot = path.value(0.1)
        f = _with_pole("1/(z-a)", foot * (1 + distance / abs(foot)))

        def run():
            seen = _recorded_pieces(monkeypatch)
            try:
                outcome = contour_integral(f, path, 1e-9).value
            except ToleranceNotReached as exc:
                outcome = str(exc)
            monkeypatch.undo()
            return outcome, seen

        with monkeypatch.context() as m:
            m.setattr(integrate, "_GRADE_GATE", math.inf)
            whole, whole_seen = run()
        graded, graded_seen = run()
        if isinstance(whole, str):
            assert graded == whole == ("quadrature did not converge to tol=1e-09 "
                                       "within 40 bisections per segment")
        else:
            assert abs(graded - whole) <= 2e-9
        assert len(graded_seen) <= len(whole_seen)
        assert max(n.shape[1] for n in graded_seen) <= integrate._MAX_PIECES
        breaks = path.breakpoints
        for nodes in graded_seen:
            width = (nodes[-1] - nodes[0]) / (integrate._XGK[-1] - integrate._XGK[0])
            k = np.searchsorted(breaks, nodes[7], side="right") - 1
            assert (width >= 0.999 * 2.0 ** -40 * (breaks[k + 1] - breaks[k])).all()

    def test_undeclared_pole_on_the_path_reaches_the_depth_cap(self):
        # no node lands on z = 1, so the guard never fires; the pieces about
        # it are still unfinished after 2**-40 of their segment
        with pytest.raises(ToleranceNotReached, match="within 40 bisections per segment"):
            contour_integral(parse_function("1/(z-1)"), circle(), 1e-9)


def _half_disk(gap: float = 0.0):
    """The upper unit half-disk's boundary: an arc over [0, 1/2] and its
    chord, which ends ``gap`` past the arc's start (float noise that the
    closed path snaps)."""
    arc = ArcSegment(0j, 1.0, 0.0, math.pi, 0.0, 0.5)
    return PiecewisePath([arc, LineSegment(arc.end_value, arc.start_value + gap, 0.5, 1.0)],
                         closed=True)


def _segment_rows(members: _Members, m: int, path: PiecewisePath) -> np.ndarray:
    """The row of each segment of member m, the path ``path``, in the
    members' two tables numbered lines first."""
    lines, _, (_, line_ids, line_widths), (_, arc_ids, arc_widths) = members.tables
    owner = np.repeat(line_ids + arc_ids, line_widths + arc_widths)
    on_line, on_arc = np.flatnonzero(owner[:lines.s0.size] == m), \
        lines.s0.size + np.flatnonzero(owner[lines.s0.size:] == m)
    return np.concatenate([on_line, on_arc])[path._rows]


class TestSegmentTables:
    """Every member's segments are rows of one line table and one arc table;
    the quadrature and the clearances read the tables, with no path object
    evaluated and no view of a chain row made."""

    @pytest.mark.parametrize("make", [
        lambda: circle(0.2 - 0.1j, 1.3),
        lambda: ellipse(1.6, 0.7, 0.2j),
        lambda: polyline([1 + 0j, 0.5 + 1j, -1 + 0.2j, -0.3 - 1j]),
        _half_disk,
        lambda: _half_disk().reverse(),
        lambda: _half_disk(1e-14),
    ], ids=["circle", "ellipse", "polyline", "mixed", "mixed-reversed", "mixed-snapped"])
    def test_path_values_are_eval_with_derivative(self, make):
        # random pieces of each member, and pieces that end at 1, where a
        # closed path with an arc snaps to its start, whichever kind its
        # last segment is: the tables give eval_with_derivative's bits,
        # alone and as an end of a chain
        from contourchain import integrate

        path = make()
        rng = np.random.default_rng(17)
        members = {"alone": (_Members((path,)), 0),
                   "in-chain": (_Members((circle(),), np.array([[1, 1j, -1, -1j, 1]]),
                                         np.arange(5) / 4, (path,)), 2)}
        for tables, m in members.values():
            breaks = path.breakpoints
            k = np.concatenate([rng.integers(0, path.num_segments, 200),
                                [path.num_segments - 1] * 3])
            lo, hi = np.sort(rng.uniform(breaks[k], breaks[k + 1], (2, k.size)), axis=0)
            # three pieces ending at 1, the last two so short that nodes
            # round to 1
            hi[-3:], lo[-2:] = 1.0, [1 - 1e-15, 1 - 2e-16]
            nodes = (lo + hi) / 2 + (hi - lo) / 2 * integrate._XGK[:, None]
            zs, ders = integrate._path_values(nodes, _segment_rows(tables, m, path)[k], tables)
            vals, expected = path.eval_with_derivative(nodes.ravel())
            assert (nodes == 1.0).any()
            assert zs.tobytes() == vals.reshape(nodes.shape).tobytes()
            assert np.broadcast_to(ders, nodes.shape).tobytes() == \
                expected.reshape(nodes.shape).tobytes()

    @pytest.mark.parametrize("end", ["head", "tail"])
    def test_a_mixed_member_gets_what_it_gets_alone(self, end):
        path = _half_disk()
        g = circle(radius=2.0)
        chain = (_dummy_chain(path, g, rows=[[1, 1j, -1, -1j, 1]], breakpoints=np.arange(5) / 4)
                 if end == "head" else
                 _dummy_chain(g, path, rows=[[1, 1j, -1, -1j, 1]], breakpoints=np.arange(5) / 4))
        f = _with_pole("1/(z-a)", 0.999 * cmath.exp(1j))
        results = integral_along_chain(f, chain, 1e-9).results
        for member, result in zip(chain.members, results):
            alone = contour_integral(f, member, 1e-9)
            assert (result.value, result.error_estimate, result.evaluations) == (
                alone.value, alone.error_estimate, alone.evaluations)

    @pytest.mark.parametrize("theta", [0.4, 1.0, 2.5])
    @pytest.mark.parametrize("side", [-1, 1], ids=["inside", "outside"])
    def test_a_mixed_path_is_graded(self, monkeypatch, theta, side):
        # a pole 1e-3 off the arc: the mixed path starts from graded pieces,
        # as every other kind does, and takes fewer evaluations than from
        # whole segments, which take 1170 to 1350 here
        from contourchain import integrate

        a = (1 + side * 1e-3) * cmath.exp(1j * theta)
        f = _with_pole("1/(z-a)", a)
        first = _recorded_first_pieces(monkeypatch)
        graded = contour_integral(f, _half_disk(), 1e-9)
        [(lows, _)] = first
        assert lows.size > 2
        monkeypatch.setattr(integrate, "_GRADE_GATE", math.inf)
        whole = contour_integral(f, _half_disk(), 1e-9)
        assert graded.evaluations < whole.evaluations
        assert graded.evaluations <= 800
        exact = TWO_PI_I if side < 0 else 0j
        assert abs(graded.value - exact) <= 1e-9
        assert graded.error_estimate <= 1e-9

    def test_stacked_arc_clearances_are_each_members(self, monkeypatch):
        # one pass over the annulus chains' stacked arcs, reduced per member,
        # gives each end member's own clearance, bit for bit
        from contourchain.paths import _arc_clearance

        chains = both = 0
        for chain, spec in _annulus_verify_chains(monkeypatch):
            poles = np.array(spec.function.singularities, dtype=np.complex128)
            members = _Members((chain.gamma0,), chain.rows, chain.breakpoints, (chain.gamma1,))
            _, arcs, _, (starts, ids, _) = members.tables
            ends = [(m, g) for m, g in ((0, chain.gamma0), (len(chain) - 1, chain.gamma1))
                    if not g._all_lines]
            assert ids == [m for m, _ in ends]
            stacked = _arc_clearance(arcs, poles, starts)
            alone = [_arc_clearance(g._arcs, poles, [0]) for _, g in ends]
            assert stacked.tobytes() == np.concatenate(alone).tobytes()
            chains += 1
            both += len(ends) == 2
        assert chains == 15 and both == 10

    def test_graded_chains_evaluate_no_path(self, monkeypatch):
        # the benchmark's annulus chains with the pole moved 1e-3 off a
        # segment of an interior row, which grades that row: integration
        # reads the tables alone, so no path is evaluated and no view of a
        # row is made
        from contourchain import integrate
        from conftest import counted_vertex_rows

        chains = list(_annulus_verify_chains(monkeypatch))
        views = counted_vertex_rows(monkeypatch)
        evaluated, cut = [], []
        monkeypatch.setattr(PiecewisePath, "eval_with_derivative",
                            lambda self, xs: evaluated.append(self))
        cuts = integrate._cuts
        monkeypatch.setattr(integrate, "_cuts", lambda *args: cut.append(cuts(*args)) or cut[-1])
        for chain, _ in chains:
            row = chain.rows[len(chain.rows) // 2]
            a, b = row[3], row[4]
            pole = (a + b) / 2 + 1e-3 * 1j * (b - a) / abs(b - a)
            f = AnalyticFunction(Div(Const(1 + 0j), Sub(Var(), Const(pole))), (pole,))
            cut.clear()
            results = integral_along_chain(f, chain, 1e-9).results
            assert any(cut)
            assert len(results) == len(chain)
            assert "members" not in vars(chain)
        assert evaluated == [] and views == []


def _annulus_verify_chains(monkeypatch):
    """(chain, spec) of the benchmark's 15 annulus_verify documents of seeds 101-105."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for seed in range(101, 106):
        for op in workloads.build("annulus_verify", seed):
            spec = SpecDocument.from_dict(op.inputs)
            sigma, gamma0, gamma1 = spec.build_homotopy()
            yield build_chain(sigma, gamma0, gamma1, spec.domain, eps=spec.eps), spec
