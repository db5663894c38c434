import cmath
import math
import warnings

import numpy as np
import pytest

from contourchain import (
    Annulus,
    Chain,
    ChainCertificate,
    ContainmentCertificate,
    Disk,
    InvalidEpsilon,
    NearSingularity,
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
from contourchain.expressions import Add, AnalyticFunction, Const, Div, Mul, Sub, Var
from conftest import ENTIRE_FUNCTIONS, random_polyline

TWO_PI_I = 2j * math.pi


def _dummy_chain(members):
    """Chain wrapper for directly-constructed member lists (tests only)."""
    cert = ContainmentCertificate(margin=0.5, net_resolution=0.01)
    return Chain(members=tuple(members), epsilon=0.5, certificate=ChainCertificate(()),
                 containment=cert, partition=np.array([0.0, 1.0]),
                 homotopy=linear_homotopy(members[0], members[-1]))


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
        chain = _dummy_chain([circle(), circle()])
        out = integral_along_chain(parse_function("1/z", [0j]), chain, 1e-10)
        assert len(out.results) == 2
        assert out.max_deviation <= 2e-10
        for r in out.results:
            assert abs(r.value - TWO_PI_I) <= 1e-10

    def test_polynomial_chain_members_all_zero(self):
        chain = _dummy_chain([square(2.0), square(2.0)])
        out = integral_along_chain(parse_function("z^2"), chain, 1e-10)
        assert all(abs(r.value) <= 1e-10 for r in out.results)

    def test_constant_member_integrates_to_zero(self):
        chain = _dummy_chain([constant_path(0.5 + 0.5j)])
        out = integral_along_chain(parse_function("exp(z)"), chain, 1e-12)
        assert out.results[0].value == 0j

    def test_member_errors_carry_index(self):
        f = parse_function("1/(z - 1)", [1 + 0j])
        chain = _dummy_chain([circle(center=5 + 0j, radius=0.5), circle()])
        with pytest.raises(NearSingularity) as exc_info:
            integral_along_chain(f, chain, 1e-8)
        assert exc_info.value.member_index == 1


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
    return build_chain(linear_homotopy(g0, g1), g0, g1, Annulus(0j, 0.5, 2.5))


def _star_chain():
    g = square(2.0, center=0.1 + 0.1j)
    sigma = star_null_homotopy(g, 0.1 + 0.1j)
    return build_chain(sigma, g, sigma.gamma1, Disk(0.1 + 0.1j, 1.55))


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
            # the star chain's integrals vanish, so its scale is the integrand's, about 1
            assert abs(result.value - single.value) <= 1e-14 * max(abs(single.value), 1.0)
            assert result.evaluations == single.evaluations
            assert result.error_estimate == pytest.approx(single.error_estimate, rel=1e-12,
                                                          abs=1e-24)

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
        # the constant member has zero weight and shares its tol evenly, with
        # no 0/0 on the way
        chain = _dummy_chain([square(2.0), constant_path(0.5 + 0.5j), circle()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = integral_along_chain(parse_function("exp(z)/(z-0.25)", [0.25 + 0j]), chain,
                                       1e-12)
        assert out.results[1].value == 0j
        assert out.results[1].evaluations == 15
        for member, result in zip(chain.members, out.results):
            assert result.evaluations == contour_integral(
                parse_function("exp(z)/(z-0.25)", [0.25 + 0j]), member, 1e-12).evaluations

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
            assert abs(result.value - single.value) <= 1e-14 * abs(single.value)
            assert result.evaluations == single.evaluations


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


def _bisection_level(column, lo, hi):
    """How many bisections of the segment [lo, hi] give the piece whose
    Gauss-Kronrod nodes are ``column``, bit for bit; None if none does
    within the depth cap."""
    from contourchain import integrate

    centre = column[integrate._XGK.size // 2]
    for level in range(integrate._MAX_DEPTH + 1):
        mid = (lo + hi) / 2
        if np.array_equal(column, mid + (hi - lo) / 2 * integrate._XGK):
            return level
        lo, hi = (lo, mid) if centre < mid else (mid, hi)
    return None


# the pole ladder of the near-pole benchmark: six distances, log-spaced
_POLE_LADDER = [3e-3 * (1e-1 / 3e-3) ** (k / 5) for k in range(6)]
# the parameter interval's bounds are not dyadic, so a quarter's bounds
# computed any other way than by two bisections differ in some bits
_INTERVAL = (0.1, 1.3)
_ELLIPSE_NORMAL = complex(math.cos(2.1), 1.6 * math.sin(2.1))
_SHAPES = {
    # (path, foot on the path, unit outward normal there)
    "circle": (circle(interval=_INTERVAL), cmath.exp(0.4j), cmath.exp(0.4j)),
    "square": (square(2.0, interval=_INTERVAL), 1 + 0.3j, 1 + 0j),
    "ellipse": (ellipse(1.6, 1.0, interval=_INTERVAL), complex(1.6 * math.cos(2.1), math.sin(2.1)),
                _ELLIPSE_NORMAL / abs(_ELLIPSE_NORMAL)),
}


class TestQuarterSplit:
    """Each round splits an unfinished piece into the quarters that two
    bisections give, so every evaluated piece is one the bisection loop
    could evaluate."""

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("side", [-1, 1], ids=["inside", "outside"])
    def test_every_piece_is_two_bisections_deep(self, monkeypatch, shape, side):
        path, foot, normal = _SHAPES[shape]
        pole = foot + side * 3e-3 * normal
        seen = _recorded_pieces(monkeypatch)
        result = contour_integral(_with_pole("1/(z-a)", pole), path, 1e-9)
        columns = np.concatenate(seen, axis=1).T
        assert 15 * len(columns) == result.evaluations
        breaks = path.breakpoints
        pieces, levels = set(), []
        for column in columns:
            k = int(np.searchsorted(breaks, column[7], side="right")) - 1
            levels.append(_bisection_level(column, breaks[k], breaks[k + 1]))
            assert levels[-1] is not None and levels[-1] % 2 == 0
            pieces.add((k, column[0], column[-1]))
        assert len(pieces) == len(columns)  # no piece evaluated twice
        assert max(levels) >= 8

    def test_near_pole_integral_takes_at_most_seven_rounds(self, monkeypatch):
        # the bisection loop takes 11 rounds here, each at a fixed cost
        seen = _recorded_pieces(monkeypatch)
        result = contour_integral(parse_function("1/(z-1.003)", [1.003 + 0j]), circle(), 1e-9)
        assert abs(result.value) <= 1e-9
        assert len(seen) <= 7

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("text, residue", [("1/(z-a)", lambda a: 1.0),
                                               ("exp(z)/(z-a)", cmath.exp)],
                             ids=["inv", "exp"])
    def test_pole_ladder_against_the_residue(self, shape, text, residue):
        path, foot, normal = _SHAPES[shape]
        for distance in _POLE_LADDER:
            for side in (-1, 1):
                a = foot + side * distance * normal
                exact = TWO_PI_I * residue(a) if side < 0 else 0j
                result = contour_integral(_with_pole(text, a), path, 1e-9)
                assert abs(result.value - exact) <= 1e-9, (distance, side)
                assert result.error_estimate <= 1e-9

    def test_undeclared_pole_on_the_path_reaches_the_depth_cap(self):
        # no node lands on z = 1, so the guard never fires; the pieces about
        # it are still unfinished after 2**-40 of their segment
        with pytest.raises(ToleranceNotReached, match="within 40 bisections per segment"):
            contour_integral(parse_function("1/(z-1)"), circle(), 1e-9)
