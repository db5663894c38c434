import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contourchain import NearSingularity, ParseError, parse_function
from contourchain.expressions import (
    Add,
    AnalyticFunction,
    Const,
    Cos,
    Div,
    Exp,
    Mul,
    Pow,
    Sin,
    Sub,
    Var,
)


class TestParsing:
    def test_variable(self):
        assert parse_function("z").expr == Var()

    def test_reciprocal(self):
        f = parse_function("1/z", [0j])
        assert f.expr == Div(Const(1 + 0j), Var())
        assert f.singularities == (0j,)

    def test_shifted_pole_expression(self):
        # hand-built tree for exp(z)/(z - (1+2i))
        f = parse_function("exp(z)/(z - (1+2i))", [1 + 2j])
        expected = Div(Exp(Var()), Sub(Var(), Add(Const(1 + 0j), Mul(Const(2 + 0j), Const(1j)))))
        assert f.expr == expected

    def test_imaginary_literal_requires_adjacency(self):
        assert parse_function("2i").expr == Mul(Const(2 + 0j), Const(1j))
        assert parse_function("2*i").expr == Mul(Const(2 + 0j), Const(1j))
        with pytest.raises(ParseError):
            parse_function("2 i")

    def test_precedence(self):
        assert parse_function("1+2*3").expr == Add(Const(1 + 0j), Mul(Const(2 + 0j), Const(3 + 0j)))
        assert parse_function("(1+2)*3").expr == Mul(Add(Const(1 + 0j), Const(2 + 0j)), Const(3 + 0j))
        assert parse_function("2*z^3").expr == Mul(Const(2 + 0j), Pow(Var(), 3))

    def test_left_associativity(self):
        assert parse_function("1-2-3").expr == Sub(Sub(Const(1 + 0j), Const(2 + 0j)), Const(3 + 0j))
        assert parse_function("8/4/2").expr == Div(Div(Const(8 + 0j), Const(4 + 0j)), Const(2 + 0j))

    def test_unary_minus_binds_before_power(self):
        # per the grammar, '-' builds a base, so -z^2 is (-z)^2
        assert parse_function("-z^2").expr == Pow(Sub(Const(0j), Var()), 2)
        assert parse_function("-(z^2)").expr == Sub(Const(0j), Pow(Var(), 2))

    def test_scientific_notation(self):
        assert parse_function("2.5e-3").expr == Const(2.5e-3 + 0j)
        assert parse_function("1e+16").expr == Const(1e16 + 0j)

    def test_functions(self):
        assert parse_function("sin(cos(z))").expr == Sin(Cos(Var()))

    @pytest.mark.parametrize("text,pos", [
        ("", 0),
        ("1+", 2),
        ("(1", 2),
        ("z^z", 2),
        ("z^2.5", 2),
        ("w", 0),
        ("1 @ 2", 2),
        ("exp z", 4),
        ("1+2)", 3),
    ])
    def test_errors_carry_position_and_expectations(self, text, pos):
        with pytest.raises(ParseError) as exc_info:
            parse_function(text)
        assert exc_info.value.position == pos
        assert exc_info.value.expected


class TestEvaluation:
    def test_square_of_one_plus_i(self):
        # (1+i)^2 = 2i, exact in floats
        assert parse_function("z^2").evaluate(1 + 1j) == 2j

    def test_reciprocal(self):
        assert parse_function("1/z", [0j]).evaluate(2 + 0j) == 0.5

    def test_euler_identity(self):
        # exp(i pi) = -1 via the library exponential
        f = parse_function(f"exp({math.pi!r}i)")
        assert abs(f.evaluate(0j) + 1) <= 1e-15

    def test_vectorized_evaluation(self):
        f = parse_function("z^2 + 1", [])
        zs = np.array([0j, 1j, 2 + 0j])
        assert np.array_equal(f.evaluate(zs), zs ** 2 + 1)

    def test_near_declared_singularity_rejected(self):
        f = parse_function("1/z", [0j])
        with pytest.raises(NearSingularity):
            f.evaluate(1e-13 + 0j)

    def test_division_guard_without_declaration(self):
        f = parse_function("1/z")
        with pytest.raises(NearSingularity):
            f.evaluate(1e-15 + 0j)

    def test_negative_power_guard(self):
        f = AnalyticFunction(Pow(Var(), -2), (0j,))
        assert f.evaluate(2 + 0j) == 0.25
        with pytest.raises(NearSingularity):
            f.evaluate(1e-15 + 0j)

    def test_nonfinite_input_rejected(self):
        # the non-finite inputs a function takes are its constants and declared poles
        with pytest.raises(ValueError, match="finite"):
            parse_function("z", [complex("inf")])
        with pytest.raises(ValueError, match="finite"):
            Const(complex("nan"))


# strategy for trees the parser itself can produce
def _exprs():
    numbers = st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False)
    atoms = st.one_of(
        numbers.map(lambda x: Const(complex(x))),
        st.just(Const(1j)),
        st.just(Var()),
    )

    def extend(children):
        binary = st.tuples(children, children)
        return st.one_of(
            binary.map(lambda p: Add(*p)),
            binary.map(lambda p: Sub(*p)),
            binary.map(lambda p: Mul(*p)),
            binary.map(lambda p: Div(*p)),
            st.tuples(children, st.integers(min_value=0, max_value=9)).map(lambda p: Pow(*p)),
            children.map(Exp),
            children.map(Sin),
            children.map(Cos),
            children.map(lambda e: Sub(Const(0j), e)),
        )

    return st.recursive(atoms, extend, max_leaves=12)


@given(tree=_exprs())
@example(tree=Pow(Pow(Sub(Const(0j), Var()), 2), 3))
@example(tree=Cos(Pow(Pow(Sub(Const(0j), Const(1j)), 0), 0)))
# a sum whose text starts with '-' is parenthesized as a power's base
@example(tree=Exp(Pow(Add(Sub(Const(0j), Const(1j)), Pow(Const(1j), 0)), 0)))
@settings(max_examples=200, deadline=None)
def test_print_parse_roundtrip(tree):
    text = tree.to_text()
    assert parse_function(text).expr == tree


@given(tree=_exprs())
# sin(exp((i + z) * (-1491.0))) is NaN at -1 - 1i; abs() of a NaN can raise a
# stale OverflowError on CPython 3.11, so finiteness is tested first
@example(tree=Sin(Exp(Mul(Add(Const(1j), Var()), Sub(Const(0j), Const(1491 + 0j))))))
@example(tree=Exp(Pow(Add(Sub(Const(0j), Const(1j)), Const(1j)), 0)))
@settings(max_examples=100, deadline=None)
def test_roundtrip_preserves_semantics(tree):
    reparsed = parse_function(tree.to_text()).expr
    for z in (0.5 + 0.25j, -1 - 1j):
        with np.errstate(all="ignore"):
            try:
                expected = complex(tree.evaluate(z))
            except (NearSingularity, OverflowError):
                continue
            if not cmath.isfinite(expected) or abs(expected) > 1e12:
                continue
            assert complex(reparsed.evaluate(z)) == expected


def test_function_to_text_roundtrip_examples():
    for text in ["1/z", "exp(z)/(z - (1+2i))", "z^2 - 3*z + 2", "-z^2", "sin(z)*cos(z)"]:
        f = parse_function(text)
        assert parse_function(f.to_text()).expr == f.expr
