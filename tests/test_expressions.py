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


# Tokens as text@offset and the parse's text or ParseError, pinned from the
# per-character tokenizer that the one-regex tokenizer replaced.
_PINNED_PARSES = [
    ('2.e3', '2.e3@0',
     '2000.0'),
    ('1e+', '1@0 e@1 +@2',
     "trailing input 'e' at position 1 (expected: end of input, operator)"),
    ('1e5i*z', '1e5@0 i@3 *@4 z@5',
     '100000.0 * i * z'),
    ('3.5e-2*z', '3.5e-2@0 *@6 z@7',
     '0.035 * z'),
    ('1E5', '1E5@0',
     '100000.0'),
    ('2.', '2.@0',
     '2.0'),
    ('.5', None,
     "unexpected character '.' at position 0 (expected: name, number, operator)"),
    ('1e', '1@0 e@1',
     "trailing input 'e' at position 1 (expected: end of input, operator)"),
    ('1e-x', '1@0 e@1 -@2 x@3',
     "trailing input 'e' at position 1 (expected: end of input, operator)"),
    ('z^2.0', 'z@0 ^@1 2.0@2',
     "power wants an integer, got '2.0' at position 2 (expected: integer)"),
    ('z^1e3', 'z@0 ^@1 1e3@2',
     "power wants an integer, got '1e3' at position 2 (expected: integer)"),
    ('sin(z) + cos(2i*z)', 'sin@0 (@3 z@4 )@5 +@7 cos@9 (@12 2@13 i@14 *@15 z@16 )@17',
     'sin(z) + cos(2.0 * i * z)'),
    ('exp(-z)/(z - 1.5)', 'exp@0 (@3 -@4 z@5 )@6 /@7 (@8 z@9 -@11 1.5@13 )@16',
     'exp(-z) / (z - 1.5)'),
    ('  z\t*\n2 ', 'z@2 *@4 2@6',
     'z * 2.0'),
    ('z $ 1', None,
     "unexpected character '$' at position 2 (expected: name, number, operator)"),
    ('12abc', '12@0 abc@2',
     "trailing input 'abc' at position 2 (expected: end of input, operator)"),
    ('2i', '2@0 i@1',
     '2.0 * i'),
    ('2 i', '2@0 i@2',
     "trailing input 'i' at position 2 (expected: end of input, operator)"),
    ('z^', 'z@0 ^@1',
     "unexpected token 'end of input' at position 2 (expected: integer)"),
    ('((z)', '(@0 (@1 z@2 )@3',
     "unexpected token 'end of input' at position 4 (expected: ')')"),
    ('z)', 'z@0 )@1',
     "trailing input ')' at position 1 (expected: end of input, operator)"),
    ('1.2.3', None,
     "unexpected character '.' at position 3 (expected: name, number, operator)"),
    ('z^-1', 'z@0 ^@1 -@2 1@3',
     "unexpected token '-' at position 2 (expected: integer)"),
    ('z**2', 'z@0 *@1 *@2 2@3',
     "unexpected token '*' at position 2 (expected: '(', '-', 'cos(', 'exp(', 'i', 'sin(', 'z', number)"),
]


@pytest.mark.parametrize("text, tokens, outcome", _PINNED_PARSES)
def test_tokens_and_errors_pinned(text, tokens, outcome):
    from contourchain.expressions import _tokenize

    if tokens is None:
        with pytest.raises(ParseError):
            _tokenize(text)
    else:
        kinds, texts, offsets = _tokenize(text)
        assert " ".join(f"{word}@{at}" for word, at in zip(texts[:-1], offsets[:-1])) == tokens
        assert (kinds[-1], texts[-1], offsets[-1]) == ("EOF", "", len(text))
    try:
        assert parse_function(text).to_text() == outcome
    except ParseError as exc:
        assert str(exc) == outcome


# Pieces of expression text: digits, number and operator characters, names,
# whitespace, and characters no token takes (a no-break space, a non-ASCII
# letter and digit, a stray symbol)
_TEXT_PIECES = st.sampled_from([*"0123456789.eE+-*/^()", "z", "i", "exp", "sin", "cos", "w", "ab",
                                " ", "  ", "\t", "\n", "$", "@", "_", "\u00a0", "\u00e9", "\u00b2"])


def _outcome(call):
    """What ``call()`` returns, or its ParseError as (message, offset, expected)."""
    try:
        return call()
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position, exc.expected)


@settings(max_examples=400, deadline=None)
@given(text=st.lists(_TEXT_PIECES, max_size=16).map("".join))
@example(text="")
@example(text="  ")
@example(text="1 e5")
@example(text="2 i*z  ")
def test_scan_tokenizer_matches_the_finditer_oracle(text):
    # the same tokens and the same refusal; and the parser fed the oracle's
    # tokens gives the tree, or the ParseError, that parse_function gives
    from conftest import finditer_tokens
    from contourchain.expressions import _Parser, _tokenize

    theirs = _outcome(lambda: finditer_tokens(text))
    assert _outcome(lambda: _tokenize(text)) == theirs
    if theirs[0] == "ParseError" or not text.strip():
        return

    def oracle_parse():
        parser = _Parser(finditer_tokens(text))
        expr = parser.parse_expr()
        if parser.kinds[parser.k] != "EOF":
            raise ParseError(f"trailing input {parser.texts[parser.k]!r}",
                             parser.offsets[parser.k], {"operator", "end of input"})
        return expr

    try:
        expected = _outcome(oracle_parse)
    except ValueError:  # a constant past the float range, refused by Const
        with pytest.raises(ValueError):
            parse_function(text)
        return
    assert _outcome(lambda: parse_function(text).expr) == expected


@pytest.mark.parametrize("text, position", [
    ("z^\u00b2", 2),     # a superscript two is no digit: int() used to raise ValueError
    ("\u0663*z", 0),     # an Arabic-Indic three used to read as 3.0
    ("z\u00e9", 1),      # a non-ASCII letter, where "unknown name 'z\u00e9'" stood at 0
    ("z\u00a0+1", 1),    # a no-break space used to pass as whitespace
])
def test_non_ascii_characters_refused_where_they_stand(text, position):
    with pytest.raises(ParseError, match="unexpected character") as exc_info:
        parse_function(text)
    assert exc_info.value.position == position


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
