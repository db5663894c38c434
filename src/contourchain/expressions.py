"""Expression trees for analytic functions of one complex variable.

Grammar (left-associative, standard precedence):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number 'i'? | 'i' | 'z'
            | 'exp(' expr ')' | 'sin(' expr ')' | 'cos(' expr ')'
            | '(' expr ')' | '-' base

Numbers are decimal literals (optional fraction and exponent); a number
immediately followed by ``i`` is an imaginary literal, so complex constants
are written ``1+2*i`` or ``1+2i``.  Evaluation works on complex scalars and on
numpy arrays, and every division (and negative power) is guarded: a magnitude
below 1e-14 raises instead of silently blowing up.

Singular points are declared by the caller, not discovered; evaluation refuses
inputs within 1e-12 of a declared singularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearSingularity, ParseError
from .geometry import require_finite_complex

__all__ = [
    "Expr", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Exp", "Sin", "Cos",
    "AnalyticFunction", "parse_function",
]

_DIV_FLOOR = 1e-14
_SINGULARITY_CLEARANCE = 1e-12

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


class Expr:
    precedence = _PREC_ATOM

    def evaluate(self, z):
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError


def _fmt_real(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class Const(Expr):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", require_finite_complex(self.value, "constant"))

    def evaluate(self, z):
        return self.value

    def to_text(self):
        v = self.value
        if v == 1j:
            return "i"
        if v.imag == 0:
            return _fmt_real(v.real) if v.real >= 0 else f"-{_fmt_real(-v.real)}"
        re = "" if v.real == 0 else _fmt_real(v.real) if v.real > 0 else f"-{_fmt_real(-v.real)}"
        im = f"{_fmt_real(v.imag)}*i" if v.imag > 0 else f"-{_fmt_real(-v.imag)}*i"
        if not re:
            return im
        sign = "+" if v.imag > 0 else ""
        return f"({re}{sign}{im})"


@dataclass(frozen=True)
class Var(Expr):
    def evaluate(self, z):
        return z

    def to_text(self):
        return "z"


def _wrap(child: Expr, min_prec: int) -> str:
    text = child.to_text()
    if child.precedence < min_prec:
        return f"({text})"
    return text


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr
    precedence = _PREC_ADD

    def evaluate(self, z):
        return self.lhs.evaluate(z) + self.rhs.evaluate(z)

    def to_text(self):
        return f"{_wrap(self.lhs, _PREC_ADD)} + {_wrap(self.rhs, _PREC_ADD + 1)}"


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr
    rhs: Expr
    precedence = _PREC_ADD

    def evaluate(self, z):
        return self.lhs.evaluate(z) - self.rhs.evaluate(z)

    def to_text(self):
        if self.lhs == Const(0j):
            return f"-{_wrap(self.rhs, _PREC_ATOM)}"
        return f"{_wrap(self.lhs, _PREC_ADD)} - {_wrap(self.rhs, _PREC_ADD + 1)}"


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr
    precedence = _PREC_MUL

    def evaluate(self, z):
        return self.lhs.evaluate(z) * self.rhs.evaluate(z)

    def to_text(self):
        return f"{_wrap(self.lhs, _PREC_MUL)} * {_wrap(self.rhs, _PREC_MUL + 1)}"


def _guard_small(values, what: str):
    mag = np.abs(values)
    if np.any(mag < _DIV_FLOOR):
        raise NearSingularity(f"{what} has magnitude below {_DIV_FLOOR}")


@dataclass(frozen=True)
class Div(Expr):
    lhs: Expr
    rhs: Expr
    precedence = _PREC_MUL

    def evaluate(self, z):
        den = self.rhs.evaluate(z)
        _guard_small(den, "divisor")
        return self.lhs.evaluate(z) / den

    def to_text(self):
        return f"{_wrap(self.lhs, _PREC_MUL)} / {_wrap(self.rhs, _PREC_MUL + 1)}"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int
    precedence = _PREC_POW

    def __post_init__(self):
        if not isinstance(self.exponent, int):
            raise TypeError(f"power exponent must be an int, got {self.exponent!r}")

    def evaluate(self, z):
        base = self.base.evaluate(z)
        if self.exponent < 0:
            _guard_small(base, "base of a negative power")
        return base ** self.exponent

    def to_text(self):
        base = self.base.to_text()
        # only atoms and leading-minus forms may stand unparenthesized before
        # '^', and a power never may: the grammar takes one '^' per factor
        if isinstance(self.base, Pow) or not (self.base.precedence == _PREC_ATOM
                                              or base.startswith("-")):
            base = f"({base})"
        return f"{base}^{self.exponent}"


@dataclass(frozen=True)
class _Call(Expr):
    arg: Expr
    _name = ""
    _fn = None

    def evaluate(self, z):
        return type(self)._fn(self.arg.evaluate(z))

    def to_text(self):
        return f"{self._name}({self.arg.to_text()})"


class Exp(_Call):
    _name = "exp"
    _fn = staticmethod(np.exp)


class Sin(_Call):
    _name = "sin"
    _fn = staticmethod(np.sin)


class Cos(_Call):
    _name = "cos"
    _fn = staticmethod(np.cos)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str   # NUMBER | NAME | one of + - * / ^ ( ) | EOF
    text: str
    pos: int

    @property
    def end(self) -> int:
        return self.pos + len(self.text)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token("NUMBER", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i, {"number", "name", "operator"})
    tokens.append(_Token("EOF", "", n))
    return tokens


_BASE_STARTS = {"number", "'i'", "'z'", "'exp('", "'sin('", "'cos('", "'('", "'-'"}
_FUNCTIONS = {"exp": Exp, "sin": Sin, "cos": Cos}
_I = Const(1j)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.k = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.cur
        self.k += 1
        return tok

    def expect(self, kind: str, expected: set[str]):
        if self.cur.kind != kind:
            raise ParseError(f"unexpected token {self.cur.text or 'end of input'!r}",
                             self.cur.pos, expected)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.cur.kind in "+-":
            op = self.advance().kind
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.cur.kind in "*/":
            op = self.advance().kind
            rhs = self.parse_factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_base()
        if self.cur.kind == "^":
            self.advance()
            tok = self.expect("NUMBER", {"integer"})
            if not tok.text.isdigit():
                raise ParseError(f"power wants an integer, got {tok.text!r}", tok.pos, {"integer"})
            node = Pow(node, int(tok.text))
        return node

    def parse_base(self) -> Expr:
        tok = self.cur
        if tok.kind == "NUMBER":
            self.advance()
            node = Const(complex(float(tok.text)))
            nxt = self.cur
            if nxt.kind == "NAME" and nxt.text == "i" and nxt.pos == tok.end:
                self.advance()
                node = Mul(node, _I)
            return node
        if tok.kind == "NAME":
            if tok.text == "i":
                self.advance()
                return _I
            if tok.text == "z":
                self.advance()
                return Var()
            if tok.text in _FUNCTIONS:
                self.advance()
                self.expect("(", {"'('"})
                arg = self.parse_expr()
                self.expect(")", {"')'"})
                return _FUNCTIONS[tok.text](arg)
            raise ParseError(f"unknown name {tok.text!r}", tok.pos, _BASE_STARTS)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")", {"')'"})
            return node
        if tok.kind == "-":
            self.advance()
            return Sub(Const(0j), self.parse_base())
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos, _BASE_STARTS)


@dataclass(frozen=True)
class AnalyticFunction:
    """Expression plus the finite list of singular points the caller declares.

    The declaration is an assertion that the function is analytic everywhere
    else; integration uses it to keep paths certifiably clear of the poles.
    """

    expr: Expr
    singularities: tuple[complex, ...]

    def __post_init__(self):
        sings = tuple(require_finite_complex(s, "singularity") for s in self.singularities)
        object.__setattr__(self, "singularities", sings)

    def evaluate(self, z):
        if self.singularities:
            zs = np.asarray(z, dtype=np.complex128)
            for s in self.singularities:
                if np.any(np.abs(zs - s) <= _SINGULARITY_CLEARANCE):
                    raise NearSingularity(
                        f"evaluation within {_SINGULARITY_CLEARANCE} of declared singularity {s}")
        return self.expr.evaluate(z)

    def to_text(self) -> str:
        return self.expr.to_text()


def parse_function(text: str, singularities=()) -> AnalyticFunction:
    """Parse expression text; errors carry the offset and the expected tokens."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, _BASE_STARTS)
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    if parser.cur.kind != "EOF":
        raise ParseError(f"trailing input {parser.cur.text!r}", parser.cur.pos,
                         {"operator", "end of input"})
    return AnalyticFunction(expr, tuple(singularities))
