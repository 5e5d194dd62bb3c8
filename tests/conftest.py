"""Shared corpora and independent helper oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from bsinf.errors import DegreeZeroError, ParseError, ZeroPolynomialError
from bsinf.parsing import MAX_COEFF_BITS, MAX_DEGREE, MAX_NESTING, MAX_TERMS
from bsinf.poly import BivarPoly, _list_add, _list_mul, _trim


def even_sum_tuples(max_entry: int, max_len: int) -> list[tuple[int, ...]]:
    """All nondecreasing tuples over {1..max_entry} of length <= max_len with
    even entry sum."""
    out = []
    for n in range(1, max_len + 1):
        for t in itertools.combinations_with_replacement(range(1, max_entry + 1), n):
            if sum(t) % 2 == 0:
                out.append(t)
    return out


def compose(f: BivarPoly, px: BivarPoly, py: BivarPoly) -> BivarPoly:
    """f with x -> px and y -> py substituted."""
    xp = [BivarPoly.constant(1)]
    for _ in range(max(f.deg_in("x"), 0)):
        xp.append(xp[-1] * px)
    yp = [BivarPoly.constant(1)]
    for _ in range(max(f.deg_in("y"), 0)):
        yp.append(yp[-1] * py)
    acc = BivarPoly()
    for (i, j), c in f.items():
        acc = acc + (xp[i] * yp[j]).scale(c)
    return acc


def affine_image(f: BivarPoly, m: tuple[tuple[int, int], tuple[int, int]],
                 t: tuple[int, int]) -> BivarPoly:
    """f composed with the affine map (x, y) -> M(x, y) + t."""
    (a, b), (c, d) = m
    px = BivarPoly({(1, 0): a, (0, 1): b, (0, 0): t[0]})
    py = BivarPoly({(1, 0): c, (0, 1): d, (0, 0): t[1]})
    return compose(f, px, py)


def random_unimodular(rng: random.Random, steps: int = 4) -> tuple[tuple[int, int], tuple[int, int]]:
    """A random integer matrix of determinant +-1 (products of shears, swaps
    and sign flips)."""
    m = [[1, 0], [0, 1]]
    for _ in range(steps):
        kind = rng.randrange(4)
        k = rng.randint(-3, 3)
        if kind == 0:
            m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
        elif kind == 1:
            m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
        elif kind == 2:
            m = [m[1], m[0]]
        else:
            m = [[-m[0][0], -m[0][1]], m[1]]
    return (tuple(m[0]), tuple(m[1]))


def evaluate(p: list, t) -> Fraction:
    """The coefficient list p at a rational t, by Horner's rule in Fractions."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def divide(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b over Q, in Fractions."""
    rem = [Fraction(c) for c in a]
    n = len(b) - 1
    q = [Fraction(0)] * max(0, len(rem) - n)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = rem[k + n] / b[-1]
        for i, cb in enumerate(b):
            rem[k + i] -= c * cb
    return q, _trim(rem[:n])


def squarefree(p: list) -> list[Fraction]:
    """The squarefree part of p, from sympy's `sqf_part`."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)]
    sf = sympy.Poly(coeffs, sympy.Symbol("t")).sqf_part()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(sf.all_coeffs())]


def brute_distinct_real_roots(p: list) -> int:
    """Independent root counter: fine grid sign scan of the squarefree part
    over [-B, B] with B a root bound."""
    sf = squarefree(p)
    if len(sf) <= 1:
        return 0
    lc = abs(sf[-1])
    bound = float(1 + max(abs(c) for c in sf) / lc) + 1.0
    xs = np.linspace(-bound, bound, 2 ** 20 + 1)
    coeffs = [float(c) for c in sf]
    vals = np.zeros_like(xs)
    for c in reversed(coeffs):
        vals = vals * xs + c
    is_zero = vals == 0.0
    zero_runs = int(is_zero[0]) + int(np.count_nonzero(is_zero[1:] & ~is_zero[:-1]))
    # products are < 0 only when both neighbors are nonzero with opposite sign,
    # so grid-point roots are not double counted
    flips = int(np.count_nonzero(vals[:-1] * vals[1:] < 0.0))
    return zero_runs + flips


def sylvester_resultant(f: BivarPoly, g: BivarPoly, var: str) -> list:
    """Reference resultant: the Sylvester determinant expanded by fraction-free
    Gaussian elimination over polynomials in the other variable."""
    fr = f.coeffs_in(var)
    gr = g.coeffs_in(var)
    m, n = len(fr) - 1, len(gr) - 1
    size = m + n
    if not size:
        return [1]  # the determinant of the empty matrix
    mat = [[[] for _ in range(size)] for _ in range(size)]
    for row in range(n):
        for k, c in enumerate(reversed(fr)):
            mat[row][row + k] = c
    for row in range(m):
        for k, c in enumerate(reversed(gr)):
            mat[n + row][row + k] = c
    # Bareiss elimination; exact division at each step
    prev = [1]
    sign = 1
    for col in range(size - 1):
        pivot_row = next((r for r in range(col, size) if mat[r][col]), None)
        if pivot_row is None:
            return []
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            sign = -sign
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                num = _list_add(_list_mul(mat[r][c], mat[col][col]),
                                _list_mul(mat[r][col], mat[col][c]), -1)
                q, rem = divide(num, prev)
                assert not rem
                mat[r][c] = q
            mat[r][col] = []
        prev = mat[col][col]
    det = mat[size - 1][size - 1]
    return det if sign == 1 else [-c for c in det]


def factor_list_terms(f: BivarPoly) -> list:
    """The distinct irreducible factors of f over Q from sympy's
    `factor_list`, the reference, each primitive with a positive graded-lex
    lead, as sorted lists of its terms."""
    x, y = sympy.symbols("x y")
    rep = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.items()}
    _, factors = sympy.Poly.from_dict(rep, x, y, domain="QQ").factor_list()
    return sorted(sorted(BivarPoly({e: Fraction(int(c.p), int(c.q))
                                    for e, c in p.as_dict().items()})
                         .normalized_primitive().terms.items())
                  for p, _ in factors)


def germ_curve(germ: BivarPoly) -> BivarPoly:
    """The affine curve y^e * g(x/y, 1/y), e = deg g, whose germ at the point
    at infinity [0 : 1] is g(w, z), with z > 0 on the side of (0, 1)."""
    e = germ.degree
    return BivarPoly({(i, e - i - j): c for (i, j), c in germ.items()})


# ---------------------------------------------------------------------------
# reference parser: a BivarPoly for every number, variable and power, and a
# new polynomial at every '+', '-' and '*', with the bounds of
# bsinf.parsing checked at the same places (sums are not bounded here)
# ---------------------------------------------------------------------------

def _reference_tokens(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
        elif ch in "xy":
            tokens.append(("var", ch, i))
            i += 1
        elif ch in "+-*^/()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _reference_coeff_bits(p: BivarPoly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in p.items()), default=0)


class _ReferenceParser:
    def __init__(self, text: str):
        self.tokens = _reference_tokens(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        self.i += 1
        return self.tokens[self.i - 1]

    def nest(self, pos: int) -> None:
        self.advance()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)

    def expr(self) -> BivarPoly:
        acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc + (-rhs)
        return acc

    def term(self) -> BivarPoly:
        acc = self.factor()
        while self.peek()[0] == "*":
            pos = self.advance()[2]
            rhs = self.factor()
            degree = acc.degree + rhs.degree
            if degree > MAX_DEGREE:
                raise ParseError(f"product of degree above {MAX_DEGREE}", pos)
            if min(len(acc.terms) * len(rhs.terms),
                   math.comb(degree + 2, 2)) > MAX_TERMS:
                raise ParseError(f"product of more than {MAX_TERMS} terms", pos)
            acc = acc * rhs
        return acc

    def factor(self) -> BivarPoly:
        b = self.base()
        if self.peek()[0] == "^":
            self.advance()
            kind, text, pos = self.peek()
            if kind != "number":
                raise ParseError("expected a nonnegative integer exponent", pos)
            self.advance()
            if (len(text.lstrip("0")) > len(str(MAX_DEGREE))
                    or max(b.degree, 1) * int(text) > MAX_DEGREE):
                raise ParseError(f"exponent or power of degree above {MAX_DEGREE}", pos)
            n = int(text)
            if _reference_coeff_bits(b) * n > MAX_COEFF_BITS:
                raise ParseError(f"power with coefficients above {MAX_COEFF_BITS} bits", pos)
            t = max(len(b.terms), 1)
            if min(math.comb(t + n - 1, n),
                   math.comb(n * max(b.degree, 0) + 2, 2)) > MAX_TERMS:
                raise ParseError(f"power of more than {MAX_TERMS} terms", pos)
            b = b ** n
        return b

    def base(self) -> BivarPoly:
        kind, text, pos = self.peek()
        if kind == "var":
            self.advance()
            return BivarPoly.x() if text == "x" else BivarPoly.y()
        if kind == "number":
            self.advance()
            num = int(text)
            if self.peek()[0] == "/":
                self.advance()
                den_kind, den_text, den_pos = self.peek()
                if den_kind != "number":
                    raise ParseError("expected an integer denominator", den_pos)
                self.advance()
                if int(den_text) == 0:
                    raise ParseError("zero denominator", den_pos)
                return BivarPoly.constant(Fraction(num, int(den_text)))
            return BivarPoly.constant(num)
        if kind == "(":
            self.nest(pos)
            inner = self.expr()
            closing = self.peek()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            self.advance()
            self.depth -= 1
            return inner
        if kind == "-":
            self.nest(pos)
            inner = self.factor()
            self.depth -= 1
            return -inner
        raise ParseError("expected 'x', 'y', a rational, '(' or '-'", pos)


def reference_parse_poly(text: str) -> BivarPoly:
    """`bsinf.parsing.parse_poly` as it was written before monomials were
    carried as triples: the reference for its results and its errors."""
    parser = _ReferenceParser(text)
    result = parser.expr()
    trailing = parser.peek()
    if trailing[0] != "end":
        raise ParseError("expected end of input", trailing[2])
    if result.is_zero():
        raise ZeroPolynomialError("expression expands to the zero polynomial")
    if result.is_constant():
        raise DegreeZeroError("expression expands to a nonzero constant")
    return result


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)


@pytest.fixture(scope="session")
def classic_curves() -> dict[str, str]:
    return {
        "cusp": "y^2 - x^3",
        "quintic_cusp": "y^2 - x^5",
        "parabola": "(y-x)^2 - (y+x)",
        "line_parabola": "((y-x) - 1)*((y-x)^2 - (y+x))",
        "node_at_infinity": "x^2 - y^2 - y^3",
        "circle": "x^2 + y^2 - 1",
    }
