"""Expression parser for curve input.

Grammar (authoritative):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := 'x' | 'y' | rational | '(' expr ')' | '-' base
    rational := int ('/' uint)?

Integer literals are ASCII digits `0-9`; any other character, including a
digit of another script such as '²' or '٣', is an unexpected character.
Exponents are nonnegative integer literals and implicit multiplication is not
allowed ("2x" is a syntax error).  The result is returned fully expanded.

The parser works in one pass, linear in the text outside of the products and
powers it expands.  A monomial c*x^i*y^j is carried as the triple (c, i, j)
through bases, powers, unary minus and products of monomials; a `BivarPoly`
is built only where a monomial meets a parenthesised sum, and a monomial
that enters such a product has the pieces x and/or y, as a product of its
variables would (see `BivarPoly`), so that `irreducible_factors` still
splits products piece by piece.  A sum adds every summand into one dict and
builds one polynomial at the end; a sum of one summand is that summand.

Hostile input is refused before it is expanded: a text longer than MAX_TEXT
characters is refused before it is tokenized, parentheses and unary minus
signs may nest at most MAX_NESTING deep, no power, product or exponent may
exceed MAX_DEGREE, no power b^n is expanded when the largest coefficient of b,
in bits, times n exceeds MAX_COEFF_BITS, and no power or product is expanded
when a bound on its number of terms exceeds MAX_TERMS.  The term bound of b^n
is min(C(t + n - 1, n), C(n*deg b + 2, 2)) for b with t terms (monomials of
the multinomial expansion, monomials of degree at most n*deg b), and that of
a*b is min(#a * #b, C(deg a + deg b + 2, 2)).  A sum is refused at the '+' or
'-' after which its running total has more than MAX_TERMS terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegreeZeroError, ParseError, ZeroPolynomialError
from .poly import BivarPoly, _add_into, _canonical_terms, _rational

MAX_NESTING = 100  # '(' and unary '-' levels; far below the recursion limit
MAX_DEGREE = 512  # largest total degree or exponent; the test corpus reaches 24
# bit-length estimate for the coefficients of a power; the corpus reaches 69
MAX_COEFF_BITS = 1 << 16
# term-count bound of a power, product or sum; the corpus reaches 246 terms
# and (x + y + 1)^64 has 2145
MAX_TERMS = 1 << 12
# characters of a text; the CLI's largest output, normal-form 1,89, has
# 176,471, and a sum of ones merges into one term however long it is
MAX_TEXT = 1 << 20

_DIGITS = "0123456789"
_EXPONENT_DIGITS = len(str(MAX_DEGREE))


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
        elif ch in "xy":
            tokens.append(_Token("var", ch, i))
            i += 1
        elif ch in "+-*^/()":
            tokens.append(_Token(ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# A parsed value is a monomial triple (c, i, j) for c*x^i*y^j, with c an int
# when integral and a Fraction otherwise and (0, 0, 0) for zero, or a
# BivarPoly.
_Value = tuple[int | Fraction, int, int] | BivarPoly

_ZERO = (0, 0, 0)
_X, _Y = BivarPoly.x(), BivarPoly.y()


def _degree(f: _Value) -> int:
    """Total degree; -1 for zero."""
    if type(f) is tuple:
        return f[1] + f[2] if f[0] else -1
    return f.degree


def _coeff_bits(f: _Value) -> int:
    """Bit length of the largest numerator or denominator among f's
    coefficients; 0 for zero."""
    coeffs = (f[0],) if type(f) is tuple else f._terms.values()
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in coeffs if c), default=0)


def _poly(f: _Value) -> BivarPoly:
    """f as a polynomial; a monomial gets the pieces x and/or y."""
    if type(f) is not tuple:
        return f
    c, i, j = f
    if not c:
        return BivarPoly()
    return BivarPoly._canonical({(i, j): c}, (_X,) * (i > 0) + (_Y,) * (j > 0))


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def nest(self, tok: _Token) -> None:
        """Consume an opening '(' or unary '-', one level deeper."""
        self.advance()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)

    def expr(self) -> _Value:
        first = self.term()
        if self.peek().kind not in ("+", "-"):
            return first
        acc = dict(_poly(first)._terms)
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            _add_into(acc, _poly(self.term())._terms, negate=op.kind == "-")
            if len(acc) > MAX_TERMS:
                raise ParseError(f"sum of more than {MAX_TERMS} terms", op.pos)
        return BivarPoly._canonical(_canonical_terms(acc))

    def term(self) -> _Value:
        acc = self.factor()
        while self.peek().kind == "*":
            op = self.advance()
            rhs = self.factor()
            degree = _degree(acc) + _degree(rhs)
            if degree > MAX_DEGREE:
                raise ParseError(f"product of degree above {MAX_DEGREE}", op.pos)
            if type(acc) is tuple and type(rhs) is tuple:
                c = acc[0] * rhs[0]
                acc = (_rational(c), acc[1] + rhs[1], acc[2] + rhs[2]) if c else _ZERO
                continue
            a, b = _poly(acc), _poly(rhs)
            if min(len(a._terms) * len(b._terms), math.comb(degree + 2, 2)) > MAX_TERMS:
                raise ParseError(f"product of more than {MAX_TERMS} terms", op.pos)
            acc = a * b
        return acc

    def factor(self) -> _Value:
        b = self.base()
        if self.peek().kind != "^":
            return b
        self.advance()
        tok = self.peek()
        if tok.kind != "number":
            raise ParseError("expected a nonnegative integer exponent", tok.pos)
        self.advance()
        # the length test comes first: int() of a huge literal is slow
        if (len(tok.text.lstrip("0")) > _EXPONENT_DIGITS
                or max(_degree(b), 1) * int(tok.text) > MAX_DEGREE):
            raise ParseError(f"exponent or power of degree above {MAX_DEGREE}", tok.pos)
        n = int(tok.text)
        if _coeff_bits(b) * n > MAX_COEFF_BITS:
            raise ParseError(f"power with coefficients above {MAX_COEFF_BITS} bits",
                             tok.pos)
        if type(b) is tuple:
            # a power of a monomial is one monomial, and a power of a
            # non-integral Fraction is non-integral
            if n == 0:
                return (1, 0, 0)
            return (b[0] ** n, b[1] * n, b[2] * n) if b[0] else _ZERO
        t = max(len(b._terms), 1)
        if min(math.comb(t + n - 1, n), math.comb(n * max(b.degree, 0) + 2, 2)) > MAX_TERMS:
            raise ParseError(f"power of more than {MAX_TERMS} terms", tok.pos)
        return b ** n

    def base(self) -> _Value:
        tok = self.peek()
        if tok.kind == "var":
            self.advance()
            return (1, 1, 0) if tok.text == "x" else (1, 0, 1)
        if tok.kind == "number":
            self.advance()
            num = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "number":
                    raise ParseError("expected an integer denominator", den_tok.pos)
                self.advance()
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.pos)
                return (_rational(Fraction(num, den)), 0, 0)
            return (num, 0, 0)
        if tok.kind == "(":
            self.nest(tok)
            inner = self.expr()
            closing = self.peek()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.pos)
            self.advance()
            self.depth -= 1
            return inner
        if tok.kind == "-":
            # negation wraps the whole factor: "-x^2" is -(x^2), which the
            # print/parse round trip requires
            self.nest(tok)
            inner = self.factor()
            self.depth -= 1
            return (-inner[0], inner[1], inner[2]) if type(inner) is tuple else -inner
        raise ParseError("expected 'x', 'y', a rational, '(' or '-'", tok.pos)


def parse_poly(text: str) -> BivarPoly:
    """Parse an expression over x, y into a fully expanded polynomial.

    Raises ParseError (position-annotated) on malformed input or a text of
    more than MAX_TEXT characters, ZeroPolynomialError if the expression
    expands to 0 and DegreeZeroError for a nonzero constant.
    """
    if len(text) > MAX_TEXT:
        raise ParseError(f"text longer than {MAX_TEXT} characters", MAX_TEXT)
    parser = _Parser(_tokenize(text))
    result = _poly(parser.expr())
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError("expected end of input", trailing.pos)
    if result.is_zero():
        raise ZeroPolynomialError("expression expands to the zero polynomial")
    if result.is_constant():
        raise DegreeZeroError("expression expands to a nonzero constant")
    return result
