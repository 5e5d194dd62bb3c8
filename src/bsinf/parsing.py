"""Expression parser for curve input.

Grammar (authoritative):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := 'x' | 'y' | rational | '(' expr ')' | '-' base
    rational := int ('/' uint)?

Exponents are nonnegative integer literals and implicit multiplication is not
allowed ("2x" is a syntax error).  The result is returned fully expanded.

Hostile input is refused before it is expanded: parentheses and unary minus
signs may nest at most MAX_NESTING deep, no power, product or exponent may
exceed MAX_DEGREE, no power b^n is expanded when the largest coefficient of b,
in bits, times n exceeds MAX_COEFF_BITS, and no power or product is expanded
when a bound on its number of terms exceeds MAX_TERMS.  The term bound of b^n
is min(C(t + n - 1, n), C(n*deg b + 2, 2)) for b with t terms (monomials of
the multinomial expansion, monomials of degree at most n*deg b), and that of
a*b is min(#a * #b, C(deg a + deg b + 2, 2)).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegreeZeroError, ParseError, ZeroPolynomialError
from .poly import BivarPoly

MAX_NESTING = 100  # '(' and unary '-' levels; far below the recursion limit
MAX_DEGREE = 512  # largest total degree or exponent; the test corpus reaches 24
# bit-length estimate for the coefficients of a power; the corpus reaches 69
MAX_COEFF_BITS = 1 << 16
# term-count bound of a power or product; the corpus reaches 246 terms and
# (x + y + 1)^64 has 2145
MAX_TERMS = 1 << 12


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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


def _coeff_bits(p: BivarPoly) -> int:
    """Bit length of the largest numerator or denominator among p's coefficients."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in p.items()), default=0)


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

    def expr(self) -> BivarPoly:
        acc = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            acc = acc + rhs if op.kind == "+" else acc - rhs
        return acc

    def term(self) -> BivarPoly:
        acc = self.factor()
        while self.peek().kind == "*":
            op = self.advance()
            rhs = self.factor()
            degree = acc.degree + rhs.degree
            if degree > MAX_DEGREE:
                raise ParseError(f"product of degree above {MAX_DEGREE}", op.pos)
            if min(len(acc.terms) * len(rhs.terms),
                   math.comb(degree + 2, 2)) > MAX_TERMS:
                raise ParseError(f"product of more than {MAX_TERMS} terms", op.pos)
            acc = acc * rhs
        return acc

    def factor(self) -> BivarPoly:
        b = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "number":
                raise ParseError("expected a nonnegative integer exponent", tok.pos)
            self.advance()
            # the length test comes first: int() of a huge literal is slow
            if (len(tok.text.lstrip("0")) > len(str(MAX_DEGREE))
                    or max(b.degree, 1) * int(tok.text) > MAX_DEGREE):
                raise ParseError(f"exponent or power of degree above {MAX_DEGREE}",
                                 tok.pos)
            n = int(tok.text)
            if _coeff_bits(b) * n > MAX_COEFF_BITS:
                raise ParseError(f"power with coefficients above {MAX_COEFF_BITS} bits",
                                 tok.pos)
            t = max(len(b.terms), 1)
            if min(math.comb(t + n - 1, n),
                   math.comb(n * max(b.degree, 0) + 2, 2)) > MAX_TERMS:
                raise ParseError(f"power of more than {MAX_TERMS} terms", tok.pos)
            b = b ** n
        return b

    def base(self) -> BivarPoly:
        tok = self.peek()
        if tok.kind == "var":
            self.advance()
            return BivarPoly.x() if tok.text == "x" else BivarPoly.y()
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
                return BivarPoly.constant(Fraction(num, den))
            return BivarPoly.constant(num)
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
            return -inner
        raise ParseError("expected 'x', 'y', a rational, '(' or '-'", tok.pos)


def parse_poly(text: str) -> BivarPoly:
    """Parse an expression over x, y into a fully expanded polynomial.

    Raises ParseError (position-annotated) on malformed input, ZeroPolynomialError
    if the expression expands to 0 and DegreeZeroError for a nonzero constant.
    """
    parser = _Parser(_tokenize(text))
    result = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError("expected end of input", trailing.pos)
    if result.is_zero():
        raise ZeroPolynomialError("expression expands to the zero polynomial")
    if result.is_constant():
        raise DegreeZeroError("expression expands to a nonzero constant")
    return result
