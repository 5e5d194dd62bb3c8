"""Exact polynomial arithmetic: sparse bivariate and dense univariate polynomials
over the rationals, canonical printing, the irreducible factor split,
squarefree parts and resultants.

A coefficient is stored as an `int` when it is integral and as a
`fractions.Fraction` otherwise, so integer polynomials, the common case, run
on integer arithmetic alone.  `3 == Fraction(3)` and
`hash(3) == hash(Fraction(3))`, so equality, hashing and caching do not see
the difference.  Every division is exact; no floating point enters this
module.  Printing and sign normalization use graded-lexicographic order
(total degree, then exponent of the first variable).  What is neither a
product nor a line or a nondegenerate conic is factored by the package's
own Hensel lifting in `bsinf.factor`, which builds on the list primitives
below.

A univariate polynomial is a plain coefficient list (see the list section
below), and each primitive on them has one implementation: one sum (with a
sign), one product, one derivative, one exact quotient, one
sign-preserving pseudo-remainder in Z[t] and one primitive remainder
sequence built on it.  The resultant, the Sturm chains of
`bsinf.roots`, the charts of `bsinf.germs` and the factoring of
`bsinf.factor` all run on them; the Sturm chains and the gcds of the factor
split are both the remainder sequence.

`Record`, at the end, is the base of every immutable value the package
exports: every module that defines one imports this module anyway.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DegreeZeroError, ZeroPolynomialError


def _rational(c) -> int | Fraction:
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected rational coefficient, got {type(c).__name__}")


def _primitive_ints(coeffs: Iterable[int | Fraction]) -> list[int]:
    """The coefficients, not all zero, times the positive rational that makes
    them coprime integers."""
    coeffs = list(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


# ---------------------------------------------------------------------------
# univariate polynomials (dense)
# ---------------------------------------------------------------------------
#
# A univariate polynomial is a coefficient list: entry k is the coefficient
# of t^k, lowest power first, with no trailing zeros, so [] is zero and the
# degree is len - 1.  An entry is an int when it is integral and a Fraction
# otherwise, as for every coefficient in this module.

def _trim(a: list) -> list:
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _list_add(a: Sequence, b: Sequence, sign: int = 1) -> list:
    """a + sign*b, with no trailing zeros."""
    out = list(a) + [0] * (len(b) - len(a))
    for k, c in enumerate(b):
        out[k] += sign * c
    return _trim(out)


def _list_mul(a: Sequence, b: Sequence) -> list:
    """a * b, with no trailing zeros: its lead is the product of the leads."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _list_derivative(a: Sequence) -> list:
    """The derivative of a."""
    return [k * c for k, c in enumerate(a)][1:]


def _int_exact_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for b dividing a in Z[t]: each quotient coefficient is an
    integer, so each step of long division divides exactly."""
    n = len(b) - 1
    if len(a) <= n:
        return []
    rem = list(a)
    q = [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + n] // b[-1]
        if c:
            q[k] = c
            for i, cb in enumerate(b):
                rem[k + i] -= c * cb
    return q


def _int_pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """|lc b|^k * (a mod b) for some k >= 0, for a and b in Z[t]: long
    division of a by b in which each step first scales the remainder by
    |lc b|, so that the step's quotient coefficient is an integer and no
    division occurs.  The scaling is positive, so the result is a positive
    multiple of the rational remainder."""
    rem, n = list(a), len(b) - 1
    lead = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    while len(rem) > n:
        k = len(rem) - 1 - n
        top = sign * rem.pop()  # the new top, |lc b| * top - sign * top * lc b, is 0
        rem = [lead * c for c in rem]
        for i, c in enumerate(b[:-1]):
            rem[k + i] -= top * c
        _trim(rem)
    return rem


def _remainder_sequence(a: Sequence, b: Sequence) -> list[list[int]]:
    """The primitive negated remainder sequence of a and b, a nonzero: a and
    b made primitive, then each negated pseudo-remainder of the last two made
    primitive, up to the last nonzero one, which is gcd(a, b) up to a nonzero
    factor.  Each element is the rational one divided by a positive rational,
    so the signs of a Sturm chain are kept (Basu, Pollack and Roy,
    Algorithms in Real Algebraic Geometry, ch. 8)."""
    seq, r = [_primitive_ints(a)], b
    while r:
        seq.append(_primitive_ints(r))
        r = [-c for c in _int_pseudo_remainder(seq[-2], seq[-1])]
    return seq


# ---------------------------------------------------------------------------
# bivariate polynomials (sparse)
# ---------------------------------------------------------------------------

def _add_into(acc: dict, terms: Mapping, negate: bool = False) -> dict:
    """acc + terms (acc - terms if negate), in place, dropping the sums that
    vanish.  The coefficients of terms are nonzero."""
    get = acc.get
    for e, c in terms.items():
        s = get(e, 0) - c if negate else get(e, 0) + c
        if s:
            acc[e] = s
        else:
            del acc[e]
    return acc


def _canonical_terms(terms: Mapping) -> dict:
    """terms without its zero coefficients and with each integral Fraction
    as an int: a sum or product of non-integral Fractions can be integral."""
    return {e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in terms.items() if c}


def _gradlex_key(exp: tuple[int, int]) -> tuple[int, int]:
    # graded-lex with y as the distinguished variable: "y^2 - x^3", "y - x"
    i, j = exp
    return (-(i + j), -j)


class BivarPoly:
    """Sparse bivariate polynomial: a map (i, j) -> nonzero rational coefficient
    of x^i * y^j, an int when it is integral and a Fraction otherwise.
    Instances are immutable; all operations return new values.

    A product also remembers its pieces: `a * b` keeps the distinct
    non-constant pieces of both operands, where a polynomial without pieces
    counts as one piece and constants are dropped.  So the product equals its
    pieces' product (with multiplicities) up to a nonzero constant.  Negation
    keeps the pieces; `+`, `-` and `scale` drop them.  Pieces never enter
    equality or hashing; `irreducible_factors` uses them to factor a product
    one piece at a time.
    """

    __slots__ = ("_terms", "_hash", "_pieces")

    def __init__(self, terms: Mapping[tuple[int, int], int | Fraction] = ()):
        clean: dict[tuple[int, int], int | Fraction] = {}
        for (i, j), c in dict(terms).items():
            c = _rational(c)
            if c != 0:
                if i < 0 or j < 0:
                    raise ValueError("negative exponent")
                clean[(int(i), int(j))] = c
        self._terms = clean
        self._hash: int | None = None
        self._pieces: tuple[BivarPoly, ...] = ()

    @classmethod
    def _canonical(cls, terms: dict[tuple[int, int], int | Fraction],
                   pieces: tuple[BivarPoly, ...] = ()) -> BivarPoly:
        """A polynomial that takes over `terms`, which must already be
        canonical: nonzero coefficients, an int where integral, on pairs of
        nonnegative ints.  Nothing is checked or copied."""
        out = object.__new__(cls)
        out._terms = terms
        out._hash = None
        out._pieces = pieces
        return out

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls) -> BivarPoly:
        return cls()

    @classmethod
    def constant(cls, c) -> BivarPoly:
        return cls({(0, 0): c})

    @classmethod
    def x(cls) -> BivarPoly:
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> BivarPoly:
        return cls({(0, 1): 1})

    # -- structure -------------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], int | Fraction]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[tuple[int, int], int | Fraction]]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return self._terms.keys() <= {(0, 0)}

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + j for (i, j) in self._terms)

    def deg_in(self, var: str) -> int:
        if not self._terms:
            return -1
        k = 0 if var == "x" else 1
        return max(e[k] for e in self._terms)

    def leading_coefficient(self) -> int | Fraction:
        """Coefficient of the graded-lex leading term."""
        if not self._terms:
            raise ValueError("zero polynomial")
        exp = min(self._terms, key=_gradlex_key)
        return self._terms[exp]

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    # -- arithmetic ------------------------------------------------------------

    def __neg__(self) -> BivarPoly:
        return BivarPoly._canonical({e: -c for e, c in self._terms.items()}, self._pieces)

    def __add__(self, other: BivarPoly) -> BivarPoly:
        return BivarPoly._canonical(_canonical_terms(_add_into(dict(self._terms), other._terms)))

    def __sub__(self, other: BivarPoly) -> BivarPoly:
        return BivarPoly._canonical(
            _canonical_terms(_add_into(dict(self._terms), other._terms, negate=True)))

    def __mul__(self, other: BivarPoly) -> BivarPoly:
        if not self._terms or not other._terms:
            return BivarPoly()
        out: dict[tuple[int, int], int | Fraction] = {}
        get = out.get
        for (i, j), c in self._terms.items():
            for (k, l), d in other._terms.items():
                e = (i + k, j + l)
                out[e] = get(e, 0) + c * d
        pieces = [p for f in (self, other) if not f.is_constant()
                  for p in (f._pieces or (f,))]
        return BivarPoly._canonical(_canonical_terms(out), tuple(dict.fromkeys(pieces)))

    def scale(self, c) -> BivarPoly:
        c = _rational(c)
        if c == 0:
            return BivarPoly()
        return BivarPoly({e: c * a for e, a in self._terms.items()})

    def __pow__(self, n: int) -> BivarPoly:
        """self^n by square-and-multiply."""
        if n < 0:
            raise ValueError("negative power")
        result, base = BivarPoly.constant(1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square after the last bit
                base = base * base
        return result

    def partial(self, var: str) -> BivarPoly:
        k = 0 if var == "x" else 1
        out: dict[tuple[int, int], int | Fraction] = {}
        for (i, j), c in self._terms.items():
            e = (i, j)[k]
            if e:
                ne = (i - 1, j) if k == 0 else (i, j - 1)
                out[ne] = out.get(ne, 0) + e * c
        return BivarPoly(out)

    def evaluate(self, px, py) -> int | Fraction:
        px, py = _rational(px), _rational(py)
        total = 0
        for (i, j), c in self._terms.items():
            total += c * px**i * py**j
        return total

    def homogeneous_part(self, d: int) -> BivarPoly:
        return BivarPoly({e: c for e, c in self._terms.items() if e[0] + e[1] == d})

    def coeffs_in(self, var: str) -> list[list[int | Fraction]]:
        """Coefficients as coefficient lists in the other variable, index =
        power of var."""
        k = 0 if var == "x" else 1
        n = self.deg_in(var)
        rows: list[dict[int, int | Fraction]] = [{} for _ in range(n + 1)]
        for (i, j), c in self._terms.items():
            e = (i, j)[k]
            o = (i, j)[1 - k]
            rows[e][o] = c
        return [[row.get(t, 0) for t in range(max(row, default=-1) + 1)] for row in rows]

    def subs_value(self, var: str, value) -> list[int | Fraction]:
        """Evaluate one variable at a rational, leaving a univariate polynomial."""
        value = _rational(value)
        out: dict[int, int | Fraction] = {}
        k = 0 if var == "x" else 1
        for (i, j), c in self._terms.items():
            e = (i, j)[k]
            o = (i, j)[1 - k]
            s = out.get(o, 0) + c * value**e
            if s:
                out[o] = s
            else:
                out.pop(o, None)
        return [_rational(out.get(t, 0)) for t in range(max(out, default=-1) + 1)]

    def normalized_primitive(self) -> BivarPoly:
        """Scale so coefficients are coprime integers with positive graded-lex lead."""
        if not self._terms:
            return self
        scaled = BivarPoly(dict(zip(self._terms, _primitive_ints(self._terms.values()))))
        if scaled.leading_coefficient() < 0:
            scaled = -scaled
        return scaled

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"BivarPoly({dict(sorted(self._terms.items(), key=lambda kv: _gradlex_key(kv[0])))})"


# ---------------------------------------------------------------------------
# canonical printing
# ---------------------------------------------------------------------------

def _format_monomial(c: int | Fraction, vars_exps: tuple[tuple[str, int], ...], leading: bool) -> str:
    pieces = []
    for name, e in vars_exps:
        if e == 1:
            pieces.append(name)
        elif e > 1:
            pieces.append(f"{name}^{e}")
    mag = abs(c)
    if not pieces or mag != 1:
        pieces.insert(0, str(mag))
    body = "*".join(pieces)
    if leading:
        return f"-{body}" if c < 0 else body
    return f"- {body}" if c < 0 else f"+ {body}"


def format_poly(f: BivarPoly, names: tuple[str, str] = ("x", "y")) -> str:
    """Canonical text: terms in descending graded-lex order, explicit '*' and '^'."""
    if f.is_zero():
        return "0"
    parts = []
    for (i, j) in sorted(f._terms, key=_gradlex_key):
        c = f._terms[(i, j)]
        parts.append(_format_monomial(c, ((names[0], i), (names[1], j)), leading=not parts))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# squarefree part and irreducible factor split
# ---------------------------------------------------------------------------

def squarefree_part(f: BivarPoly) -> BivarPoly:
    """The product of the distinct irreducible factors of f, canonically scaled.

    Same real zero set as f; coefficients are coprime integers and the
    graded-lex leading coefficient is positive.

    It is answered as the product of the irreducible factors of f, which are
    primitive with positive leads.  By Gauss's lemma their product is
    primitive, and the graded-lex leading coefficient of a product is the
    product of the leading coefficients, so this is term for term the
    canonical scaling of the squarefree part.
    """
    if f.is_zero():
        raise ZeroPolynomialError("squarefree part of the zero polynomial")
    if f.is_constant():
        raise DegreeZeroError("squarefree part of a constant")
    return math.prod(irreducible_factors(f), start=BivarPoly.constant(1))


def _is_line_or_nondegenerate_conic(f: BivarPoly) -> bool:
    """Whether f is irreducible by its shape alone: a line, or a conic whose
    symmetric 3x3 matrix has a nonzero determinant (irreducible even over C)."""
    if f.degree != 2:
        return f.degree == 1
    t = f._terms
    a, b, c = t.get((2, 0), 0), t.get((1, 1), 0), t.get((0, 2), 0)
    d, e, g = t.get((1, 0), 0), t.get((0, 1), 0), t.get((0, 0), 0)
    # 4 * det [[a, b/2, d/2], [b/2, c, e/2], [d/2, e/2, g]]
    return 4 * a * c * g + b * d * e - a * e * e - c * d * d - g * b * b != 0


@functools.lru_cache(maxsize=1024)
def irreducible_factors(f: BivarPoly) -> tuple[BivarPoly, ...]:
    """Distinct irreducible factors of f over Q (multiplicities dropped),
    each primitive with positive graded-lex lead, in a deterministic order.

    A product (f carries pieces, see BivarPoly) is factored one piece at a
    time: factorization in Q[x, y] is unique, so the union of the pieces'
    irreducible factors is the factor set of their product.  A line, or a
    conic with a nonzero determinant, is its own factor; anything else is
    factored by Hensel lifting (`factor.bivariate_factors`).  Results are
    cached on the terms of f, so a curve counted and then reduced for the
    oracle is factored once.
    """
    if f._pieces:
        out = {g for piece in f._pieces for g in irreducible_factors(piece)}
    elif _is_line_or_nondegenerate_conic(f):
        out = {f.normalized_primitive()}
    else:
        from .factor import bivariate_factors  # factor builds on this module
        out = bivariate_factors(f)
    return tuple(sorted(out, key=lambda g: sorted(g.terms.items())))


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def _integer_coeffs(f: BivarPoly, var: str) -> tuple[list[list[int]], int]:
    """The coefficients of d*f in var, lowest power first, as integer
    polynomials in the other variable, and the common denominator d."""
    rows = f.coeffs_in(var)
    d = math.lcm(*(c.denominator for r in rows for c in r))
    return [[c.numerator * (d // c.denominator) for c in r] for r in rows], d


def _list_pow(a: Sequence[int], k: int) -> list[int]:
    """a^k, and 1 for k <= 0."""
    return functools.reduce(_list_mul, [a] * k, [1])


def resultant(f: BivarPoly, g: BivarPoly, var: str) -> list[int | Fraction]:
    """The resultant of f and g eliminating `var`, as a polynomial in the
    other variable t: the determinant of their Sylvester matrix, so c^m for
    an input c free of var and the other of degree m.  It is the last term
    of the subresultant sequence in Z[t][var] after clearing denominators
    (Collins, J. ACM 14, 1967; Brown and Traub, J. ACM 18, 1971; Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 3.3.7, without
    content removal).  Raises ZeroPolynomialError for a zero input."""
    if var not in ("x", "y"):
        raise ValueError("var must be 'x' or 'y'")
    if not f or not g:
        raise ZeroPolynomialError("resultant of the zero polynomial")
    (a, da), (b, db) = _integer_coeffs(f, var), _integer_coeffs(g, var)
    # res(da*f, db*g) = da^deg g * db^deg f * res(f, g)
    scale = da ** (len(b) - 1) * db ** (len(a) - 1)
    sign, lc, h = 1, [1], [1]
    if len(a) < len(b):  # res(g, f) = (-1)^(deg f * deg g) * res(f, g)
        a, b, sign = b, a, (-1) ** ((len(a) - 1) * (len(b) - 1))
    while len(b) > 1:
        # (a, b) <- (b, lc(b)^(δ+1) * (a mod b) / (lc * h^δ)), δ = deg a - deg b,
        # and the sign flips when deg a and deg b are both odd
        delta, r = len(a) - len(b), list(a)
        sign *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        for k in range(delta, -1, -1):  # scale by lc(b), then cancel the top
            top = r.pop()
            r = [_list_mul(b[-1], c) for c in r]
            for i, c in enumerate(b[:-1]):
                r[k + i] = _list_add(r[k + i], _list_mul(top, c), -1)
        if not _trim(r):
            return []
        divisor = _list_mul(lc, _list_pow(h, delta))
        a, b = b, [_int_exact_div(c, divisor) for c in r]
        # h <- h^(1 - δ) * lc^δ; δ = 0 only at the first step, where h = 1
        lc = a[-1]
        h = _int_exact_div(_list_pow(lc, delta), _list_pow(h, delta - 1))
    # b is free of var: res = h^(1 - deg a) * b^deg a, which is 1 if deg a = 0
    n = len(a) - 1
    res = [sign * c for c in _int_exact_div(_list_pow(b[0], n), _list_pow(h, n - 1))]
    return res if scale == 1 else [_rational(Fraction(c, scale)) for c in res]


# ---------------------------------------------------------------------------
# immutable records
# ---------------------------------------------------------------------------

class Record:
    """Base of the package's immutable value records.

    A record class derives from Record directly and lists its fields in
    `__slots__`, in constructor order.  Its `__init__` validates or
    normalizes them and hands them on, in that order, to `Record.__init__`,
    the one place that stores them.  Records of one class compare and hash
    as the tuple of their fields; a record never equals one of another
    class.  The repr names each field except those in `_unshown`.
    Assignment and deletion raise AttributeError, and pickling or copying
    calls the constructor again with the fields."""

    __slots__ = ()
    _unshown: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name not in self._unshown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
