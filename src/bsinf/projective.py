"""Projective closure data of a plane curve: leading form, real points at
infinity and the antipodal direction pair over each point.

Points and directions carry primitive integer representatives; a curve whose
leading form has an irrational real projective root is rejected.
"""

from __future__ import annotations

import math

from .errors import DegreeZeroError, IrrationalDirectionError, ZeroPolynomialError
from .poly import BivarPoly, Record
from .roots import _sign_at, isolate_real_roots, sign_variations, sturm_chain


def _normalize_pair(a: int, b: int) -> tuple[int, int]:
    if a == 0 and b == 0:
        raise ValueError("(0, 0) does not represent a projective point")
    g = math.gcd(abs(a), abs(b))
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return a, b


class ProjPointAtInfinity(Record):
    """A real projective point [α : β] on the line at infinity, with the unique
    primitive representative having α > 0, or α = 0 and β > 0."""

    __slots__ = ("rep",)

    def __init__(self, rep: tuple[int, int]):
        super().__init__(_normalize_pair(*rep))

    def __str__(self) -> str:
        return f"[{self.rep[0]} : {self.rep[1]}]"


class DirectionS1(Record):
    """A direction on the unit circle, stored as a primitive integer pair."""

    __slots__ = ("rep",)

    def __init__(self, rep: tuple[int, int]):
        a, b = rep
        if a == 0 and b == 0:
            raise ValueError("(0, 0) is not a direction")
        g = math.gcd(abs(a), abs(b))
        super().__init__((a // g, b // g))

    @property
    def unit(self) -> tuple[float, float]:
        """Float unit vector, for display and numeric comparisons only."""
        a, b = self.rep
        n = math.hypot(a, b)
        return (a / n, b / n)

    def antipode(self) -> DirectionS1:
        return DirectionS1((-self.rep[0], -self.rep[1]))

    def __str__(self) -> str:
        return f"({self.rep[0]}, {self.rep[1]})"


def leading_form(f: BivarPoly) -> BivarPoly:
    """The homogeneous part of top total degree."""
    if f.is_zero():
        raise ZeroPolynomialError("leading form of the zero polynomial")
    if f.is_constant():
        raise DegreeZeroError("leading form of a constant")
    return f.homogeneous_part(f.degree)


def points_at_infinity(f: BivarPoly) -> list[ProjPointAtInfinity]:
    """Real projective roots of the leading form, sorted lexicographically.

    Empty iff the leading form is definite.  Raises IrrationalDirectionError
    when a real root has no rational representative.
    """
    lf = leading_form(f)
    d = f.degree
    points = []
    # the root [0 : 1] corresponds to a missing y^d term
    restricted = lf.subs_value("x", 1)  # lf(1, t) with t the slope y/x
    if len(restricted) - 1 < d:
        points.append(ProjPointAtInfinity((0, 1)))
    if len(restricted) > 1:
        for iv in isolate_real_roots(restricted):
            if iv.exact_point is None:
                raise IrrationalDirectionError(
                    "the leading form has an irrational real projective root; "
                    "such directions have no primitive integer representative"
                )
            slope = iv.exact_point
            points.append(ProjPointAtInfinity((slope.denominator, slope.numerator)))
    return sorted(points, key=lambda p: p.rep)


def has_points_at_infinity(f: BivarPoly) -> bool:
    """Whether the leading form has a real projective root: [0 : 1], or a
    real root of lf(1, t).  There is one when the degree d is odd, or
    when lf(1, t) is 0 or has the sign opposite to its lead, the sign it
    has at +-oo for d even, at t = 0, 1 or -1; else a Sturm count decides."""
    restricted = leading_form(f).subs_value("x", 1)
    if len(restricted) - 1 < f.degree or f.degree % 2:
        return True
    if any(_sign_at(restricted, t) * restricted[-1] <= 0 for t in (0, 1, -1)):
        return True
    chain = sturm_chain(restricted)
    return sign_variations(chain, -math.inf) != sign_variations(chain, math.inf)


def direction_pair(c: ProjPointAtInfinity) -> tuple[DirectionS1, DirectionS1]:
    """The antipodal pair (+a, -a) over c; +a carries c's normalized rep."""
    plus = DirectionS1(c.rep)
    return plus, plus.antipode()
