"""Projective closure data of a plane curve: leading form, real points at
infinity, the antipodal direction pair over each point, and the localized germ
in an affine chart where the line at infinity becomes {z = 0}.

Points and directions carry primitive integer representatives; a curve whose
leading form has an irrational real projective root is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegreeZeroError,
    IrrationalDirectionError,
    PointNotOnCurveError,
    ZeroPolynomialError,
)
from .poly import BivarPoly, UnivarPoly, format_poly
from .roots import isolate_real_roots


def _normalize_pair(a: int, b: int) -> tuple[int, int]:
    if a == 0 and b == 0:
        raise ValueError("(0, 0) does not represent a projective point")
    g = math.gcd(abs(a), abs(b))
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return a, b


@dataclass(frozen=True)
class ProjPointAtInfinity:
    """A real projective point [α : β] on the line at infinity, with the unique
    primitive representative having α > 0, or α = 0 and β > 0."""

    rep: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "rep", _normalize_pair(*self.rep))

    def __str__(self) -> str:
        return f"[{self.rep[0]} : {self.rep[1]}]"


@dataclass(frozen=True)
class DirectionS1:
    """A direction on the unit circle, stored as a primitive integer pair."""

    rep: tuple[int, int]

    def __post_init__(self):
        a, b = self.rep
        if a == 0 and b == 0:
            raise ValueError("(0, 0) is not a direction")
        g = math.gcd(abs(a), abs(b))
        object.__setattr__(self, "rep", (a // g, b // g))

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


@dataclass(frozen=True)
class GermChart:
    """The germ of a curve at one of its points at infinity.

    germ(w, z) vanishes at the origin, is squarefree and not divisible by z;
    {z = 0} is the trace of the line at infinity.  Curve points of large norm
    with direction near plus_direction correspond to germ points with small
    norm and z > 0; the antipodal direction corresponds to z < 0.
    """

    germ: BivarPoly  # variables (w, z) stored as the (x, y) slots
    source_point: ProjPointAtInfinity
    chart_map: tuple[tuple[int, int, int], tuple[int, int, int]]
    plus_direction: DirectionS1

    def __str__(self) -> str:
        return format_poly(self.germ, names=("w", "z"))


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
    if restricted.degree < d:
        points.append(ProjPointAtInfinity((0, 1)))
    if restricted.degree >= 1:
        for iv in isolate_real_roots(restricted):
            if iv.exact_point is None:
                raise IrrationalDirectionError(
                    "the leading form has an irrational real projective root; "
                    "such directions have no primitive integer representative"
                )
            slope = iv.exact_point
            points.append(ProjPointAtInfinity((slope.denominator, slope.numerator)))
    return sorted(points, key=lambda p: p.rep)


def direction_pair(c: ProjPointAtInfinity) -> tuple[DirectionS1, DirectionS1]:
    """The antipodal pair (+a, -a) over c; +a carries c's normalized rep."""
    plus = DirectionS1(c.rep)
    return plus, plus.antipode()


def _minimal_bezout(alpha: int, beta: int) -> tuple[int, int]:
    """The pair (u, v) with u*alpha + v*beta = 1 minimizing (|v|, |u|),
    ties toward nonnegative entries."""
    if beta == 0:
        return (1, 0)  # alpha == 1 after normalization
    if alpha == 0:
        return (0, 1)  # beta == 1
    g, u0, v0 = _xgcd(alpha, beta)
    assert g == 1
    # family (u0 + k*beta, v0 - k*alpha)
    k0 = round(Fraction(v0, alpha))
    best = None
    for k in range(k0 - 2, k0 + 3):
        u, v = u0 + k * beta, v0 - k * alpha
        key = (abs(v), abs(u), v < 0, u < 0)
        if best is None or key < best[0]:
            best = (key, (u, v))
    return best[1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _chart_rows(c: ProjPointAtInfinity) -> tuple[tuple[int, int], tuple[int, int]]:
    alpha, beta = c.rep
    u, v = _minimal_bezout(alpha, beta)
    # second row annihilates (alpha, beta); sign fixed so its last entry is
    # positive, ties toward a positive first entry
    s, t = (-beta, alpha) if alpha > 0 else (beta, -alpha)
    return (u, v), (s, t)


def _compose_homogeneous(slice_terms: dict[int, Fraction], degree: int,
                         a_pows: list[UnivarPoly], b: UnivarPoly) -> UnivarPoly:
    """Evaluate a homogeneous part sum c_j * A^(degree-j) * B^j, Horner in B."""
    acc = UnivarPoly.constant(slice_terms.get(degree, Fraction(0)))
    for j in range(degree - 1, -1, -1):
        acc = acc * b
        cj = slice_terms.get(j)
        if cj:
            acc = acc + a_pows[degree - j].scale(cj)
    return acc


def _chart_image(p: BivarPoly, rows: tuple[tuple[int, int], tuple[int, int]]) -> BivarPoly:
    """Homogenize p to its total degree, change projective coordinates by the
    chart rows and dehomogenize in the chart {first coordinate = 1}.

    The result lives in germ variables (w, z) with z the trace of infinity.
    """
    (u, v), (s, t) = rows
    det = u * t - v * s  # +-1
    # inverse map at (X', Y', Z) = (1, w, z): X = det*(t - v*w), Y = det*(-s + u*w)
    a = UnivarPoly([Fraction(det * t), Fraction(-det * v)])
    b = UnivarPoly([Fraction(-det * s), Fraction(det * u)])
    d = p.degree
    a_pows = [UnivarPoly.constant(1)]
    for _ in range(d):
        a_pows.append(a_pows[-1] * a)
    # group terms by z-power k = d - i - j; each slice is homogeneous of degree d-k
    slices: dict[int, dict[int, Fraction]] = {}
    for (i, j), cf in p.items():
        k = d - i - j
        slices.setdefault(k, {})[j] = slices.get(k, {}).get(j, Fraction(0)) + cf
    out: dict[tuple[int, int], Fraction] = {}
    for k, sl in slices.items():
        w_poly = _compose_homogeneous(sl, d - k, a_pows, b)
        for e, cf in enumerate(w_poly.coeffs):
            if cf:
                out[(e, k)] = cf
    return BivarPoly(out)


def chart_germ(f: BivarPoly, c: ProjPointAtInfinity) -> GermChart:
    """Localized germ of f at the point at infinity c.

    Raises PointNotOnCurveError if c is not a root of the leading form.
    """
    lf = leading_form(f)
    if lf.evaluate(c.rep[0], c.rep[1]) != 0:
        raise PointNotOnCurveError(f"{c} is not a point at infinity of the curve")
    rows = _chart_rows(c)
    germ = _chart_image(f, rows)
    assert germ.evaluate(0, 0) == 0
    # never divisible by z: the z-free slice is the transformed leading form
    assert not germ.subs_value("y", 0).is_zero()
    (u, v), (s, t) = rows
    return GermChart(
        germ=germ,
        source_point=c,
        chart_map=((u, v, 0), (s, t, 0)),
        plus_direction=DirectionS1(c.rep),
    )
