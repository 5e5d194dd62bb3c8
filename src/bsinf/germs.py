"""Certified counting of the real half-branches of a plane curve at each of
its directions at infinity: from the Newton polygon of a chart at each point
at infinity, and on large circles about the origin where that polygon is
degenerate.

Per factor.  Distinct irreducible factors meet in finitely many points, so
the half-branches of the curve are those of its factors, and the counts add.
A branch of an irreducible factor u goes to infinity at one of u's own real
points at infinity, the real roots of its leading form, so u is counted at
those points alone.  A factor with none has a definite leading form, so its
real zero set is bounded and it has no branch at infinity.  That includes
every rotation-invariant factor U(x^2 + y^2), whose leading form is a power
of x^2 + y^2.

The chart at a point.  Let u have degree d, integer coefficients and leading
form u_d, and let p = [alpha : beta] be a point at infinity, given by its
integer representative.  The chart

    F(s, w) = s^d * u((alpha - w*beta)/s, (beta + w*alpha)/s)

has integer coefficients; F_ij is the coefficient of s^i*w^j.  The map
(s, w) -> ((alpha, beta) + w*(-beta, alpha))/s takes {s > 0} onto the open
half-plane of the points (x, y) with alpha*x + beta*y > 0, and {s < 0} onto
the opposite one, and w is the slope of (x, y) against (alpha, beta) there.
So an arc of {u = 0} that goes to infinity in the direction +(alpha, beta)
is a real half-branch of {F = 0} at the origin in {s > 0}, one in the
direction -(alpha, beta) is one in {s < 0}, and conversely.  The rule counts
those half-branches.  F(0, w) = u_d(alpha - w*beta, beta + w*alpha), so
m = ord_w F(0, w) >= 1 is the multiplicity of p as a root of u_d.

- m = 1, the smooth case: dF/dw(0, 0) != 0, so by the implicit function
  theorem {F = 0} is near the origin the graph of an analytic w(s).  Its one
  real branch crosses s = 0, so u has one half-branch on each side: (1, 1).
  By Euler's relation alpha*u_d,x + beta*u_d,y = d*u_d(alpha, beta) = 0, and
  so m = 1 exactly when the gradient of u_d at (alpha, beta) is nonzero,
  which is what the code tests.
- m >= 2: the Newton polygon.  w does not divide F: else u would vanish on
  the line through the origin in the direction (alpha, beta), and being
  irreducible would be that line, with m = 1.  So n = ord_s F(s, 0) is
  finite.  The compact edges of the lower Newton polygon of F, the boundary
  of the convex hull of {(i, j) : F_ij != 0} + R_>=0^2, run from (0, m) to
  (n, 0).  An edge from (i1, j1) to (i2, j2), i1 < i2, has lattice length
  g = gcd(i2 - i1, j1 - j2), coprime direction (P, Q) = (i2 - i1, j1 - j2)/g
  and edge polynomial phi(z) = sum over k = 0..g of F_(i2 - P*k, j2 + Q*k) z^k,
  of degree g with phi(0) != 0.

  Newton-Puiseux (Walker, Algebraic Curves, 1950, ch. IV; Brieskorn and
  Knoerrer, Plane Algebraic Curves, 1986, 8.3; Casas-Alvero, Singularities of
  Plane Curves, 2000, ch. 1): the roots in w of F(s, w) = 0 near s = 0 are m
  Puiseux series, and those that belong to the edge (P, Q) are
  w = c*s^(P/Q) + (higher powers of s), with c != 0 and phi(c^Q) = 0.  Indeed
  w = c*s^(P/Q) gives every monomial on the edge the order N/Q, N = Q*i + P*j
  along the edge, and their sum is c^j2 * phi(c^Q) * s^(N/Q); every other
  monomial has a higher order.  Let zeta be a simple root of phi and
  c^Q = zeta.  The substitution s = t^Q, w = t^P*(c + v) turns F into
  t^N * G(t, v) with G(0, v) = (c + v)^j2 * phi((c + v)^Q), whose derivative
  in v at 0 is c^j2 * phi'(zeta) * Q*c^(Q - 1) != 0.  So v = v(t) is
  analytic with v(0) = 0, and real for real t when c is real, as F is real.
  The Q choices of c lie on one branch, as t -> exp(2*pi*i/Q)*t moves c to
  c*exp(2*pi*i*P/Q) and P, Q are coprime.  Summed over the edges, the simple
  roots account for sum Q*g = sum (j1 - j2) = m series, which is all of
  them.  So when every phi is squarefree (the point is Newton-nondegenerate)
  the branches of F at the origin are one per root zeta of each phi, and
  distinct (edge, zeta, c) have distinct leading terms.  On a real
  half-branch w/|s|^(P/Q) has a real limit, so only real leading terms
  count:

  - Q odd.  t -> t^Q is a bijection of R, so a real zeta, with c its real
    Q-th root, gives a real branch whose t > 0 and t < 0 halves lie in
    s > 0 and s < 0; a nonreal zeta has no real c.  Both sides add the real
    roots of phi.
  - Q even, so P is odd.  On s > 0, t = +-s^(1/Q), and a real c with
    c^Q = zeta exists when zeta > 0: c = +-zeta^(1/Q), the two halves t > 0
    and t < 0 of one real branch.  On s < 0, write s = -r with r > 0: then
    w = c*(-1)^(P/Q)*r^(P/Q) + ..., real when (c*(-1)^(P/Q))^Q = (-1)^P*zeta
    = -zeta is positive.  So the plus side adds twice the positive roots of
    phi, and the minus side twice the negative roots.

  If some phi has a repeated root, later Puiseux terms decide the branches,
  and u is counted on the circle instead, at all its points.

The circle.  A small circle around a point at infinity is a large circle in
the affine plane: the conic structure at infinity.  The circle of radius R
is parametrized as p(t) = R*M(1 - t^2, 2t)/(1 + t^2), t in R or t = oo, with
M a rational rotation chosen so that p(oo) = -R*M(1, 0) is no direction of
u.  The directions +-(alpha, beta) of u, one pair per point at infinity
[alpha : beta] of u, are then finite real roots in t.  Rational separators
between those roots, and t = oo, cut the circle into sectors, each holding
one direction; the separators give rays from the origin.

Certificate.  For u on the circle the radius R lies beyond two kinds of
critical radii:

- Transversality.  A circle is tangent to {u = 0}, or meets a singular point
  of it, only at a common zero of u and its tangential derivative
  h = x*u_y - y*u_x.  u has a point at infinity, so it is not
  rotation-invariant, and it does not divide h: h = lambda*u would give
  u(R_theta p) = exp(lambda*theta)*u(p) along every rotation R_theta, and
  theta = 2*pi forces lambda = 0, hence h = 0.  So u and h are coprime,
  their resultants eliminating y and x are nonzero, and root bounds Bx, By
  of those put every common zero within radius (Bx^2 + By^2)^(1/2).
- Separators.  On a separator ray s*v, s > 0, u has degree deg u in s, as v
  is no direction of u; a root bound of u(s*v), times |v|, bounds the
  radius of the points of u on that ray.

Beyond R every circle meets {u = 0} transversally and off the separator
rays.  So outside the disc of radius R, {u = 0} is a union of arcs, each
meeting every larger circle once and never leaving its sector.  Each arc
goes to infinity, so its limit direction is a direction of u in the closed
sector, which is the sector's own.  Hence the number of real roots of
(1 + t^2)^deg u * u(p(t)) in a sector, a Sturm count, is the number of
half-branches of u at the sector's direction.  Only upper bounds enter: no
pairwise eliminations, clearances or smallest root magnitudes.

The cache.  The normal forms and realizations are built from one family of
lines and parabolas, so curves counted in one process share most of their
factors.  Every count of u depends on u alone: its points at infinity, the
rule at each, and where some edge is degenerate the sectors of u's own
directions, its radius R and its Sturm count on the circle of radius R.  So
the counts are cached per process, keyed on u, in a `functools.lru_cache`
of 1024 entries.  Nothing else in this module is cached.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count

from .poly import BivarPoly, Record, _list_add, _list_mul, _primitive_ints, _trim, resultant
from .projective import ProjPointAtInfinity, leading_form, points_at_infinity
from .roots import _sign_at, isolate_real_roots, root_bound, sign_variations, sturm_chain


class Sectors(Record):
    """The rotation M = (c, s) of the circle parametrization, the finite
    separators in increasing order (t = oo closes the list), and per sector,
    from t = -oo up, its point at infinity and side (+1 for the direction
    +(alpha, beta) of the point's representative, -1 for its antipode)."""

    __slots__ = ("rotation", "separators", "labels")

    def __init__(self, rotation: tuple[Fraction, Fraction], separators: tuple[Fraction, ...],
                 labels: tuple[tuple[ProjPointAtInfinity, int], ...]):
        super().__init__(rotation, separators, labels)


def _rotation(lf: BivarPoly) -> tuple[Fraction, Fraction]:
    """The first Pythagorean rotation (c, s) = ((1 - m^2), 2m)/(1 + m^2),
    m = 0, 1, 1/2, 1/3, ..., with lf(c, s) != 0; lf has finitely many roots."""
    for k in count():
        m = Fraction(1, k) if k else Fraction(0)
        c, s = (1 - m * m) / (1 + m * m), 2 * m / (1 + m * m)
        if lf.evaluate(c, s) != 0:
            return c, s


def circle_sectors(f: BivarPoly, points: list[ProjPointAtInfinity]) -> Sectors:
    """The sectors of the circles about the origin for the curve f with the
    given points at infinity.

    In the rotated frame a point's representative is (a, b) = q*M^T(alpha,
    beta), an integer vector for the integer rotation (a, b)/q of
    `_integer_rotation`, and cross(t) = b*t^2 + 2a*t - b, the cross product
    of (a, b) with (1 - t^2, 2t), vanishes at its two directions.  The
    product of the cross polynomials has the curve's directions as its
    simple real roots.

    Labels come from the order of the directions by angle.  The rotation
    keeps +-M(1, 0) off the curve's directions, so every direction (a, b) of
    the rotated frame has b != 0.  Its parameter is t = tan(theta/2) for its
    angle theta in (-pi, pi), negative for b < 0 and positive for b > 0; on
    either half-plane theta grows with -a/b = -cot(theta), and so does t.  So
    the directions sorted by the key (b > 0, -a/b) are the roots in
    increasing order, which are the sectors from t = -oo up.
    """
    rotation = _rotation(leading_form(f))
    c, s, _ = _integer_rotation(rotation)
    frames = [(c * al + s * be, c * be - s * al) for al, be in (p.rep for p in points)]
    crosses = [[-b, 2 * a, b] for a, b in frames]
    roots = isolate_real_roots(reduce(_list_mul, crosses, [1]))
    signed = [(side * a, side * b, point, side)
              for point, (a, b) in zip(points, frames) for side in (1, -1)]
    signed.sort(key=lambda d: (d[1] > 0, Fraction(-d[0], d[1])))
    assert len(signed) == len(roots), "each direction is a simple root"
    separators = tuple((a.high + b.low) / 2 for a, b in zip(roots, roots[1:]))
    return Sectors(rotation, separators, tuple((point, side) for _, _, point, side in signed))


def _integer_rotation(rotation: tuple[Fraction, Fraction]) -> tuple[int, int, int]:
    """(a, b, q) with q > 0 and the rotation (c, s) = (a, b)/q."""
    c, s = rotation
    q = math.lcm(c.denominator, s.denominator)
    return c.numerator * (q // c.denominator), s.numerator * (q // s.denominator), q


# ---------------------------------------------------------------------------
# counting on one circle
# ---------------------------------------------------------------------------

def _parts_at(terms, x: list, y: list):
    """part(k, cut=None): the degree-k homogeneous part u_k of the polynomial
    with the given ((i, j), coefficient) terms at the substitution
    x = X(t), y = Y(t), for coefficient lists X and Y, as a coefficient list
    in t cut before t^cut.  Horner in Y over the powers of X, which are
    computed once."""
    parts: dict[int, dict[int, int]] = {}
    for (i, j), cf in terms:
        parts.setdefault(i + j, {})[j] = cf
    x_pows = [[1]]
    for _ in range(max(parts)):
        x_pows.append(_list_mul(x_pows[-1], x))

    def part(k: int, cut: int | None = None) -> list:
        row = parts.get(k)
        if not row:
            return []
        out: list = []
        for j in range(k, -1, -1):
            out = _list_mul(out, y)
            if cut is not None:
                out = _trim(out[:cut])
            if j in row:
                out = _list_add(out, [row[j] * c for c in x_pows[k - j][:cut]])
        return out

    return part


def _homogenized_at(terms, degree: int, x: list, y: list, w: list) -> list:
    """The sum of u_k(X, Y) * W^(degree - k) over k (see `_parts_at`): the
    polynomial at x = X/W, y = Y/W, times W^degree."""
    part = _parts_at(terms, x, y)
    acc: list = []
    for k in range(degree + 1):
        acc = _list_add(_list_mul(acc, w), part(k))
    return acc


def _restriction(g: BivarPoly, radius: int | Fraction,
                 rotation: tuple[Fraction, Fraction]) -> list[int]:
    """(1 + t^2)^deg g * g(p(t)) on the circle of the given radius, times a
    positive constant that makes it an integer polynomial: the one that makes
    g primitive, times q^deg g for the denominators q of the rotation and the
    radius, with which p(t) = (X(t), Y(t))/(q*(1 + t^2)) for integer
    polynomials X, Y.  A positive factor changes no sign, so no root, Sturm
    count or sector count."""
    a, b, q = _integer_rotation(rotation)
    a, b, q = a * radius.numerator, b * radius.numerator, q * radius.denominator
    return _homogenized_at(zip(g.terms, _primitive_ints(g.terms.values())), g.degree,
                           _trim([a, -2 * b, -a]), _trim([b, 2 * a, -b]), [q, 0, q])


def _signed_counts(g: BivarPoly, radius: int | Fraction, sectors: Sectors) -> list[int]:
    """Points of {g = 0} on the circle of the given radius, per sector, from
    the sign variations of the Sturm chain of `_restriction` at the
    separators.  No curve point may lie on a separator ray at that radius,
    which holds for a factor at its certified radius."""
    p = _restriction(g, radius, sectors.rotation)
    # the t^(2 deg g) coefficient of p is g(p(oo)); it is nonzero, and p is
    # not zero, as the separator-ray clause of R puts every point of g on the
    # ray at t = oo strictly inside R
    assert len(p) - 1 == 2 * g.degree, "a curve point on the ray at t = oo"
    chain = sturm_chain(p)
    # chain[0], p made primitive, has the roots of p; the same clause keeps
    # them off the finite separators
    assert all(_sign_at(chain[0], t) for t in sectors.separators), \
        "a curve point on a separator ray"
    variations = [sign_variations(chain, t) for t in (-math.inf, *sectors.separators, math.inf)]
    return [a - b for a, b in zip(variations, variations[1:])]


# ---------------------------------------------------------------------------
# certified radius
# ---------------------------------------------------------------------------

def _transversality_square(u: BivarPoly) -> Fraction:
    """Bx^2 + By^2 for an irreducible u with a point at infinity (see the
    module docstring)."""
    h = BivarPoly.x() * u.partial("y") - BivarPoly.y() * u.partial("x")
    ry, rx = resultant(u, h, "y"), resultant(u, h, "x")
    assert ry and rx, "coprime inputs have a nonzero resultant"
    return root_bound(ry) ** 2 + root_bound(rx) ** 2


def _certified_bound(u: BivarPoly, sectors: Sectors) -> int:
    """The certified radius R of the irreducible u: the first power of
    2 whose square exceeds Bx^2 + By^2 and the squared radius bound of the
    points of u on each separator ray (see the module docstring)."""
    squares = [_transversality_square(u)]
    # each ray direction v = (a, b)/q in integers: M(1 - t^2, 2t) for the
    # separators t = n/m, over the rotation's denominator times m^2, and
    # -M(1, 0) for t = oo
    rc, rs, rq = _integer_rotation(sectors.rotation)
    rays = [(-rc, -rs, rq)]
    for t in sectors.separators:
        n, m = t.numerator, t.denominator
        e = m * m - n * n
        rays.append((rc * e - 2 * rs * n * m, rs * e + 2 * rc * n * m, rq * m * m))
    # u(s*v) as a polynomial in s, times the positive constant q^deg u (which
    # leaves the root bound as it is) so that it is in integers, as u is: u at
    # x = a*s/q, y = b*s/q, times q^deg u
    for a, b, q in rays:
        along = _homogenized_at(u.items(), u.degree, _trim([0, a]), _trim([0, b]), [q])
        squares.append(root_bound(along) ** 2 * Fraction(a * a + b * b, q * q))
    bound = max(squares)
    radius = 1
    while radius * radius <= bound:
        radius *= 2
    return radius


# ---------------------------------------------------------------------------
# the Newton polygon of the chart at a point
# ---------------------------------------------------------------------------

def _chart_rows(u: BivarPoly, alpha: int, beta: int) -> list[list]:
    """The rows i = 0..n of the chart F of u at [alpha : beta] (see the
    module docstring) for u with m >= 2: row i lists the coefficients of s^i
    as a polynomial in w, u_(d - i)(alpha - w*beta, beta + w*alpha).  Row 0
    is in full.  The others are cut before w^m, m the order of row 0 at
    w = 0: a point (i, j) with i >= 1 and j >= m lies above the edges from
    (0, m) to (n, 0).  n is the first row with a nonzero constant term."""
    part = _parts_at(u.items(), _trim([alpha, -beta]), _trim([beta, alpha]))
    rows = [part(u.degree)]
    cut = next(j for j, c in enumerate(rows[0]) if c)
    for k in range(u.degree - 1, -1, -1):
        rows.append(part(k, cut))
        if rows[-1] and rows[-1][0]:
            return rows
    raise AssertionError("w divides the chart of a curve that is not a line")


def _newton_edges(rows: list[list]) -> list[tuple[int, int, list]]:
    """(P, Q, phi) for each compact edge of the lower Newton polygon of the
    chart with the given rows, from (0, m) to (n, 0) (see the module
    docstring)."""
    # the lowest point of each column, then the lower convex hull of those
    # (Andrew's monotone chain); collinear points are dropped, so each edge
    # runs between its two end vertices
    hull: list[tuple[int, int]] = []
    for i, row in enumerate(rows):
        if not row:
            continue
        p = (i, next(j for j, c in enumerate(row) if c))
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  <= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])):
            hull.pop()
        hull.append(p)
    edges = []
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        g = math.gcd(i2 - i1, j1 - j2)
        p, q = (i2 - i1) // g, (j1 - j2) // g
        phi = []
        for k in range(g + 1):
            row, j = rows[i2 - p * k], j2 + q * k
            phi.append(row[j] if j < len(row) else 0)
        edges.append((p, q, phi))
    return edges


def _newton_counts(u: BivarPoly, rep: tuple[int, int]) -> tuple[int, int] | None:
    """(plus, minus) half-branches of the irreducible u at its own point at
    infinity with the representative rep, by the rule of the module
    docstring; None when an edge polynomial has a repeated root."""
    alpha, beta = rep
    lf = leading_form(u)
    if lf.partial("x").evaluate(alpha, beta) or lf.partial("y").evaluate(alpha, beta):
        return 1, 1
    plus = minus = 0
    for p, q, phi in _newton_edges(_chart_rows(u, alpha, beta)):
        chain = sturm_chain(phi)
        if len(chain[0]) < len(phi):  # the chain is that of phi's squarefree part
            return None
        below, at_zero, above = (sign_variations(chain, t)
                                 for t in (-math.inf, Fraction(0), math.inf))
        negative, positive = below - at_zero, at_zero - above
        if q % 2:
            plus += negative + positive
            minus += negative + positive
        else:
            plus += 2 * positive
            minus += 2 * negative
    return plus, minus


def count_half_branches(u: BivarPoly, sectors: Sectors) -> list[int]:
    """Half-branches of the irreducible u at each sector's direction,
    certified; u has a point at infinity."""
    return _signed_counts(u, _certified_bound(u, sectors), sectors)


@lru_cache(maxsize=1024)
def factor_half_branches(u: BivarPoly) -> tuple[tuple[ProjPointAtInfinity, int, int], ...]:
    """(point, plus, minus) half-branch counts of the irreducible u at each of
    its real points at infinity, in the order of `points_at_infinity`,
    certified.  Each point is counted by the Newton polygon rule, or, when
    one of them is degenerate, all of them on the circle of u's own
    directions.  Cached per process: it depends on u alone."""
    points = points_at_infinity(u)
    counts = [_newton_counts(u, p.rep) for p in points]
    if None in counts:
        by_point = {p: [0, 0] for p in points}
        sectors = circle_sectors(u, points)
        for (point, side), n in zip(sectors.labels, count_half_branches(u, sectors)):
            by_point[point][0 if side > 0 else 1] += n
        counts = [by_point[p] for p in points]
    return tuple((p, plus, minus) for p, (plus, minus) in zip(points, counts))
