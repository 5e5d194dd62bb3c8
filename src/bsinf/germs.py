"""Certified counting of the real half-branches of a plane curve at each of
its directions at infinity, in the chart at each point at infinity: from the
Newton polygon of the chart, and where that polygon is degenerate, from the
real roots of the chart on a short segment near the point.

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
  and the point is counted on a segment instead.

The segment.  This count holds at every point of u, and the code runs it
where the rule above does not decide.  Take the whole chart F; it is
squarefree and not free of w, as u is irreducible, so the resultant
D(s) = res_w(F, dF/dw) is not zero.  F(0, w) is not zero either, so it has
finitely many roots.  Let r be a power of 2 below the modulus of every
nonzero root of F(0, w), and s1 one below the modulus of every nonzero root
of D(s), F(s, -r) and F(s, r).  Neither F(s, -r) nor F(s, r) is zero, as
w + r or w - r dividing F would make -r or r a root of F(0, w).  On
0 < |s| <= s1:

- D(s) != 0, so the roots of F(s, .) are simple and its degree in w stays
  fixed: D carries the lead of F in w as a factor.
- Neither -r nor r is a root.

So the real roots of F(s, .) in (-r, r) move continuously with s, never meet
and never leave, and their number is constant on each side of s = 0.  As
s -> 0 they tend to roots of F(0, .) in [-r, r], and the only one there is
0.  So they are exactly the real half-branches of {F = 0} at the origin on
that side: plus is the Sturm count of F(s1, .) on (-r, r), and minus that
of F(-s1, .).  Only lower bounds on nonzero roots enter, each from Cauchy's
bound, and one resultant.

The cache.  The normal forms and realizations are built from one family of
lines and parabolas, so curves counted in one process share most of their
factors.  Every count of u depends on u alone: its points at infinity and
the rule or the segment at each.  So the counts are cached per process,
keyed on u, in a `functools.lru_cache` of 1024 entries.  Nothing else in
this module is cached.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .poly import BivarPoly, _list_add, _list_mul, _trim, resultant
from .projective import ProjPointAtInfinity, leading_form, points_at_infinity
from .roots import _below_nonzero_roots, sign_variations, sturm_chain


# ---------------------------------------------------------------------------
# the chart at a point
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


# ---------------------------------------------------------------------------
# the segment of the chart, where the rule does not decide
# ---------------------------------------------------------------------------

def _segment(u: BivarPoly, rep: tuple[int, int]) -> tuple[BivarPoly, Fraction, Fraction]:
    """(F, r, s1) for the irreducible u at its own point at infinity with the
    representative rep: the whole chart F, with x for s and y for w, and the
    r and s1 of the module docstring."""
    alpha, beta = rep
    part = _parts_at(u.items(), _trim([alpha, -beta]), _trim([beta, alpha]))
    chart = BivarPoly({(i, j): c for i in range(u.degree + 1)
                       for j, c in enumerate(part(u.degree - i)) if c})
    r = _below_nonzero_roots(chart.subs_value("x", 0))
    d = resultant(chart, chart.partial("y"), "y")
    assert d, "the chart is squarefree and not free of w"
    s1 = min(_below_nonzero_roots(p)
             for p in (d, chart.subs_value("y", -r), chart.subs_value("y", r)))
    return chart, r, s1


def _roots_on_segment(chart: BivarPoly, r: Fraction, s: Fraction) -> int:
    """The Sturm count of the real roots of F(s, .) in (-r, r)."""
    chain = sturm_chain(chart.subs_value("x", s))
    return sign_variations(chain, -r) - sign_variations(chain, r)


def _local_counts(u: BivarPoly, rep: tuple[int, int]) -> tuple[int, int]:
    """(plus, minus) half-branches of the irreducible u at its own point at
    infinity with the representative rep: the real roots of its chart on the
    segment |w| < r at s = s1 and at s = -s1 (see the module docstring)."""
    chart, r, s1 = _segment(u, rep)
    return _roots_on_segment(chart, r, s1), _roots_on_segment(chart, r, -s1)


@lru_cache(maxsize=1024)
def factor_half_branches(u: BivarPoly) -> tuple[tuple[ProjPointAtInfinity, int, int], ...]:
    """(point, plus, minus) half-branch counts of the irreducible u at each of
    its real points at infinity, in the order of `points_at_infinity`,
    certified.  Each point is counted by the Newton polygon rule, or, where
    that is degenerate, on the segment of its own chart.  Cached per
    process: it depends on u alone."""
    out = []
    for p in points_at_infinity(u):
        counts = _newton_counts(u, p.rep) or _local_counts(u, p.rep)
        out.append((p, *counts))
    return tuple(out)
