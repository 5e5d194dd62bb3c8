"""Certified counting of the real half-branches of a plane curve germ at the
origin, split by the sign of z.

The certificate is a rational radius bound below every positive critical value
of the distance function on the germ, below the nearest curve point on
{z = 0}, below the nearest common zero of two distinct factors and below 1.
On (0, bound] every circle meets the germ transversally in a constant number
of points, none on {z = 0}, so one circle count at the bound radius equals the
half-branch count.  The elimination work runs per irreducible factor of the
germ, which keeps the resultants small.

Every count is certified: the eliminations behind the bound never degenerate.
A resultant vanishes identically only when its two inputs share a factor.  A
kept factor u is irreducible; when it is not rotation-invariant (those need no
elimination), its tangential derivative h = w*u_z - z*u_w is nonzero and of no
larger degree.  If u divided h, then h = lambda*u for a constant lambda, so
u(R_theta p) = exp(lambda*theta)*u(p) along every rotation R_theta; theta =
2*pi forces lambda = 0, hence h = 0, a contradiction.  Distinct irreducible factors share
no factor, and the chart images of distinct irreducibles are distinct
irreducibles, so the pairwise eliminations cannot degenerate either.  The only
uncertified counts are those at a radius the caller chose (signed_counts_at).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonTransverseCircleError
from .poly import BivarPoly, UnivarPoly, irreducible_factors, resultant, univar_gcd
from .projective import GermChart
from .roots import count_roots_in, isolate_real_roots, min_nonzero_root_magnitude

@dataclass(frozen=True)
class CriticalRadius:
    """A radius below which circle counts around the origin are stable,
    certified by the critical-value bound."""

    bound: Fraction
    certified: bool = True


@dataclass(frozen=True)
class SignedBranchCount:
    """Half-branch counts of a germ at the origin by sign of z."""

    plus: int
    minus: int
    epsilon_used: Fraction
    certified: bool = True


# ---------------------------------------------------------------------------
# circle restriction
# ---------------------------------------------------------------------------

def _circle_restriction(g: BivarPoly, eps: Fraction) -> tuple[UnivarPoly, UnivarPoly]:
    """Split g = g_e(w, z^2) + z*g_o(w, z^2) and substitute z^2 = eps^2 - w^2.

    Returns (U_e, U_o); points of {g = 0} on the eps-circle over abscissa w0
    satisfy U_e(w0) + z*U_o(w0) = 0 with z^2 = eps^2 - w0^2.
    """
    bsq = eps * eps
    b_poly = UnivarPoly([bsq, Fraction(0), Fraction(-1)])
    max_half = max((j // 2 for (_, j) in g.terms), default=0)
    b_pows = [UnivarPoly.constant(1)]
    for _ in range(max_half):
        b_pows.append(b_pows[-1] * b_poly)
    even: dict[tuple[int, int], Fraction] = {}
    odd: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in g.items():
        if j % 2 == 0:
            even[(i, j // 2)] = c
        else:
            odd[(i, (j - 1) // 2)] = c

    def assemble(parts: dict[tuple[int, int], Fraction]) -> UnivarPoly:
        acc = UnivarPoly()
        for (i, k), c in parts.items():
            acc = acc + (b_pows[k] * UnivarPoly([Fraction(0)] * i + [c]))
        return acc

    return assemble(even), assemble(odd)


def count_circle_solutions(g: BivarPoly, eps: Fraction) -> int:
    """Exact number of points of {g = 0} on the circle w^2 + z^2 = eps^2.

    Raises NonTransverseCircleError when the circle is a component of {g = 0}.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    u_e, u_o = _circle_restriction(g, eps)
    b_poly = UnivarPoly([eps * eps, Fraction(0), Fraction(-1)])
    c_poly = u_e * u_e - b_poly * (u_o * u_o)
    if c_poly.is_zero():
        raise NonTransverseCircleError("the sample circle lies inside the curve")
    total = 0
    for pos, _, _, both in _classified_roots(c_poly, u_e, u_o, eps):
        if pos == "endpoint":
            total += 1
        elif pos == "interior":
            total += 2 if both else 1
    return total


def _classified_roots(c_poly: UnivarPoly, u_e: UnivarPoly, u_o: UnivarPoly,
                      eps: Fraction):
    """Yield (position, lo, hi, both_lifts) for each real root of c_poly.

    position is 'endpoint' (w = +-eps, the z = 0 points), 'interior'
    (|w| < eps, one or two lifts) or 'outside' (no real lift).
    """
    sf = c_poly.squarefree()
    gcd_eo = None  # roots of c with both lifts are common roots of u_e, u_o
    for iv in isolate_real_roots(c_poly):
        if iv.exact_point is not None:
            q = iv.exact_point
            if q == eps or q == -eps:
                yield ("endpoint", q, q, False)
            elif -eps < q < eps:
                yield ("interior", q, q, u_o(q) == 0 and u_e(q) == 0)
            else:
                yield ("outside", q, q, False)
            continue
        lo, hi = iv.low, iv.high
        slo = sf(lo)
        # refine until the interval is strictly inside or outside (-eps, eps);
        # +-eps are rational, hence never this (irrational) root
        while not ((-eps < lo and hi < eps) or hi < -eps or lo > eps):
            mid = (lo + hi) / 2
            smid = sf(mid)
            if slo * smid < 0:
                hi = mid
            else:
                lo, slo = mid, smid
        if hi < -eps or lo > eps:
            yield ("outside", lo, hi, False)
            continue
        both = False
        if u_o.is_zero() or u_e.is_zero():
            both = True
        else:
            if gcd_eo is None:
                gcd_eo = univar_gcd(sf, u_o)
            if gcd_eo.degree >= 1 and count_roots_in(gcd_eo, lo, hi) == 1:
                both = True
        yield ("interior", lo, hi, both)


def _sign_at_root(c_sf: UnivarPoly, lo: Fraction, hi: Fraction,
                  p: UnivarPoly) -> int:
    """Sign of p at the c_sf-root inside [lo, hi], known nonzero there.

    Bisects the isolating interval until p has no root in (lo, hi], then reads
    the sign at hi.  This terminates: p is nonzero at the root r, so p has no
    root within some distance delta of r, and after log2((hi - lo)/delta)
    halvings the interval around r is that narrow.  The caller passes
    p = u_e*u_o at a one-lift root, where u_o(r) != 0 (else u_e(r) = 0 too
    and the root would have two lifts) and so u_e(r) != 0.
    """
    slo = c_sf(lo)
    while count_roots_in(p, lo, hi) > 0:
        mid = (lo + hi) / 2
        smid = c_sf(mid)
        if slo * smid < 0:
            hi = mid
        else:
            lo, slo = mid, smid
    return 1 if p(hi) > 0 else -1


def _signed_counts(g: BivarPoly, eps: Fraction) -> tuple[int, int]:
    """(plus, minus) counts of {g = 0} on the eps-circle by sign of z.

    Requires that no intersection lies on {z = 0} (i.e. g(+-eps, 0) != 0).
    """
    u_e, u_o = _circle_restriction(g, eps)
    b_poly = UnivarPoly([eps * eps, Fraction(0), Fraction(-1)])
    c_poly = u_e * u_e - b_poly * (u_o * u_o)
    if c_poly.is_zero():
        raise NonTransverseCircleError("the sample circle lies inside the curve")
    if g.subs_value("y", 0)(eps) == 0 or g.subs_value("y", 0)(-eps) == 0:
        raise ValueError(
            "the circle passes through a curve point on z = 0; "
            "counts by z-sign are undefined at this radius"
        )
    sf = c_poly.squarefree()
    plus = minus = 0
    for pos, lo, hi, both in _classified_roots(c_poly, u_e, u_o, eps):
        if pos != "interior":
            continue
        if both:
            plus += 1
            minus += 1
            continue
        # one lift: z = -u_e/u_o at the root, so sign(z) = -sign(u_e*u_o)
        if lo == hi:
            s = -1 if u_e(lo) * u_o(lo) > 0 else 1
        else:
            s = -_sign_at_root(sf, lo, hi, u_e * u_o)
        if s > 0:
            plus += 1
        else:
            minus += 1
    return plus, minus


# ---------------------------------------------------------------------------
# certified radius
# ---------------------------------------------------------------------------

def _elim(a: BivarPoly, b: BivarPoly, var: str) -> UnivarPoly:
    """A nonzero univariate constraint (in the other variable) satisfied by
    the projections of all common zeros of a and b, which share no factor."""
    da, db = a.deg_in(var), b.deg_in(var)
    if da == 0:
        return _as_univar(a, var)
    if db == 0:
        return _as_univar(b, var)
    r = resultant(a, b, var)
    assert not r.is_zero(), "coprime inputs have a nonzero resultant"
    return r


def _as_univar(p: BivarPoly, eliminated: str) -> UnivarPoly:
    """View a polynomial with degree 0 in `eliminated` as univariate in the other."""
    other = "x" if eliminated == "y" else "y"
    n = p.deg_in(other)
    coeffs = [Fraction(0)] * (n + 1)
    for (i, j), c in p.items():
        coeffs[(i, j)[0 if other == "x" else 1]] = c
    return UnivarPoly(coeffs)


def _magnitude_clause(p: UnivarPoly) -> Fraction | None:
    """Lower bound on nonzero-root magnitudes of p; None means no constraint."""
    if p.is_zero() or p.is_constant():
        return None
    return min_nonzero_root_magnitude(p)


def _tangential_derivative(u: BivarPoly) -> BivarPoly:
    # derivative of u along circles: w * du/dz - z * du/dw
    return BivarPoly.x() * u.partial("y") - BivarPoly.y() * u.partial("x")


def _radial_profile(u: BivarPoly) -> UnivarPoly:
    """For a rotation-invariant u = U(w^2 + z^2), recover U."""
    restricted = u.subs_value("y", 0)  # U(w^2)
    coeffs = restricted.coeffs
    assert all(c == 0 for k, c in enumerate(coeffs) if k % 2 == 1)
    return UnivarPoly([coeffs[k] for k in range(0, len(coeffs), 2)])


def _origin_clearance(u: BivarPoly) -> Fraction:
    """A positive radius below the distance from the origin to {u = 0},
    for u with u(0, 0) != 0."""
    c0 = abs(u.evaluate(0, 0))
    assert c0 > 0
    rest = sum(abs(c) for e, c in u.items() if e != (0, 0))
    if rest == 0:
        return Fraction(1)
    return c0 / (c0 + rest)


def _certified_bound(kept: list[BivarPoly], dropped: list[BivarPoly]) -> Fraction:
    """Certified radius bound for the product of the kept factors.

    The kept factors are distinct irreducibles through the origin.  For each
    one that is not rotation-invariant, the resultants of u and its tangential
    derivative h are nonzero, as u does not divide h (see the module
    docstring), and their roots bound the critical values of the distance on
    {u = 0}; so do the resultants of two distinct kept factors for their
    common zeros.  A rotation-invariant factor only contributes its circle
    radii, and a dropped factor the distance from the origin to its zeros.
    """
    candidates = [Fraction(1)]
    plain = []
    for u in kept:
        h = _tangential_derivative(u)
        if h.is_zero():
            # rotation-invariant factor: its real trace near the origin is the
            # origin itself; stay below its positive circle radii
            m = _magnitude_clause(_radial_profile(u))
            if m is not None:
                candidates.append(min(m, Fraction(1)))
            continue
        plain.append(u)
        for m in (_magnitude_clause(_elim(u, h, "y")),
                  _magnitude_clause(_elim(u, h, "x"))):
            if m is not None:
                candidates.append(m)
        m = _magnitude_clause(u.subs_value("y", 0))
        if m is not None:
            candidates.append(m)
    for i in range(len(plain)):
        for j in range(i + 1, len(plain)):
            for m in (_magnitude_clause(_elim(plain[i], plain[j], "y")),
                      _magnitude_clause(_elim(plain[i], plain[j], "x"))):
                if m is not None:
                    candidates.append(m)
    for u in dropped:
        candidates.append(_origin_clearance(u))
    bound = min(candidates) / 2
    # snap to a power of two: small numerators keep later arithmetic cheap
    eps = Fraction(1, 2)
    while eps > bound:
        eps /= 2
    return eps


def _split_factors(germ: BivarPoly, factors: tuple[BivarPoly, ...] | None):
    if factors is None:
        factors = irreducible_factors(germ)
    kept = [u for u in factors if u.evaluate(0, 0) == 0]
    dropped = [u for u in factors if u.evaluate(0, 0) != 0]
    return kept, dropped


def critical_radius_bound(chart: GermChart) -> CriticalRadius:
    """A radius below every positive critical value of the distance on the germ
    and below all points of the germ on {z = 0}, capped at 1."""
    return CriticalRadius(_certified_bound(*_split_factors(chart.germ, None)))


def count_half_branches(chart: GermChart, *,
                        factors: tuple[BivarPoly, ...] | None = None) -> SignedBranchCount:
    """Signed half-branch counts of the germ at the origin, certified.

    Counts circle intersections at the certified radius, one kept factor at a
    time, classified by the sign of z.
    """
    kept, dropped = _split_factors(chart.germ, factors)
    bound = _certified_bound(kept, dropped)
    plus = minus = 0
    for u in kept:
        p, m = _signed_counts(u, bound)
        plus += p
        minus += m
    return SignedBranchCount(plus, minus, bound)


def signed_counts_at(germ: BivarPoly, eps: Fraction) -> SignedBranchCount:
    """Signed circle counts at a caller-chosen radius; never certified."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    plus, minus = _signed_counts(germ, eps)
    return SignedBranchCount(plus, minus, eps, certified=False)
