"""Certified real-root tools for univariate polynomials over Q.

Sturm-sequence sign-variation counting and dyadic bisection; rational roots
are extracted exactly and the others isolated by sympy, so isolating
intervals for the remaining roots never have roots at their endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import UnivarPoly, from_sympy_rational, to_sympy_univar


@dataclass(frozen=True)
class RootInterval:
    """An interval containing exactly one real root of the polynomial it isolates.

    If exact_point is set, low == high == exact_point and the root is rational.
    """

    low: Fraction
    high: Fraction
    exact_point: Fraction | None = None

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError("low > high")
        if self.exact_point is not None and not (self.low == self.high == self.exact_point):
            raise ValueError("exact interval must be degenerate")

    @property
    def width(self) -> Fraction:
        return self.high - self.low


def sturm_chain(p: UnivarPoly) -> list[UnivarPoly]:
    """Sturm chain of p; remainders are renormalized by positive factors only."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain = [p.primitive()]
    d = p.derivative()
    if d.is_zero():
        return chain
    chain.append(d.primitive())
    while True:
        r = -chain[-2].rem(chain[-1])
        if r.is_zero():
            return chain
        chain.append(r.primitive())


def sign_variations(chain: list[UnivarPoly], t: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(t)
        if v:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(p: UnivarPoly, low: Fraction, high: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (low, high]."""
    low, high = Fraction(low), Fraction(high)
    if not low < high:
        raise ValueError("need low < high")
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain = sturm_chain(p.squarefree())
    return sign_variations(chain, low) - sign_variations(chain, high)


def _rational_roots(p: UnivarPoly) -> list[Fraction]:
    """All rational roots of p, via exact univariate factorization."""
    roots = []
    for fac, _ in to_sympy_univar(p).factor_list()[1]:
        if fac.degree() == 1:
            roots.append(-from_sympy_rational(fac.nth(0)) / from_sympy_rational(fac.nth(1)))
    return sorted(roots)


def isolate_real_roots(p: UnivarPoly) -> list[RootInterval]:
    """Pairwise-disjoint isolating intervals, one per distinct real root of p,
    sorted by low endpoint; rational roots come back as exact points.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    sf = p.squarefree().primitive()
    if sf.degree <= 0:
        return []

    exact = _rational_roots(sf)
    rest = sf
    for q in exact:
        rest, rem = rest.divmod(UnivarPoly([-q, 1]))
        assert rem.is_zero()

    intervals = [RootInterval(q, q, q) for q in exact]
    if rest.degree > 0:
        for (a, b), _ in to_sympy_univar(rest).intervals():
            lo, hi = from_sympy_rational(a), from_sympy_rational(b)
            # shrink until no rational root of p sits inside the interval
            while any(lo <= q <= hi for q in exact):
                mid = (lo + hi) / 2
                if rest(lo) * rest(mid) < 0:
                    hi = mid
                else:
                    lo = mid
            intervals.append(RootInterval(lo, hi))

    return sorted(intervals, key=lambda iv: iv.low)


def refine_root(p: UnivarPoly, interval: RootInterval, max_width: Fraction) -> RootInterval:
    """Shrink an isolating interval of p to the requested width by sign bisection."""
    if interval.exact_point is not None:
        return interval
    sf = p.squarefree()
    lo, hi = interval.low, interval.high
    slo = sf(lo)
    if slo == 0 or sf(hi) == 0 or slo * sf(hi) > 0:
        raise ValueError("not a sign-change isolating interval")
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        smid = sf(mid)
        if smid == 0:
            return RootInterval(mid, mid, mid)
        if slo * smid < 0:
            hi = mid
        else:
            lo, slo = mid, smid
    return RootInterval(lo, hi)
