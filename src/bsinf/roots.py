"""Certified real-root tools for univariate polynomials over Q, given as
the coefficient lists of `bsinf.poly`.

Sturm-sequence sign-variation counting and bisection.  A Sturm chain is the
remainder sequence of `bsinf.poly`, the one the gcds of the factor split
also run.  Rational roots are found exactly without factoring, and isolating
intervals of the other roots never have roots at their endpoints.

This module holds the one sign evaluator of the exact kernel, `_sign_at`,
which works in integers at a rational point or at +-oo, and the one Cauchy
root bound, `root_bound`; the sector counts and the certified radius in
germs use both.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Record, _int_exact_div, _list_derivative, _remainder_sequence


class RootInterval(Record):
    """An interval containing exactly one real root of the polynomial it isolates.

    If exact_point is set, low == high == exact_point and the root is rational.
    """

    __slots__ = ("low", "high", "exact_point")

    def __init__(self, low: Fraction, high: Fraction, exact_point: Fraction | None = None):
        if low > high:
            raise ValueError("low > high")
        if exact_point is not None and not (low == high == exact_point):
            raise ValueError("exact interval must be degenerate")
        super().__init__(low, high, exact_point)

    @property
    def width(self) -> Fraction:
        return self.high - self.low


def sturm_chain(p: list) -> list[list[int]]:
    """Sturm chain of the squarefree part of p, with coprime integer
    coefficients.

    The remainder sequence of p and p' (`poly._remainder_sequence`) ends in
    g = gcd(p, p'); divided by g it is a Sturm chain of p/g, which has the
    distinct roots of p as simple roots.  Each element is the rational
    remainder renormalized by a positive factor, so every sign variation is
    that of the rational remainder sequence.
    """
    if not p:
        raise ValueError("zero polynomial")
    chain = _remainder_sequence(p, _list_derivative(p))
    if len(chain[-1]) > 1:
        # q and g are primitive, so by Gauss's lemma q/g is an integer
        # polynomial, and a primitive one
        g = chain[-1]
        chain = [_int_exact_div(q, g) for q in chain]
    return chain


def _sign_at(q: list[int], t: Fraction | float) -> int:
    """Sign of q(t) for q with integer coefficients and t rational or
    +-math.inf, on integers: with t = a/b, b > 0, it is the sign of
    b^n q(t), the sum of c_k a^k b^(n-k).  t = +-oo is taken as a = +-1,
    b = 0, which leaves c_n a^n, the sign of the leading term there."""
    if isinstance(t, float):
        a, b = (1 if t > 0 else -1), 0
    else:
        a, b = t.numerator, t.denominator
    acc, b_power = 0, 1
    for c in reversed(q):
        acc = acc * a + c * b_power
        b_power *= b
    return (acc > 0) - (acc < 0)


def sign_variations(chain: list[list[int]], t: Fraction | float) -> int:
    """Sign variations of a Sturm chain (integer coefficients) at t, a
    rational or +-math.inf."""
    signs = [s for s in (_sign_at(q, t) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(p: list[int]) -> Fraction:
    """Cauchy's bound 1 + max |c_k/c_n| on the real roots of p, in Z[t]; 0
    without roots."""
    if len(p) <= 1:
        return Fraction(0)
    return 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))


def _isolate_one(sf: list[int], chain: list[list[int]], lo: Fraction, hi: Fraction,
                 v_hi: int, lead: int) -> RootInterval:
    """The root of sf in (lo, hi], its only one: an exact point if it is
    rational, else an interval with no root at either end.

    sf is a primitive integer polynomial with leading coefficient +-lead, so a
    rational root has a denominator of at most lead, and two such rationals
    are at least 1/lead^2 apart.  The nearest of them to the midpoint is the
    only candidate inside: if it lies outside, the root is irrational.  Else
    the interval is cut at the candidate and at the midpoint, so it at least
    halves, and below width 1/lead^2 a rational root is its own candidate.
    """
    if _sign_at(sf, hi) == 0:
        return RootInterval(hi, hi, hi)
    while _sign_at(sf, lo) == 0:  # lo is the root of the interval to the left
        mid = (lo + hi) / 2
        if _sign_at(sf, mid) == 0:
            return RootInterval(mid, mid, mid)
        if sign_variations(chain, mid) - v_hi == 1:
            lo = mid
        else:
            hi = mid
    sign_lo = _sign_at(sf, lo)
    while True:
        mid = (lo + hi) / 2
        candidate = mid.limit_denominator(lead)
        if not lo < candidate < hi:
            return RootInterval(lo, hi)
        for t in sorted({candidate, mid}):
            sign = _sign_at(sf, t)
            if sign == 0:
                return RootInterval(t, t, t)
            if sign != sign_lo:
                hi = t
                break
            lo = t


def isolate_real_roots(p: list) -> list[RootInterval]:
    """Pairwise-disjoint isolating intervals, one per distinct real root of p,
    sorted by low endpoint; rational roots come back as exact points.

    Bisection of (-B, B], B a power of 2 above Cauchy's root bound, on Sturm
    counts of half-open intervals, until each holds one root; neighbours
    that meet at a bisection point are then pulled apart about it.
    """
    if not p:
        raise ValueError("zero polynomial")
    chain = sturm_chain(p)
    sf = chain[0]  # the squarefree part of p, up to a nonzero factor
    if len(sf) <= 1:
        return []
    if len(sf) == 2:  # one rational root, as for every line and parabola factor
        root = Fraction(-sf[0], sf[1])
        return [RootInterval(root, root, root)]
    lead = abs(sf[-1])
    cauchy = root_bound(sf)
    bound = Fraction(1)
    while bound <= cauchy:
        bound *= 2
    intervals = []
    todo = [(-bound, bound, sign_variations(chain, -bound), sign_variations(chain, bound))]
    while todo:
        lo, hi, v_lo, v_hi = todo.pop()
        if v_lo - v_hi == 1:
            intervals.append(_isolate_one(sf, chain, lo, hi, v_hi, lead))
        elif v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = sign_variations(chain, mid)
            todo += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    intervals.sort(key=lambda iv: iv.low)
    for k in range(len(intervals) - 1):
        below, above = intervals[k], intervals[k + 1]
        shared = below.high
        if shared < above.low:
            continue
        # neighbours from one bisection share its point, which is no root, so
        # each brackets a root on its side.  Cut a gap of equal halves about
        # the point: the midpoint between the two, where circle_sectors puts
        # a separator, stays the same
        sign = _sign_at(sf, shared)
        gap = min(shared - below.low, above.high - shared) / 2
        while _sign_at(sf, shared - gap) != sign or _sign_at(sf, shared + gap) != sign:
            gap /= 2
        intervals[k] = RootInterval(below.low, shared - gap)
        intervals[k + 1] = RootInterval(shared + gap, above.high)
    return intervals
