import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsinf.poly import _list_mul, _trim
from bsinf.roots import RootInterval, _sign_at, isolate_real_roots, sign_variations, sturm_chain

from conftest import brute_distinct_real_roots, evaluate, squarefree


def refine(p: list, interval: RootInterval, max_width: Fraction) -> RootInterval:
    """Shrink an isolating interval of p to the requested width by sign
    bisection; it must be an exact point or a sign-change bracket."""
    if interval.exact_point is not None:
        return interval
    lo, hi = interval.low, interval.high
    slo = evaluate(p, lo)
    assert slo != 0 and evaluate(p, hi) != 0 and slo * evaluate(p, hi) < 0, "not a sign-change bracket"
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        smid = evaluate(p, mid)
        if smid == 0:
            return RootInterval(mid, mid, mid)
        if slo * smid < 0:
            hi = mid
        else:
            lo, slo = mid, smid
    return RootInterval(lo, hi)


def test_sqrt2_isolation():
    ivs = isolate_real_roots([-2, 0, 1])
    assert len(ivs) == 2
    assert ivs[0].high < 0 < ivs[1].low or (ivs[0].high <= 0 <= ivs[1].low)
    for iv, root in zip(ivs, (-2 ** 0.5, 2 ** 0.5)):
        assert float(iv.low) <= root <= float(iv.high)


def test_no_real_roots():
    assert isolate_real_roots([1, 0, 1]) == []


def test_rational_roots_become_exact_points():
    ivs = isolate_real_roots([0, -1, 0, 1])  # x^3 - x
    assert [iv.exact_point for iv in ivs] == [Fraction(-1), Fraction(0), Fraction(1)]
    # a squarefree part of degree 1: 3 - 7t, and (t - 7)^2
    for p, root in (([3, -7], Fraction(3, 7)), ([49, -14, 1], Fraction(7))):
        assert isolate_real_roots(p) == [RootInterval(root, root, root)]


def test_mixed_rational_and_irrational():
    # (x - 1/3) * (x^2 - 2)
    p = [Fraction(2, 3), -2, Fraction(-1, 3), 1]
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    exacts = [iv.exact_point for iv in ivs if iv.exact_point is not None]
    assert exacts == [Fraction(1, 3)]
    for iv in ivs:
        if iv.exact_point is None:
            assert not (iv.low <= Fraction(1, 3) <= iv.high)


def test_counts_match_brute_force(rng):
    checked = 0
    while checked < 50:
        deg = rng.randint(1, 8)
        p = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        checked += 1
        assert len(isolate_real_roots(p)) == brute_distinct_real_roots(p)


@st.composite
def polys_with_rational_roots(draw):
    """A product of linear factors a*t - b, some repeated, and a random
    polynomial of degree <= 6 with small rational coefficients."""
    p = [draw(st.fractions(-9, 9, max_denominator=4))
         for _ in range(draw(st.integers(0, 6)))] + [draw(st.integers(1, 9))]
    for _ in range(draw(st.integers(0, 4))):
        line = [-draw(st.integers(-12, 12)), draw(st.integers(1, 6))]
        for _ in range(draw(st.integers(1, 2))):
            p = _list_mul(p, line)
    return p


@given(polys_with_rational_roots())
@example([1, 0, -2, 1, 1])  # bisection at -1 leaves two brackets meeting there
@settings(max_examples=80, deadline=None)
def test_isolation_matches_sympy(p):
    if len(p) <= 1:
        return
    t = sympy.Symbol("t")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], t)
    ivs = isolate_real_roots(p)
    assert len(ivs) == sp.sqf_part().count_roots()
    rational = sorted(-Fraction(str(q.nth(0))) / Fraction(str(q.nth(1)))
                      for q, _ in sp.factor_list()[1] if q.degree() == 1)
    assert [iv.exact_point for iv in ivs if iv.exact_point is not None] == rational
    sf = squarefree(p)
    for iv in ivs:
        if iv.exact_point is None:  # a sign change, with no rational root inside
            assert evaluate(sf, iv.low) * evaluate(sf, iv.high) < 0
            assert not any(iv.low <= q <= iv.high for q in rational)
    assert all(a.high < b.low for a, b in zip(ivs, ivs[1:]))


def sturm_count(p: list, low: Fraction, high: Fraction) -> int:
    """Distinct real roots of p in (low, high], by the Sturm count that
    sector counting relies on."""
    chain = sturm_chain(p)
    return sign_variations(chain, low) - sign_variations(chain, high)


def test_count_roots_in_examples():
    p = [-2, 0, 1]  # x^2 - 2
    assert sturm_count(p, Fraction(0), Fraction(2)) == 1
    assert sturm_count(p, Fraction(-2), Fraction(2)) == 2
    assert sturm_count([1, 0, 1], Fraction(-10), Fraction(10)) == 0


def test_count_half_open_semantics():
    p = [-1, 1]  # root exactly 1
    assert sturm_count(p, Fraction(0), Fraction(1)) == 1   # includes high
    assert sturm_count(p, Fraction(1), Fraction(2)) == 0   # excludes low


def test_count_ignores_multiplicity():
    p = [-1, 3, -3, 1]  # (x - 1)^3
    assert sturm_count(p, Fraction(0), Fraction(2)) == 1


def test_count_agrees_with_isolation(rng):
    for _ in range(25):
        deg = rng.randint(1, 7)
        p = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        lo = Fraction(rng.randint(-6, 0))
        hi = lo + rng.randint(1, 8)
        ivs = isolate_real_roots(p)
        inside = 0
        for iv in ivs:
            iv = refine(squarefree(p), iv, Fraction(1, 1024))
            if iv.exact_point is not None:
                inside += int(lo < iv.exact_point <= hi)
            else:
                while not (lo >= iv.high or iv.low > hi or (lo < iv.low and iv.high <= hi)):
                    iv = refine(squarefree(p), iv, iv.width / 4)
                inside += int(lo < iv.low and iv.high <= hi)
        assert sturm_count(p, lo, hi) == inside


def test_refinement_to_requested_width():
    p = [-2, 0, 1]
    iv = isolate_real_roots(p)[1]
    fine = refine(squarefree(p), iv, Fraction(1, 2 ** 30))
    assert fine.width <= Fraction(1, 2 ** 30)
    assert float(fine.low) <= 2 ** 0.5 <= float(fine.high)


def test_root_interval_validation():
    with pytest.raises(ValueError):
        RootInterval(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        RootInterval(Fraction(0), Fraction(1), Fraction(1, 2))


def fraction_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of coefficient lists (lowest power first) by
    Fraction long division."""
    r = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b):
        k = len(r) - len(b)
        q[k] = r[-1] / b[-1]
        for i, c in enumerate(b):
            r[k + i] -= q[k] * c
        while r and r[-1] == 0:
            r.pop()
    return q, r


def rational_sturm_chain(p: list) -> list[list[Fraction]]:
    """Reference: the negated remainder sequence of p and p' by Fraction
    division, divided by its last element, the gcd; no renormalization."""
    chain = [[Fraction(c) for c in p]]
    derivative = [k * c for k, c in enumerate(chain[0])][1:]
    if not derivative:
        return chain
    chain.append(derivative)
    while True:
        _, r = fraction_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    if len(chain[-1]) > 1:
        chain = [fraction_divmod(q, chain[-1])[0] for q in chain]
    return chain


def rational_sign_variations(chain: list[list[Fraction]], t: Fraction) -> int:
    signs = []
    for q in chain:
        value = Fraction(0)
        for c in reversed(q):
            value = value * t + c
        if value:
            signs.append(value > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


@st.composite
def polys_and_rational_roots(draw):
    """An integer or rational polynomial, sometimes squared or in t^2 (whose
    remainder sequences skip degrees), times linear factors t - r, some
    repeated, with any sign of leading coefficient: many are not squarefree.
    Returns it with its roots r."""
    coeff = st.one_of(st.integers(-30, 30), st.fractions(-9, 9, max_denominator=6))
    p = _trim(draw(st.lists(coeff, min_size=1, max_size=5))) or [-3]
    if draw(st.booleans()):
        p = [c for a in p for c in (a, 0)][:-1]  # p(t^2)
    if draw(st.booleans()):
        p = _list_mul(p, p)
    roots = draw(st.lists(st.fractions(-5, 5, max_denominator=4), max_size=3))
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            p = _list_mul(p, [-r, 1])
    return p, roots


@given(polys_and_rational_roots(),
       st.lists(st.fractions(-20, 20, max_denominator=50), max_size=6))
@example(([1, 0, -2, 1, 1], []), [Fraction(-1)])
# -t^3 + 3t: the first pseudo-remainder takes one step, by lc = -3 < 0
@example(([0, 3, 0, -1], []), [Fraction(1, 2), Fraction(3)])
# (t - 1)^3 * (2 - t^2)
@example((_list_mul([-1, 3, -3, 1], [2, 0, -1]), [Fraction(1)]), [Fraction(0)])
@settings(max_examples=150, deadline=None)
def test_integer_sturm_chain_matches_rational_remainders(case, points):
    p, roots = case
    chain = sturm_chain(p)
    assert all(type(c) is int for q in chain for c in q)
    reference = rational_sturm_chain(p)
    for t in points + roots:
        assert sign_variations(chain, t) == rational_sign_variations(reference, t), t


def leading_term_variations(chain: list[list[int]], side: int) -> int:
    """Reference: sign variations of a Sturm chain at t = side*oo from the
    signs of the leading terms there."""
    signs = [q[-1] * side ** (len(q) - 1) > 0 for q in chain]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@given(polys_and_rational_roots())
@settings(max_examples=150, deadline=None)
def test_variations_at_infinity_match_leading_terms(case):
    p, _ = case
    chain = sturm_chain(p)
    for side, t in ((-1, -math.inf), (1, math.inf)):
        assert sign_variations(chain, t) == leading_term_variations(chain, side)
    # the difference counts the distinct real roots of p
    assert (sign_variations(chain, -math.inf) - sign_variations(chain, math.inf)
            == len(isolate_real_roots(p)))


def fraction_sign(q: list[int], t: Fraction) -> int:
    value = Fraction(0)
    for c in reversed(q):
        value = value * t + c
    return (value > 0) - (value < 0)


huge_ints = st.one_of(st.integers(-50, 50),
                      st.integers(-10 ** 40, 10 ** 40),
                      st.integers(10 ** 399, 10 ** 401).map(lambda c: c * (-1) ** c))


@given(st.lists(huge_ints, min_size=1, max_size=8),
       st.one_of(st.fractions(-20, 20, max_denominator=10 ** 6),
                 st.integers(-10 ** 400, 10 ** 400).map(lambda n: Fraction(n, 3 ** 500))))
@settings(max_examples=200, deadline=None)
def test_integer_sign_matches_fraction_evaluation(coeffs, t):
    q = _trim(coeffs)
    assert _sign_at(q, t) == fraction_sign(q, t)
    # a root of q, put in as a linear factor, reads as sign 0
    assert _sign_at(_list_mul(q, [-t.numerator, t.denominator]), t) == 0
    if q:
        for side in (-1, 1):
            assert _sign_at(q, side * math.inf) == (1 if q[-1] * side ** (len(q) - 1) > 0 else -1)
