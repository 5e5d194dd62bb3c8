from fractions import Fraction

import pytest

from bsinf.poly import UnivarPoly
from bsinf.roots import (
    RootInterval,
    count_roots_in,
    isolate_real_roots,
    refine_root,
)

from conftest import brute_distinct_real_roots


def test_sqrt2_isolation():
    ivs = isolate_real_roots(UnivarPoly([-2, 0, 1]))
    assert len(ivs) == 2
    assert ivs[0].high < 0 < ivs[1].low or (ivs[0].high <= 0 <= ivs[1].low)
    for iv, root in zip(ivs, (-2 ** 0.5, 2 ** 0.5)):
        assert float(iv.low) <= root <= float(iv.high)


def test_no_real_roots():
    assert isolate_real_roots(UnivarPoly([1, 0, 1])) == []


def test_rational_roots_become_exact_points():
    ivs = isolate_real_roots(UnivarPoly([0, -1, 0, 1]))  # x^3 - x
    assert [iv.exact_point for iv in ivs] == [Fraction(-1), Fraction(0), Fraction(1)]


def test_mixed_rational_and_irrational():
    # (x - 1/3) * (x^2 - 2)
    p = UnivarPoly([Fraction(2, 3), -2, Fraction(-1, 3), 1])
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
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        p = UnivarPoly(coeffs)
        if p.degree < 1:
            continue
        checked += 1
        assert len(isolate_real_roots(p)) == brute_distinct_real_roots(p)


def test_count_roots_in_examples():
    p = UnivarPoly([-2, 0, 1])  # x^2 - 2
    assert count_roots_in(p, Fraction(0), Fraction(2)) == 1
    assert count_roots_in(p, Fraction(-2), Fraction(2)) == 2
    assert count_roots_in(UnivarPoly([1, 0, 1]), Fraction(-10), Fraction(10)) == 0


def test_count_half_open_semantics():
    p = UnivarPoly([-1, 1])  # root exactly 1
    assert count_roots_in(p, Fraction(0), Fraction(1)) == 1   # includes high
    assert count_roots_in(p, Fraction(1), Fraction(2)) == 0   # excludes low


def test_count_ignores_multiplicity():
    p = UnivarPoly([-1, 1]) ** 3
    assert count_roots_in(p, Fraction(0), Fraction(2)) == 1


def test_count_agrees_with_isolation(rng):
    for _ in range(25):
        deg = rng.randint(1, 7)
        p = UnivarPoly([rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)])
        lo = Fraction(rng.randint(-6, 0))
        hi = lo + rng.randint(1, 8)
        ivs = isolate_real_roots(p)
        inside = 0
        for iv in ivs:
            iv = refine_root(p, iv, Fraction(1, 1024))
            if iv.exact_point is not None:
                inside += int(lo < iv.exact_point <= hi)
            else:
                while not (lo >= iv.high or iv.low > hi or (lo < iv.low and iv.high <= hi)):
                    iv = refine_root(p, iv, iv.width / 4)
                inside += int(lo < iv.low and iv.high <= hi)
        assert count_roots_in(p, lo, hi) == inside


def test_refinement_to_requested_width():
    p = UnivarPoly([-2, 0, 1])
    iv = isolate_real_roots(p)[1]
    fine = refine_root(p, iv, Fraction(1, 2 ** 30))
    assert fine.width <= Fraction(1, 2 ** 30)
    assert float(fine.low) <= 2 ** 0.5 <= float(fine.high)


def test_root_interval_validation():
    with pytest.raises(ValueError):
        RootInterval(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        RootInterval(Fraction(0), Fraction(1), Fraction(1, 2))
