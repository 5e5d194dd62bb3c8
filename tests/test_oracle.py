import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsinf.invariant import k_at_infinity
from bsinf.oracle import OracleConfig, _scaled_evaluator, _sign_windows, oracle_k
from bsinf.parsing import parse_poly
from bsinf.poly import BivarPoly


def counts_of(report) -> tuple[int, ...]:
    return tuple(sorted(c for _, c in report.directions))


def test_cusp_two_vertical_clusters():
    rep = oracle_k(parse_poly("y^2 - x^3"))
    assert rep.stable
    assert counts_of(rep) == (1, 1)
    dirs = sorted((u for u, _ in rep.directions), key=lambda u: u[1])
    assert math.hypot(dirs[0][0] - 0, dirs[0][1] + 1) < 1e-6
    assert math.hypot(dirs[1][0] - 0, dirs[1][1] - 1) < 1e-6


def test_compact_curve_empty():
    rep = oracle_k(parse_poly("x^2 + y^2 - 1"))
    assert rep.stable and rep.directions == ()


def test_line_plus_parabola_clusters():
    rep = oracle_k(parse_poly("((y-x) - 1)*((y-x)^2 - (y+x))"))
    assert rep.stable
    assert counts_of(rep) == (1, 3)
    by_count = {c: u for u, c in rep.directions}
    r2 = 1 / math.sqrt(2.0)
    assert math.hypot(by_count[3][0] - r2, by_count[3][1] - r2) < 1e-6
    assert math.hypot(by_count[1][0] + r2, by_count[1][1] + r2) < 1e-6


def test_determinism():
    f = parse_poly("((y-x) - 1)*((y-x)^2 - (y+x))")
    a = oracle_k(f)
    b = oracle_k(f)
    assert a == b


def test_monotone_refinement():
    """Doubling the angular grid never loses intersections."""
    for text in ["y^2 - x^3", "((y-x) - 1)*((y-x)^2 - (y+x))", "(y-x-1)*(y-x-2)"]:
        f = parse_poly(text)
        totals = []
        for grid in (2 ** 12, 2 ** 13, 2 ** 14):
            rep = oracle_k(f, OracleConfig(angular_grid=grid))
            totals.append(sum(c for _, c in rep.directions))
        assert totals[0] <= totals[1] <= totals[2]


def test_agreement_with_exact(classic_curves):
    for text in classic_curves.values():
        f = parse_poly(text)
        rep = oracle_k(f)
        exact = k_at_infinity(f)
        assert rep.stable
        assert counts_of(rep) == exact.k.entries
        exact_dirs = []
        for rec in exact.records:
            for side in (rec.plus, rec.minus):
                if side is not None:
                    exact_dirs.append((side.direction.unit, side.count))
        for u, c in rep.directions:
            dist, count = min(
                (math.hypot(u[0] - eu[0], u[1] - eu[1]), ec) for eu, ec in exact_dirs
            )
            assert dist < 1e-6 and count == c


def test_unstable_flag_with_short_schedule():
    # a schedule that ends before the parabola pair resolves cannot certify
    cfg = OracleConfig(radii_exponents=(4, 5), stability_window=3)
    rep = oracle_k(parse_poly("y^2 - x^3"), cfg)
    assert len(rep.radii_used) == 2
    assert not rep.stable or counts_of(rep) == (1, 1)


def test_constant_rejected():
    from bsinf.poly import BivarPoly

    with pytest.raises(ValueError):
        oracle_k(BivarPoly.constant(3))


@st.composite
def small_integer_polys(draw):
    """Nonconstant bivariate polynomials of degree <= 8 with small integer
    coefficients."""
    terms = {}
    for _ in range(draw(st.integers(1, 10))):
        i = draw(st.integers(0, 8))
        j = draw(st.integers(0, 8 - i))
        terms[(i, j)] = Fraction(draw(st.integers(-50, 50)))
    poly = BivarPoly(terms)
    return poly if poly.degree > 0 else poly + BivarPoly.x()


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


@settings(max_examples=150, deadline=None)
@given(small_integer_polys(), st.integers(4, 20),
       st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=6))
def test_ev_grid_and_point_agree_within_horner_bound(f, exponent, angles):
    """One Horner code path: an array call and 1-tuple calls at the same float
    cos/sin agree bitwise, within (2d + 2) * 2^-52 * scale(R) of the exact
    value of f(R cos, R sin) / R^d."""
    ev, scale = _scaled_evaluator(f)
    radius = 2.0 ** exponent
    d = f.degree
    cos_t, sin_t = np.cos(np.array(angles)), np.sin(np.array(angles))
    grid = ev(radius, cos_t, sin_t)
    bound = Fraction((2 * d + 2) * 2.0 ** -52 * scale(radius))
    for c, s, g in zip(cos_t.tolist(), sin_t.tolist(), grid.tolist()):
        point = ev(radius, (c,), (s,))
        assert type(point) is float
        assert _bits(point) == _bits(g)
        exact = sum(coef * Fraction(radius) ** (i + j - d) * Fraction(c) ** i * Fraction(s) ** j
                    for (i, j), coef in f.items())
        assert abs(Fraction(point) - exact) <= bound


def _loop_windows(sgn) -> set[tuple[int, int]]:
    """Reference: the per-sample loop the vectorized selection replaced."""
    windows = set()
    m = len(sgn)
    k = 0
    while k < m - 1:
        if sgn[k] == 0:
            k += 1
            continue
        nxt = k + 1
        while nxt < m and sgn[nxt] == 0:
            nxt += 1
        if nxt >= m:
            break
        if nxt > k + 1 or sgn[k] != sgn[nxt]:
            windows.add((k, nxt))
        k = nxt
    return windows


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((-1, 0, 1)), st.integers(1, 6)), max_size=30))
def test_sign_windows_match_loop(runs):
    sgn = np.array([v for v, n in runs for _ in range(n)], dtype=np.int64)
    assert _sign_windows(sgn) == _loop_windows(sgn)
