import math
from fractions import Fraction

import pytest

from bsinf.errors import NonTransverseCircleError
from bsinf.germs import (
    _sign_at_root,
    count_circle_solutions,
    count_half_branches,
    critical_radius_bound,
    signed_counts_at,
)
from bsinf.parsing import parse_poly
from bsinf.poly import BivarPoly, UnivarPoly, irreducible_factors
from bsinf.projective import DirectionS1, GermChart, ProjPointAtInfinity, chart_germ, points_at_infinity

from conftest import trace_signed_counts

W = BivarPoly.x()
Z = BivarPoly.y()


def make_chart(germ: BivarPoly) -> GermChart:
    return GermChart(germ=germ, source_point=ProjPointAtInfinity((0, 1)),
                     chart_map=((0, 1, 0), (1, 0, 0)),
                     plus_direction=DirectionS1((0, 1)))


def corpus_germs() -> list[BivarPoly]:
    germs = [
        Z - W, Z - W ** 3, Z * Z - W ** 3, Z * Z - W ** 2 + W ** 4,
        parse_poly("x^2 - 2*y - x*y"),   # w^2 - 2z - wz
        Z * Z + W ** 4,
        (Z - W) * (Z + W) * (Z - W ** 2),
        W * (Z - W ** 2),
        W * W + Z * Z,                   # isolated real point
    ]
    for text in ["y^2 - x^3", "(y-x)^2 - (y+x)", "x^2 - y^2 - y^3",
                 "((y-x) - 1)*((y-x)^2 - (y+x))"]:
        f = parse_poly(text)
        for c in points_at_infinity(f):
            germs.append(chart_germ(f, c).germ)
    return germs


def test_line_radius_capped_at_one():
    cr = critical_radius_bound(make_chart(Z - W))
    assert cr.certified and 0 < cr.bound < 1


def test_cusp_radius_below_first_critical_value():
    # distance^2 along z^2 = w^3 has its positive critical point at w = 2/3,
    # i.e. critical radius sqrt(20/27); the on-axis clause does not bind
    cr = critical_radius_bound(make_chart(Z * Z - W ** 3))
    assert cr.certified
    assert 0 < float(cr.bound) < math.sqrt(20.0 / 27.0)


def test_parabola_germ_radius_and_count():
    chart = make_chart(parse_poly("x^2 - 2*y - x*y"))
    cr = critical_radius_bound(chart)
    assert cr.certified
    assert count_circle_solutions(chart.germ, cr.bound) == 2
    cnt = count_half_branches(chart)
    assert (cnt.plus, cnt.minus) == (2, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_monomial_family_counts(k):
    table = [
        (Z - W ** (2 * k), (2, 0)),
        (Z - W ** (2 * k + 1), (1, 1)),
        (Z * Z - W ** (2 * k + 1), (1, 1)),
        (Z * Z - W ** (2 * k), (2, 2)),
    ]
    for germ, want in table:
        cnt = count_half_branches(make_chart(germ))
        assert (cnt.plus, cnt.minus) == want
        assert cnt.certified


def test_no_real_germ_counts_zero():
    cnt = count_half_branches(make_chart(Z * Z + W ** 4))
    assert (cnt.plus, cnt.minus) == (0, 0) and cnt.certified


def test_isolated_point_rotation_invariant_factor():
    cnt = count_half_branches(make_chart(W * W + Z * Z))
    assert (cnt.plus, cnt.minus) == (0, 0) and cnt.certified


def test_circle_solution_examples():
    assert count_circle_solutions(Z - W, Fraction(1, 2)) == 2
    assert count_circle_solutions(Z * Z + W ** 4, Fraction(1, 2)) == 0
    assert count_circle_solutions(Z - W ** 3, Fraction(1, 2)) == 2


def test_non_transverse_circle_detected():
    circle = W * W + Z * Z - BivarPoly.constant(Fraction(1, 4))
    with pytest.raises(NonTransverseCircleError):
        count_circle_solutions(circle * (Z - W), Fraction(1, 2))
    # a different radius is fine
    assert count_circle_solutions(circle * (Z - W), Fraction(1, 3)) == 2


def test_plus_minus_equals_circle_count():
    for germ in corpus_germs():
        chart = make_chart(germ)
        cnt = count_half_branches(chart)
        assert cnt.plus + cnt.minus == count_circle_solutions(germ, cnt.epsilon_used)
        assert (cnt.plus + cnt.minus) % 2 == 0


def test_radius_stability():
    for germ in corpus_germs():
        cr = critical_radius_bound(make_chart(germ))
        n0 = count_circle_solutions(germ, cr.bound)
        for eps in [cr.bound / 2, cr.bound / 7, cr.bound * Fraction(3, 11)]:
            assert count_circle_solutions(germ, eps) == n0


def test_numeric_circle_trace_agrees():
    """Float sign scan of the germ on the epsilon circle finds the same signed
    counts (independent of the exact machinery)."""
    for germ in corpus_germs():
        cnt = count_half_branches(make_chart(germ))
        assert trace_signed_counts(germ, float(cnt.epsilon_used)) == (cnt.plus, cnt.minus)


def test_random_germ_products_match_numeric_trace(rng):
    """Seeded random products of origin-passing factors: the certified counter
    and the independent float tracer must classify identically."""
    pool = []
    for a in (1, 2, 3):
        for k in (1, 2, 3):
            pool.append(Z - W.scale(a) ** k)
            pool.append(Z + W.scale(a) ** k)
        pool.append(Z * Z - W.scale(a) ** 3)
        pool.append(Z * Z + W.scale(a) ** 3)
    pool.append(W)
    checked = 0
    while checked < 25:
        chosen = rng.sample(pool, rng.randint(1, 3))
        product = chosen[0]
        for u in chosen[1:]:
            product = product * u
        factors = irreducible_factors(product)
        germ = factors[0]
        for u in factors[1:]:
            germ = germ * u  # distinct irreducibles: squarefree by construction
        if germ.subs_value("y", 0).is_zero():
            continue
        cnt = count_half_branches(make_chart(germ))
        assert cnt.certified
        eps = float(cnt.epsilon_used)
        if eps < 1e-5:  # float tracing is meaningless at tiny radii
            continue
        checked += 1
        assert trace_signed_counts(germ, eps) == (cnt.plus, cnt.minus), str(germ)


def test_signed_counts_at_override_radius():
    cnt = signed_counts_at(Z - W ** 3, Fraction(1, 16))
    assert (cnt.plus, cnt.minus) == (1, 1)
    assert not cnt.certified


def test_epsilon_on_axis_point_rejected():
    # {z = w} union {w = 1/2}: the 1/2-circle passes through (1/2, 0)
    germ = (Z - W) * (W - BivarPoly.constant(Fraction(1, 2)))
    with pytest.raises(ValueError):
        signed_counts_at(germ, Fraction(1, 2))


def test_sign_at_root_is_exact():
    # below = floor(sqrt(2) * 2^80) / 2^80 and above = below + 2^-80 bracket
    # sqrt(2); t - below and t - above keep one sign only on intervals around
    # sqrt(2) narrower than about 2^-80
    below = Fraction(math.isqrt(2 << 160), 1 << 80)
    above = below + Fraction(1, 1 << 80)
    c_sf = UnivarPoly([-2, 0, 1])
    assert _sign_at_root(c_sf, Fraction(1), Fraction(2), UnivarPoly([-below, 1])) == 1
    assert _sign_at_root(c_sf, Fraction(1), Fraction(2), UnivarPoly([below, -1])) == -1
    assert _sign_at_root(c_sf, Fraction(1), Fraction(2), UnivarPoly([-above, 1])) == -1
