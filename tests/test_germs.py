import functools
import math
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bsinf import germs, poly
from bsinf.germs import factor_half_branches
from bsinf.invariant import (
    KInvariant,
    canonical_descriptor,
    emit_normal_form,
    k_at_infinity,
    realize_tuple,
)
from bsinf.parsing import parse_poly
from bsinf.poly import BivarPoly, irreducible_factors, squarefree_part
from bsinf.oracle import oracle_k
from bsinf.projective import DirectionS1, ProjPointAtInfinity, points_at_infinity

from conftest import (
    affine_image,
    compose,
    even_sum_tuples,
    germ_curve,
    random_unimodular,
)

W = BivarPoly.x()
Z = BivarPoly.y()


def counted_factors(f: BivarPoly) -> list[BivarPoly]:
    """The irreducible factors of f with a point at infinity."""
    return [u for u in irreducible_factors(f) if factor_half_branches(u)]


def half_branch_counts(f: BivarPoly, points) -> list[tuple[int, int]]:
    """(plus, minus) of f at each of the given points, summed over the
    counts of its irreducible factors."""
    counts = {p: [0, 0] for p in points}
    for u in irreducible_factors(f):
        for point, plus, minus in factor_half_branches(u):
            counts[point][0] += plus
            counts[point][1] += minus
    return [tuple(counts[p]) for p in points]


def curve_setup(f: BivarPoly):
    """(squarefree part, points at infinity, counted factors)."""
    sf = squarefree_part(f)
    return sf, points_at_infinity(sf), counted_factors(sf)


def family_germs(k: int) -> list[tuple[BivarPoly, tuple[int, int]]]:
    return [
        (Z - W ** (2 * k), (2, 0)),
        (Z - W ** (2 * k + 1), (1, 1)),
        (Z * Z - W ** (2 * k + 1), (1, 1)),
        (Z * Z - W ** (2 * k), (2, 2)),
    ]


def corpus_curves() -> list[BivarPoly]:
    curves = [germ_curve(g) for g in [
        Z - W, Z - W ** 3, Z * Z - W ** 3, Z * Z - W ** 2 + W ** 4,
        parse_poly("x^2 - 2*y - x*y"),   # w^2 - 2z - wz
        Z * Z + W ** 4,
        (Z - W) * (Z + W) * (Z - W ** 2),
        W * (Z - W ** 2),
    ]]
    curves += [parse_poly(text) for text in [
        "y^2 - x^3", "(y-x)^2 - (y+x)", "x^2 - y^2 - y^3",
        "((y-x) - 1)*((y-x)^2 - (y+x))", "x*y - 1",
        "(y - x - 1)*(y - 2*x)*(y^2 - x^3)",
    ]]
    return curves


def records_by_direction(f: BivarPoly) -> dict[tuple[int, int], int]:
    out = {}
    for rec in k_at_infinity(f).records:
        for side in (rec.plus, rec.minus):
            if side is not None:
                out[side.direction.rep] = side.count
    return out


def test_line_radius_capped_at_one():
    # the chart of y - x - 1 at [1 : 1] is F = 2w - s.  F(0, w) = 2w and
    # D = res_w(2w - s, 2) = 2 have no nonzero root, so r = 1, the cap;
    # F(s, +-1) = +-2 - s has the root +-2, and Cauchy's bound 3/2 of its
    # reverse, so s1 = 1/2
    (u,) = curve_setup(parse_poly("y - x - 1"))[2]
    assert germs._segment(u, (1, 1)) == (parse_poly("2*y - x"), 1, Fraction(1, 2))
    assert germs._local_counts(u, (1, 1)) == (1, 1)


def test_parabola_germ_radius_and_count():
    # the chart of (y - x)^2 - (y + x) at [1 : 1] is F = 4w^2 - 2s, so r = 1
    # and s1 = 1/2 as for the line; F(1/2, w) = 4w^2 - 1 has the roots
    # +-1/2 and F(-1/2, w) = 4w^2 + 1 none
    f = parse_poly("(y-x)^2 - (y+x)")
    sf, points, (u,) = curve_setup(f)
    assert germs._segment(u, (1, 1)) == (parse_poly("4*y^2 - 2*x"), 1, Fraction(1, 2))
    assert germs._local_counts(u, (1, 1)) == (2, 0)
    assert half_branch_counts(sf, points) == [(2, 0)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_monomial_family_counts(k):
    for germ, want in family_germs(k):
        sf, points, _ = curve_setup(germ_curve(germ))
        assert [p.rep for p in points] == [(0, 1)]
        assert half_branch_counts(sf, points) == [want], str(germ)


def test_no_real_germ_counts_zero():
    f = germ_curve(Z * Z + W ** 4)  # y^2 + x^4: the origin alone
    sf, points, _ = curve_setup(f)
    assert half_branch_counts(sf, points) == [(0, 0)]
    assert k_at_infinity(f).bounded
    # (y - x)^2 + 1 has no real point, but its leading form vanishes at
    # [1 : 1]; the line y + x has one branch each way along (1, -1)
    f = parse_poly("((y - x)^2 + 1)*(y + x)")
    sf, points, _ = curve_setup(f)
    assert [p.rep for p in points] == [(1, -1), (1, 1)]
    assert half_branch_counts(sf, points) == [(1, 1), (0, 0)]
    assert [rec.point.rep for rec in k_at_infinity(f).records] == [(1, -1)]
    assert k_at_infinity(f).k.entries == (1, 1)


def test_isolated_point_rotation_invariant_factor():
    # x^2 + y^2 and x^2 + y^2 - 1 have definite leading forms: never counted
    line = records_by_direction(parse_poly("y - x"))
    for text in ["(y - x)*(x^2 + y^2)", "(y - x)*(x^2 + y^2 - 1)"]:
        counted = curve_setup(parse_poly(text))[2]
        assert counted == [parse_poly("y - x")]
        assert records_by_direction(parse_poly(text)) == line
    assert k_at_infinity(parse_poly("x^2 + y^2")).bounded


def test_radius_stability():
    # the real roots of the chart in (-r, r) are as many at every s in
    # (0, s1] as at s1, and at every s in [-s1, 0) as at -s1
    for f in corpus_curves():
        for u in curve_setup(f)[2]:
            for p in points_at_infinity(u):
                chart, r, s1 = germs._segment(u, p.rep)
                for s in (s1, -s1):
                    n0 = germs._roots_on_segment(chart, r, s)
                    for scale in (Fraction(1, 2), Fraction(1, 7), Fraction(3, 11)):
                        assert germs._roots_on_segment(chart, r, s * scale) == n0, str(u)


def test_random_germ_products_match_numeric_trace(rng):
    """Seeded random germ products: the certified counts and those of the
    independent float oracle, which traces the curve's points on circles of
    growing radius, each given to the nearest certified direction, agree
    direction by direction."""
    for f in random_germ_products(rng, 25):
        exact = records_by_direction(f)
        traced: Counter = Counter()
        for unit, n in oracle_k(f).directions:
            traced[min(exact, key=lambda rep: math.dist(unit, DirectionS1(rep).unit))] += n
        assert traced == exact, str(f)


@pytest.mark.parametrize("m", [Fraction(1, 7), Fraction(-2, 9), Fraction(5, 3)])
def test_counts_do_not_depend_on_rotation(m):
    # the rational rotation R by (c, s) = (1 - m^2, 2m)/(1 + m^2) moves each
    # branch with its direction: f(R^-1(x, y)) has at the direction R(d) the
    # count that f has at d.  With m = p/q, (q^2 + p^2)*R is in integers
    p, q = m.numerator, m.denominator
    c, s = q * q - p * p, 2 * p * q
    scale = Fraction(1, q * q + p * p)
    for f in corpus_curves():
        rotated = compose(f, (W.scale(c) + Z.scale(s)).scale(scale),
                          (Z.scale(c) - W.scale(s)).scale(scale))
        want = {DirectionS1((c * a - s * b, s * a + c * b)).rep: n
                for (a, b), n in records_by_direction(f).items()}
        assert records_by_direction(rotated) == want, str(f)


def test_bounded_factor_meeting_large_circles_is_ignored():
    # the ellipse reaches radius 1000, far beyond the line's points
    f = parse_poly("(y - x - 1)*(x^2 + 4*y^2 - 1000000)")
    assert curve_setup(f)[2] == [parse_poly("y - x - 1")]
    assert records_by_direction(f) == {(1, 1): 1, (-1, -1): 1}


# ---------------------------------------------------------------------------
# the Newton polygon rule, and the segment where it does not decide
# ---------------------------------------------------------------------------


# (text, point, the edges (P, Q, phi) of its chart there, (plus, minus)),
# worked out by hand
RULE_TABLE = [
    # m = 1: smooth and transverse to the line at infinity, no chart
    ("y - x - 1", (1, 1), None, (1, 1)),
    # x = (1 - w)/s, y = (1 + w)/s: F = 4w^2 - 2s.  phi = -2 + 4z has the
    # positive root 1/2 and Q = 2: both half-branches on the plus side
    ("(y - x)^2 - (y + x)", (1, 1), [(1, 2, [-2, 4])], (2, 0)),
    # x = -w/s, y = 1/s: F = w^5 + s^3.  phi = 1 + z has the real root -1
    # and Q = 5 is odd: one half-branch on each side
    ("y^2 - x^5", (0, 1), [(3, 5, [1, 1])], (1, 1)),
    # F = w^128 - s^127.  phi = -1 + z has the positive root 1 and Q = 128
    ("x^128 - y", (0, 1), [(127, 128, [-1, 1])], (2, 0)),
]


@pytest.mark.parametrize("text, rep, edges, want", RULE_TABLE)
def test_rule_on_hand_checked_charts(text, rep, edges, want, monkeypatch):
    f = parse_poly(text)
    if edges is not None:
        assert germs._newton_edges(germs._chart_rows(f, *rep)) == edges
    (u,) = irreducible_factors(f)
    assert germs._newton_counts(u, rep) == germs._local_counts(u, rep) == want
    clear_factor_caches()
    local = calls_counted(monkeypatch, "_local_counts", lambda u, rep: (u, rep))
    assert factor_half_branches(u) == ((ProjPointAtInfinity(rep), *want),)
    assert not local


@st.composite
def curves_singular_at_infinity(draw) -> BivarPoly:
    """A product of powers of rational linear forms, of degree at most 5,
    plus random terms of lower degree, or a unimodular affine image of one:
    points at infinity of every multiplicity up to 5."""
    powers = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                     st.integers(1, 3)).filter(lambda t: t[:2] != (0, 0)),
                           min_size=1, max_size=2).filter(lambda ps: sum(e for *_, e in ps) <= 5))
    f = BivarPoly.constant(1)
    for a, b, e in powers:
        f = f * BivarPoly({(1, 0): b, (0, 1): -a}) ** e
    d = f.degree
    lower = draw(st.dictionaries(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
                                 .filter(lambda ij: sum(ij) < d),
                                 st.integers(-4, 4), max_size=6))
    f = f + BivarPoly(lower)
    m = draw(st.sampled_from([((1, 0), (0, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1)),
                              ((0, 1), (1, 0)), ((1, -2), (1, -1))]))
    shift = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    return affine_image(f, m, shift)


def assert_rule_agrees_with_the_local_count(f: BivarPoly) -> None:
    """The rule and the segment agree at every point of every factor of f
    where the rule decides; the segment decides everywhere."""
    for u in irreducible_factors(f):
        for p in points_at_infinity(u):
            by_rule = germs._newton_counts(u, p.rep)
            if by_rule is not None:
                assert by_rule == germs._local_counts(u, p.rep), (str(u), str(p))


@given(curves_singular_at_infinity())
@settings(max_examples=80, deadline=None)
def test_rule_agrees_with_the_local_count(f):
    assert_rule_agrees_with_the_local_count(f)


def random_germ_products(rng, n: int) -> list[BivarPoly]:
    """Seeded unimodular images of random products of lines, parabolas and
    the affine curves of the germ families."""
    pool = [parse_poly(t) for t in ["y - x - 1", "y + 2*x - 3", "x + 2",
                                    "(y - x)^2 - (y + x)", "(y - 2*x)^2 + 3*(y + 2*x)",
                                    "y^2 - x^3"]]
    for a in (1, 2, 3):
        for k in (1, 2, 3):
            pool.append(germ_curve(Z - W.scale(a) ** k))
            pool.append(germ_curve(Z + W.scale(a) ** k))
        pool.append(germ_curve(Z * Z - W.scale(a) ** 3))
        pool.append(germ_curve(Z * Z + W.scale(a) ** 3))
    out = []
    for _ in range(n):
        product = functools.reduce(BivarPoly.__mul__, rng.sample(pool, rng.randint(1, 3)))
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        out.append(affine_image(product, random_unimodular(rng), shift))
    return out


def test_rule_agrees_with_the_local_count_on_corpus(rng):
    criterion_1 = [curve for t in even_sum_tuples(6, 4)
                   for curve in (emit_normal_form(canonical_descriptor(KInvariant(t))),
                                 realize_tuple(KInvariant(t)))]
    factors = {u for f in criterion_1 for u in irreducible_factors(f)}
    for f in corpus_curves() + sorted(factors, key=str) + random_germ_products(rng, 25):
        assert_rule_agrees_with_the_local_count(f)


# (text, k, edges at [0 : 1]), each worked out by hand.
# - y = x^2 +- x^(1/2) and y = x^2 +- x^(3/2), x -> +oo, both go up, so
#   k = (2); y^2 = x^3 +- x^(5/2) has two branches going up and two going
#   down, so k = (2, 2).  Each chart has one edge, whose phi is a square:
#   (1 - z)^2, (1 - z)^2 and (1 + z)^2.
# - (x^4 - 2y^2)^2 - x^7: F = w^8 + s*w^7 - 4s^2*w^4 + 4s^4.  (0, 8), (2, 4)
#   and (4, 0) lie on one edge and (1, 7) above it, so P = 1, Q = 2 and
#   phi = 4 - 4z^2 + z^4 = (z^2 - 2)^2, a repeated irrational root.  Its
#   branches are y = +-((x^4 -+ x^(7/2))/2)^(1/2), x -> +oo: two go up and
#   two down, so k = (2, 2).
# - (y^3 - x^4)^4 - x^15: F = (s - w^4)^4 + s*w^15.  (0, 16), (1, 12),
#   (2, 8), (3, 4) and (4, 0) lie on one edge and (1, 15) above it, so
#   P = 1, Q = 4 and phi = (1 - z)^4.  y^3 = x^4 +- x^(15/4) is real only
#   for x >= 0, and both branches go up, so k = (2).
DEGENERATE = [
    ("(y - x^2)^2 - x", (2,), [(1, 2, [1, -2, 1])]),
    ("(y - x^2)^2 - x^3", (2,), [(1, 2, [1, -2, 1])]),
    ("(y^2 - x^3)^2 - x^5", (2, 2), [(1, 3, [1, 2, 1])]),
    ("(x^4 - 2*y^2)^2 - x^7", (2, 2), [(1, 2, [4, 0, -4, 0, 1])]),
    ("(y^3 - x^4)^4 - x^15", (2,), [(1, 4, [1, -4, 6, -4, 1])]),
]


def degenerate_curves() -> list[tuple[BivarPoly, tuple[int, ...]]]:
    """Each degenerate curve and one unimodular image of it, with its k."""
    out = []
    for text, k, _ in DEGENERATE:
        f = parse_poly(text)
        out += [(f, k), (affine_image(f, ((2, 1), (1, 1)), (1, -1)), k)]
    return out


def fallback_curves() -> list[tuple[BivarPoly, tuple[int, ...]]]:
    """Each degenerate curve, alone and times one or two lines of other
    directions, with its k.  Last, the first of them times the circle
    x^2 + y^2 = 16: a bounded factor, never counted."""
    lines = [parse_poly(text) for text in ["y - x - 1", "y + x + 3", "y - 3*x"]]
    out = []
    for f, k in degenerate_curves():
        out += [(f, k), (f * lines[0], tuple(sorted(k + (1, 1)))),
                (f * lines[1] * lines[2], tuple(sorted(k + (1, 1, 1, 1))))]
    out.append((parse_poly("(x^2 + y^2 - 16)*((y - x^2)^2 - x)"), (2,)))
    return out


@pytest.mark.parametrize("text, k, edges", DEGENERATE)
def test_degenerate_edges_are_found(text, k, edges):
    f = parse_poly(text)
    assert germs._newton_edges(germs._chart_rows(f, 0, 1)) == edges
    (u,) = irreducible_factors(f)
    assert germs._newton_counts(u, (0, 1)) is None


def test_degenerate_points_take_the_local_count(monkeypatch):
    for f, k in fallback_curves():
        clear_factor_caches()
        local = calls_counted(monkeypatch, "_local_counts", lambda u, rep: (u, rep))
        assert k_at_infinity(f).k.entries == k, str(f)
        assert sum(local.values()) >= 1, str(f)
        monkeypatch.undo()


def test_local_counts_match_sympy_count_roots():
    # sympy's count of the real roots of F(s1, w) and F(-s1, w) in [-r, r]
    # (neither end is a root) at each degenerate point
    w = sympy.Symbol("w")
    checked = 0
    for f, _ in degenerate_curves():
        for u in irreducible_factors(f):
            for p in points_at_infinity(u):
                if germs._newton_counts(u, p.rep) is not None:
                    continue
                chart, r, s1 = germs._segment(u, p.rep)
                want = []
                for s in (s1, -s1):
                    coeffs = chart.subs_value("x", s)
                    row = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                      for c in reversed(coeffs)], w)
                    want.append(row.count_roots(sympy.Rational(-r), sympy.Rational(r)))
                got = [germs._roots_on_segment(chart, r, s) for s in (s1, -s1)]
                assert got == want, (str(u), str(p))
                checked += 1
    assert checked == len(degenerate_curves())


def test_shared_degenerate_factor_takes_the_local_count_once(monkeypatch):
    # (y - x^2)^2 - x is degenerate at [0 : 1] (phi = (1 - z)^2); its
    # branches y = x^2 +- x^(1/2) both go up, so it gives (2, 0) there.  Each
    # line adds one branch each way at its own point, so k = (1, 1, 2) twice
    clear_factor_caches()
    local = calls_counted(monkeypatch, "_local_counts", lambda u, rep: (u, rep))
    for text in ["((y - x^2)^2 - x)*(y - 2*x)", "((y - x^2)^2 - x)*(y + 3*x)"]:
        assert k_at_infinity(parse_poly(text)).k.entries == (1, 1, 2), text
    assert local == {(parse_poly("(y - x^2)^2 - x"), (0, 1)): 1}


def test_criterion_1_curves_never_take_the_local_count(monkeypatch):
    local = calls_counted(monkeypatch, "_local_counts", lambda u, rep: (u, rep))
    for t in even_sum_tuples(6, 4):
        eta = KInvariant(t)
        assert k_at_infinity(emit_normal_form(canonical_descriptor(eta))).k == eta
        assert k_at_infinity(realize_tuple(eta)).k == eta
    assert not local


def generic_curve(half: int) -> BivarPoly:
    """The product of y - s*x over s = +-1..+-half, plus x^3*y^2 - 7*x*y + 5:
    2*half simple points at infinity, so k = (1, ..., 1) with 4*half
    entries by the smooth case, whatever the lower terms."""
    slopes = [*range(half, 0, -1), *range(-1, -half - 1, -1)]
    return parse_poly("*".join(f"(y - {s}*x)" for s in slopes) + " + x^3*y^2 - 7*x*y + 5")


@pytest.mark.parametrize("f, k", [(generic_curve(7), (1,) * 28),
                                  (parse_poly("x^128 - y"), (2,)),
                                  (parse_poly("x^200 + y^200 + 1"), ())],
                         ids=["generic degree 14", "x^128 - y", "x^200 + y^200 + 1"])
def test_curves_that_took_seconds_on_the_circle_are_fast(f, k):
    # 2.3 s and 2.2 s when every curve was counted on a circle of certified
    # radius: two resultants and a Sturm chain of degree 2d.  x^128 - y still
    # spends most of its time in factoring.  The bounded x^200 + y^200 + 1
    # took 9.5 s when every curve was factored
    clear_factor_caches()
    poly.irreducible_factors.cache_clear()
    start = time.perf_counter()
    assert k_at_infinity(f).k.entries == k
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# the per-process cache of each factor's counts
# ---------------------------------------------------------------------------

def clear_factor_caches() -> None:
    germs.factor_half_branches.cache_clear()


CRITERION_1 = [(1, 1), (1, 3), (2, 2), (3, 3), (1, 1, 2, 2), (2, 4), (1, 1, 1, 1), (1, 2, 3)]


def criterion_1_curves() -> list[BivarPoly]:
    """The normal form and the realization of each tuple, interleaved."""
    return [curve for t in CRITERION_1
            for curve in (emit_normal_form(canonical_descriptor(KInvariant(t))),
                          realize_tuple(KInvariant(t)))]


def calls_counted(monkeypatch, name: str, key) -> Counter:
    calls: Counter = Counter()
    original = getattr(germs, name)

    def counted(*args):
        calls[key(*args)] += 1
        return original(*args)

    monkeypatch.setattr(germs, name, counted)
    return calls


def test_local_count_of_a_high_degree_chart_is_fast():
    # the chart of x^128 - y at [0 : 1] is w^128 - s^127: D = res_w(F, dF/dw)
    # eliminates w of degree 128, which took about 5 s as a Sylvester
    # determinant.  Its branch y = x^128 goes up both ways: (2, 0)
    start = time.perf_counter()
    assert germs._local_counts(parse_poly("x^128 - y"), (0, 1)) == (2, 0)
    assert time.perf_counter() - start < 1


def test_threads_share_cold_caches():
    # the criterion-1 curves meet the rule, the fallback curves also the
    # segment; both fill the one cache of each factor's counts
    curves = criterion_1_curves() + [f for f, _ in fallback_curves()]
    clear_factor_caches()
    sequential = [k_at_infinity(f).records for f in curves]
    clear_factor_caches()
    poly.irreducible_factors.cache_clear()
    results: list = [None] * len(curves)
    start = threading.Barrier(4)

    def count(first: int) -> None:
        start.wait(timeout=60)
        for i in range(first, len(curves), 4):
            try:
                results[i] = k_at_infinity(curves[i]).records
            except Exception as exc:  # reported by the comparison below
                results[i] = exc

    threads = [threading.Thread(target=count, args=(first,)) for first in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside cache lookups too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == sequential
