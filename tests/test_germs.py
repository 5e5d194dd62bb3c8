import functools
import math
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsinf import germs, poly
from bsinf.germs import (
    _certified_bound,
    _restriction,
    _signed_counts,
    circle_sectors,
    count_half_branches,
    factor_half_branches,
)
from bsinf.invariant import (
    KInvariant,
    canonical_descriptor,
    emit_normal_form,
    k_at_infinity,
    realize_tuple,
)
from bsinf.parsing import parse_poly
from bsinf.poly import BivarPoly, _list_mul, irreducible_factors, squarefree_part
from bsinf.projective import (
    ProjPointAtInfinity,
    direction_pair,
    leading_form,
    points_at_infinity,
)
from bsinf.roots import isolate_real_roots

from conftest import (
    affine_image,
    evaluate,
    even_sum_tuples,
    germ_curve,
    random_unimodular,
    trace_direction_counts,
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


def circle_setup(f: BivarPoly):
    """(squarefree part, points at infinity, sectors of the whole curve,
    counted factors)."""
    sf = squarefree_part(f)
    points = points_at_infinity(sf)
    sectors = circle_sectors(sf, points)
    return sf, points, sectors, counted_factors(sf)


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


def traced(f: BivarPoly) -> tuple[float, dict[tuple[int, int], int]]:
    """The largest certified radius of the counted factors of f, and the
    float tracer's counts there, one counted factor at a time."""
    _, points, sectors, counted = circle_setup(f)
    radius = float(max(_certified_bound(u, sectors) for u in counted))
    directions = [d for p in points for d in direction_pair(p)]
    total: dict[tuple[int, int], int] = {}
    for u in counted:
        for rep, n in trace_direction_counts(u, radius, directions).items():
            total[rep] = total.get(rep, 0) + n
    return radius, total


def test_line_radius_capped_at_one():
    # the radius of the small circle at infinity, 1/R, is at most 1
    _, _, sectors, (u,) = circle_setup(parse_poly("y - x - 1"))
    radius = _certified_bound(u, sectors)
    assert radius >= 1 and radius.denominator == 1
    assert radius.numerator & (radius.numerator - 1) == 0  # a power of 2
    assert count_half_branches(u, sectors) == [1, 1]


def test_cusp_radius_below_first_critical_value():
    # on y^2 = (x - 3)^3 the distance to the origin grows along both arcs
    # from the cusp (3, 0), its one critical point; so seen from infinity the
    # first critical value is 1/3, and 1/R must lie below it
    f = parse_poly("y^2 - (x - 3)^3")
    sf, points, sectors, (u,) = circle_setup(f)
    radius = _certified_bound(u, sectors)
    assert radius > 3
    assert _signed_counts(u, Fraction(2), sectors) == [0, 0]  # inside the cusp
    assert half_branch_counts(sf, points) == [(1, 1)]


def test_parabola_germ_radius_and_count():
    f = parse_poly("(y-x)^2 - (y+x)")
    sf, points, sectors, (u,) = circle_setup(f)
    radius = _certified_bound(u, sectors)
    assert sum(_signed_counts(u, radius, sectors)) == 2
    assert half_branch_counts(sf, points) == [(2, 0)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_monomial_family_counts(k):
    for germ, want in family_germs(k):
        sf, points, _, _ = circle_setup(germ_curve(germ))
        assert [p.rep for p in points] == [(0, 1)]
        assert half_branch_counts(sf, points) == [want], str(germ)


def test_no_real_germ_counts_zero():
    f = germ_curve(Z * Z + W ** 4)  # y^2 + x^4: the origin alone
    sf, points, _, _ = circle_setup(f)
    assert half_branch_counts(sf, points) == [(0, 0)]
    assert k_at_infinity(f).bounded
    # (y - x)^2 + 1 has no real point, but its leading form vanishes at
    # [1 : 1]; the line y + x has one branch each way along (1, -1)
    f = parse_poly("((y - x)^2 + 1)*(y + x)")
    sf, points, _, _ = circle_setup(f)
    assert [p.rep for p in points] == [(1, -1), (1, 1)]
    assert half_branch_counts(sf, points) == [(1, 1), (0, 0)]
    assert [rec.point.rep for rec in k_at_infinity(f).records] == [(1, -1)]
    assert k_at_infinity(f).k.entries == (1, 1)


def test_isolated_point_rotation_invariant_factor():
    # x^2 + y^2 and x^2 + y^2 - 1 have definite leading forms: never counted
    line = records_by_direction(parse_poly("y - x"))
    for text in ["(y - x)*(x^2 + y^2)", "(y - x)*(x^2 + y^2 - 1)"]:
        _, _, _, counted = circle_setup(parse_poly(text))
        assert counted == [parse_poly("y - x")]
        assert records_by_direction(parse_poly(text)) == line
    assert k_at_infinity(parse_poly("x^2 + y^2")).bounded


def test_circle_solution_examples():
    for text, radius, want in [("y - x", Fraction(1, 2), 2),
                               ("y^2 + x^4", Fraction(2), 0),
                               ("y - x^3", Fraction(1, 2), 2),
                               ("x*y - 1", Fraction(1), 0),  # inside sqrt(2)
                               ("x*y - 1", Fraction(2), 4),
                               # the circle of radius 2 is a component; 3 is not
                               ("(x^2 + y^2 - 4)*(y - x)", Fraction(3), 2)]:
        sf, _, sectors, _ = circle_setup(parse_poly(text))
        assert sum(_signed_counts(sf, radius, sectors)) == want, text


def test_sectors_hold_one_direction_each():
    # x*y - 1 has all four axis directions, so neither the identity nor a
    # quarter turn puts t = oo off the curve's directions
    for text in ["x*y - 1", "y^2 - x^3", "(y - x - 1)*(y - 2*x)*(y^2 - x^3)",
                 "(x - 3*y)*(2*x + y)*(x^2 - y)"]:
        _, points, sectors, _ = circle_setup(parse_poly(text))
        c, s = sectors.rotation
        assert c * c + s * s == 1
        assert sorted(sectors.labels, key=lambda pl: (pl[0].rep, pl[1])) == \
            sorted(((p, side) for p in points for side in (1, -1)),
                   key=lambda pl: (pl[0].rep, pl[1]))
        assert list(sectors.separators) == sorted(sectors.separators)
    assert circle_setup(parse_poly("x*y - 1"))[2].rotation == (Fraction(3, 5), Fraction(4, 5))


def test_plus_minus_equals_circle_count():
    for f in corpus_curves():
        sf, points, sectors, counted = circle_setup(f)
        for u in counted:
            counts = count_half_branches(u, sectors)
            on_circle = _restriction(u, _certified_bound(u, sectors), sectors.rotation)
            assert sum(counts) == len(isolate_real_roots(on_circle)), str(u)
        total = sum(p + m for p, m in half_branch_counts(sf, points))
        assert total % 2 == 0


def test_radius_stability():
    for f in corpus_curves():
        _, _, sectors, counted = circle_setup(f)
        for u in counted:
            radius = _certified_bound(u, sectors)
            n0 = _signed_counts(u, radius, sectors)
            for r in [radius * 2, radius * 7, radius * Fraction(11, 3)]:
                assert _signed_counts(u, r, sectors) == n0, str(u)


def test_numeric_circle_trace_agrees():
    """Float sign scan of each counted factor on the circle of the certified
    radius finds the same counts per direction (independent of the exact
    machinery)."""
    for f in corpus_curves():
        if k_at_infinity(f).bounded:
            continue
        _, counts = traced(f)
        assert counts == records_by_direction(f), str(f)


def test_random_germ_products_match_numeric_trace(rng):
    """Seeded unimodular images of random products of lines, parabolas and
    the affine curves of the germ families: the certified counter and the
    independent float tracer must agree direction by direction."""
    pool = [parse_poly(t) for t in ["y - x - 1", "y + 2*x - 3", "x + 2",
                                    "(y - x)^2 - (y + x)", "(y - 2*x)^2 + 3*(y + 2*x)",
                                    "y^2 - x^3"]]
    for a in (1, 2, 3):
        for k in (1, 2, 3):
            pool.append(germ_curve(Z - W.scale(a) ** k))
            pool.append(germ_curve(Z + W.scale(a) ** k))
        pool.append(germ_curve(Z * Z - W.scale(a) ** 3))
        pool.append(germ_curve(Z * Z + W.scale(a) ** 3))
    checked = 0
    while checked < 25:
        chosen = rng.sample(pool, rng.randint(1, 3))
        product = chosen[0]
        for u in chosen[1:]:
            product = product * u
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        f = affine_image(product, random_unimodular(rng), shift)
        radius, counts = traced(f)
        if radius > 1e5:  # float tracing is meaningless at huge radii
            continue
        checked += 1
        assert counts == records_by_direction(f), str(f)


def test_trace_counts_a_crossing_on_a_grid_sample():
    # the circle of radius 8 meets the line y = 0 of this curve exactly at
    # the grid sample theta = 0, where the tracer reads g = 0
    f = parse_poly("-4*y^3 - 10*y^2 - x*y - 4*y")
    radius, counts = traced(f)
    assert radius == 8
    assert counts == records_by_direction(f) == {(1, 0): 1, (-1, 0): 3}


def test_sector_labels_follow_direction_angles(rng):
    # p(t) runs counterclockwise from the ray at t = -oo, so the sectors'
    # directions, read in order, have increasing angles from that ray
    for _ in range(30):
        reps = set()
        while len(reps) < rng.randint(1, 5):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            if (a, b) != (0, 0):
                reps.add(ProjPointAtInfinity((a, b)).rep)
        f = BivarPoly.constant(1)
        for a, b in reps:
            f = f * BivarPoly({(1, 0): b, (0, 1): -a})
        points = points_at_infinity(f)
        sectors = circle_sectors(f, points)
        c, s = (float(v) for v in sectors.rotation)
        start = math.atan2(-s, -c)
        angles = []
        for point, side in sectors.labels:
            u, v = point.rep
            angles.append((math.atan2(side * v, side * u) - start) % (2 * math.pi))
        assert angles == sorted(angles) and len(angles) == 2 * len(points)


@pytest.mark.parametrize("m", [Fraction(1, 7), Fraction(-2, 9), Fraction(5, 3)])
def test_counts_do_not_depend_on_rotation(m, monkeypatch):
    # any rotation that keeps t = oo off the curve's directions gives the same
    # records; these ones put the separators at other places
    rotation = ((1 - m * m) / (1 + m * m), 2 * m / (1 + m * m))
    for f in corpus_curves():
        want = records_by_direction(f)
        with monkeypatch.context() as patch:
            patch.setattr(germs, "_rotation", lambda lf: rotation)
            if leading_form(squarefree_part(f)).evaluate(*rotation) == 0:
                continue
            assert records_by_direction(f) == want, str(f)


def test_bounded_factor_meeting_large_circles_is_ignored():
    # the ellipse reaches radius 1000, beyond the line's certified radius
    f = parse_poly("(y - x - 1)*(x^2 + 4*y^2 - 1000000)")
    _, _, sectors, counted = circle_setup(f)
    assert counted == [parse_poly("y - x - 1")]
    assert _certified_bound(counted[0], sectors) < 1000
    assert records_by_direction(f) == {(1, 1): 1, (-1, -1): 1}



def cross_matched_sectors(points, rotation):
    """Reference: the separators and labels of circle_sectors found by
    matching each isolating interval of the product of the Fraction crosses
    to the cross that vanishes at its exact point or changes sign on it, and
    reading the side from the sign of the dot product with (1 - t^2, 2t)."""
    c, s = rotation
    frames = [(c * al + s * be, c * be - s * al) for al, be in (p.rep for p in points)]
    crosses = [[-b, 2 * a, b] for a, b in frames]
    roots = isolate_real_roots(functools.reduce(_list_mul, crosses, [1]))
    labels = []
    for iv in roots:
        lo, hi = iv.low, iv.high
        for point, (a, b), cross in zip(points, frames, crosses):
            if iv.exact_point is not None and evaluate(cross, lo) == 0:
                plus = a * (1 - lo * lo) + 2 * b * lo > 0
            elif iv.exact_point is None and evaluate(cross, lo) * evaluate(cross, hi) < 0:
                # an irrational root r, so b != 0, and there the dot product
                # is 2r(a^2 + b^2)/b: its sign is that of r*b
                positive = lo >= 0 or (hi > 0 and evaluate(cross, 0) * evaluate(cross, hi) < 0)
                plus = positive == (b > 0)
            else:
                continue
            labels.append((point, 1 if plus else -1))
            break
    assert len(labels) == len(roots)
    separators = tuple((a.high + b.low) / 2 for a, b in zip(roots, roots[1:]))
    return separators, tuple(labels)


def pythagorean_rotation(k: int) -> tuple[Fraction, Fraction]:
    """The k-th rotation that germs._rotation tries: m = 0, 1, 1/2, 1/3, ..."""
    m = Fraction(1, k) if k else Fraction(0)
    return (1 - m * m) / (1 + m * m), 2 * m / (1 + m * m)


def assert_sectors_match_cross_matching(f: BivarPoly, points) -> None:
    for k in range(6):
        rotation = pythagorean_rotation(k)
        if leading_form(f).evaluate(*rotation) == 0:
            continue  # t = oo would be a direction of the curve
        with mock.patch.object(germs, "_rotation", lambda lf: rotation):
            sectors = circle_sectors(f, points)
        assert sectors.rotation == rotation
        assert (sectors.separators, sectors.labels) == \
            cross_matched_sectors(points, rotation), (str(f), rotation)


@given(st.sets(st.tuples(st.integers(-9, 9), st.integers(-9, 9))
               .filter(lambda ab: ab != (0, 0))
               .map(lambda ab: ProjPointAtInfinity(ab).rep), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_angle_order_labels_match_cross_matching(reps):
    f = BivarPoly.constant(1)
    for a, b in reps:
        f = f * BivarPoly({(1, 0): b, (0, 1): -a})
    points = points_at_infinity(f)
    assert sorted(p.rep for p in points) == sorted(reps)
    assert_sectors_match_cross_matching(f, points)


def test_angle_order_labels_match_cross_matching_on_corpus():
    for f in corpus_curves():
        sf = squarefree_part(f)
        points = points_at_infinity(sf)
        if points:
            assert_sectors_match_cross_matching(sf, points)


# ---------------------------------------------------------------------------
# the Newton polygon rule, and the circle as its fallback
# ---------------------------------------------------------------------------

def circle_counts_by_point(u: BivarPoly, points, sectors) -> dict:
    """(plus, minus) of the counted factor u at each point, from the
    certified circle."""
    out = {p: [0, 0] for p in points}
    for (point, side), n in zip(sectors.labels, count_half_branches(u, sectors)):
        out[point][0 if side > 0 else 1] += n
    return {p: tuple(c) for p, c in out.items()}


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
    assert germs._newton_counts(u, rep) == want
    clear_factor_caches()
    circles = calls_counted(monkeypatch, "count_half_branches", lambda u, sectors: u)
    assert factor_half_branches(u) == ((ProjPointAtInfinity(rep), *want),)
    assert not circles


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


@given(curves_singular_at_infinity())
@settings(max_examples=80, deadline=None)
def test_rule_agrees_with_the_circle(f):
    _, points, sectors, counted = circle_setup(f)
    for u in counted:
        on_circle = circle_counts_by_point(u, points, sectors)
        for p in points_at_infinity(u):
            by_rule = germs._newton_counts(u, p.rep)
            if by_rule is not None:  # degenerate points are the circle's alone
                assert by_rule == on_circle[p], (str(u), str(p))


# (text, k): the branches y = x^2 +- x^(1/2) and y = x^2 +- x^(3/2), x -> +oo,
# both go up, so k = (2); y^2 = x^3 +- x^(5/2) has two branches going up and
# two going down, so k = (2, 2).  At [0 : 1] each chart has one edge, whose
# phi is a square: (1 - z)^2, (1 - z)^2 and (1 + z)^2.
DEGENERATE = [
    ("(y - x^2)^2 - x", (2,), [(1, 2, [1, -2, 1])]),
    ("(y - x^2)^2 - x^3", (2,), [(1, 2, [1, -2, 1])]),
    ("(y^2 - x^3)^2 - x^5", (2, 2), [(1, 3, [1, 2, 1])]),
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
    directions, with its k: a factor on the circle in curves whose
    separators differ.  Last, the first of them times the circle
    x^2 + y^2 = 16: a bounded factor, never counted, though the degenerate
    factor is counted on circles about the origin."""
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


def test_degenerate_points_take_the_circle(monkeypatch):
    for f, k in fallback_curves():
        clear_factor_caches()
        circles = calls_counted(monkeypatch, "count_half_branches", lambda u, sectors: u)
        assert k_at_infinity(f).k.entries == k, str(f)
        assert sum(circles.values()) >= 1, str(f)
        monkeypatch.undo()


def test_shared_degenerate_factor_takes_the_circle_once(monkeypatch):
    # (y - x^2)^2 - x is degenerate at [0 : 1] (phi = (1 - z)^2); its
    # branches y = x^2 +- x^(1/2) both go up, so it gives (2, 0) there.  Each
    # line adds one branch each way at its own point, so k = (1, 1, 2) twice
    clear_factor_caches()
    circles = calls_counted(monkeypatch, "count_half_branches", lambda u, sectors: u)
    for text in ["((y - x^2)^2 - x)*(y - 2*x)", "((y - x^2)^2 - x)*(y + 3*x)"]:
        assert k_at_infinity(parse_poly(text)).k.entries == (1, 1, 2), text
    assert circles == {parse_poly("(y - x^2)^2 - x"): 1}


def test_criterion_1_curves_never_reach_the_circle(monkeypatch):
    sectors = calls_counted(monkeypatch, "circle_sectors", lambda f, points: f)
    circles = calls_counted(monkeypatch, "count_half_branches", lambda u, sectors: u)
    for t in even_sum_tuples(6, 4):
        eta = KInvariant(t)
        assert k_at_infinity(emit_normal_form(canonical_descriptor(eta))).k == eta
        assert k_at_infinity(realize_tuple(eta)).k == eta
    assert not sectors and not circles


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
    # 2.3 s and 2.2 s on the circle: two resultants, R and a Sturm chain of
    # degree 2d; x^128 - y still spends most of its time in factoring.  The
    # bounded x^200 + y^200 + 1 took 9.5 s when every curve was factored
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


# lines, parabolas and the cusp, and their images under three unimodular
# maps: products of these share factors across curves whose separators, and
# so whose separator-ray clauses and radii R, differ; that is why a factor
# on the circle is certified on the sectors of its own directions
SHARED_POOL = [parse_poly(text) for text in [
    "y - x - 1", "x + 2", "y + 2*x - 3", "(y - x)^2 - (y + x)", "y - x^2", "y^2 - x^3"]]
SHARED_POOL += [affine_image(u, m, shift) for m, shift in [(((1, 1), (0, 1)), (0, -2)),
                                                          (((2, 1), (1, 1)), (1, 0)),
                                                          (((0, 1), (1, 0)), (0, 0))]
                for u in SHARED_POOL]


def product_of(indices: list[int]) -> BivarPoly:
    return functools.reduce(lambda f, i: f * SHARED_POOL[i], indices, BivarPoly.constant(1))


def certificate(f: BivarPoly) -> list[tuple]:
    """R and the sector counts at R of each counted factor of f, on the
    sectors of the whole curve."""
    points = points_at_infinity(f)
    sectors = circle_sectors(f, points)
    per_factor = []
    for u in counted_factors(f):
        radius = _certified_bound(u, sectors)
        per_factor.append((u, radius, _signed_counts(u, radius, sectors)))
    return per_factor


def test_shared_pool_factors_get_radii_that_differ_by_curve():
    radii = {}
    for i, j in [(0, 1), (0, 2), (0, 3), (0, 5), (5, 4), (5, 1)]:
        for u, radius, _ in certificate(product_of([i, j])):
            radii.setdefault(u, set()).add(radius)
    for u in (SHARED_POOL[0], SHARED_POOL[5]):
        assert len(radii[u.normalized_primitive()]) > 1, str(u)


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


def test_transversality_square_of_a_high_degree_curve_is_fast():
    # h = -x - 128*x^127*y: the resultant eliminating x has degree 128 in x,
    # which took about 5 s as a Sylvester determinant
    start = time.perf_counter()
    germs._transversality_square(parse_poly("x^128 - y"))
    assert time.perf_counter() - start < 1


def test_threads_share_cold_caches():
    # the criterion-1 curves meet the rule, the fallback curves also the
    # circle; both fill the one cache of each factor's counts
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
