import pytest

from bsinf.errors import IrrationalDirectionError
from bsinf.invariant import k_at_infinity
from bsinf.parsing import parse_poly
from bsinf.poly import squarefree_part
from bsinf.projective import (
    ProjPointAtInfinity,
    direction_pair,
    has_points_at_infinity,
    leading_form,
    points_at_infinity,
)

from conftest import affine_image, random_unimodular


def test_leading_form_examples():
    assert leading_form(parse_poly("y^2 - x^3")) == parse_poly("-x^3")
    assert leading_form(parse_poly("x^2 - y^2 - y^3")) == parse_poly("-y^3")
    assert leading_form(parse_poly("x^2 + y^2 - 1")) == parse_poly("x^2 + y^2")


def test_points_at_infinity_examples():
    assert [p.rep for p in points_at_infinity(parse_poly("y^2 - x^3"))] == [(0, 1)]
    assert points_at_infinity(parse_poly("x^2 + y^2 - 1")) == []
    assert [p.rep for p in points_at_infinity(parse_poly("y^2 - x^2"))] == [(1, -1), (1, 1)]


@pytest.mark.parametrize("text, has_points", [
    ("x*y - 1", True),                   # no y^2 term: [0 : 1]
    ("x^3 + y^2", True),                 # odd degree
    ("y^2 - x^2", True),                 # t^2 - 1 < 0 at t = 0
    ("(y - 2*x)^2 + 1", True),           # (t - 2)^2 > 0 at 0, 1, -1: Sturm
    ("y^2 - 2*x^2", True),               # irrational roots, counted not isolated
    ("x^2 + y^2 - 1", False),            # 1 + t^2 > 0 at 0, 1, -1: Sturm
    ("x^4 + y^4 + x*y", False),
    ("x^200 + y^200 + 1", False),
])
def test_has_points_at_infinity(text, has_points):
    f = parse_poly(text)
    assert has_points_at_infinity(f) == has_points
    if text != "y^2 - 2*x^2":
        assert bool(points_at_infinity(f)) == has_points


def test_points_sorted_and_bounded_by_degree(rng):
    for _ in range(10):
        factors = [parse_poly(f"y - {rng.randint(-3, 3)}*x - {rng.randint(0, 2)}")
                   for _ in range(rng.randint(1, 4))]
        f = factors[0]
        for g in factors[1:]:
            f = f * g
        f = squarefree_part(f)
        pts = points_at_infinity(f)
        assert len(pts) <= f.degree
        assert pts == sorted(pts, key=lambda p: p.rep)
        lf = leading_form(f)
        for c in pts:
            assert lf.evaluate(c.rep[0], c.rep[1]) == 0


def test_irrational_direction_rejected():
    with pytest.raises(IrrationalDirectionError):
        points_at_infinity(parse_poly("y^2 - 2*x^2"))


def test_direction_pair():
    p, m = direction_pair(ProjPointAtInfinity((0, 1)))
    assert (p.rep, m.rep) == ((0, 1), (0, -1))
    p, m = direction_pair(ProjPointAtInfinity((1, -1)))
    assert (p.rep, m.rep) == ((1, -1), (-1, 1))
    p, m = direction_pair(ProjPointAtInfinity((2, 4)))  # normalized at construction
    assert (p.rep, m.rep) == ((1, 2), (-1, -2))


def test_normalization_unique():
    assert ProjPointAtInfinity((2, 4)).rep == (1, 2)
    assert ProjPointAtInfinity((-1, -2)).rep == (1, 2)
    assert ProjPointAtInfinity((0, -3)).rep == (0, 1)
    with pytest.raises(ValueError):
        ProjPointAtInfinity((0, 0))


def _sides(f):
    return {side.direction.rep: side.count for rec in k_at_infinity(f).records
            for side in (rec.plus, rec.minus) if side is not None}


def test_chart_convention_under_unimodular_change(rng):
    """Transforming the curve by a unimodular map M carries its directions
    through M^-1; each record's plus side is the direction of its point's
    normalized representative, so plus and minus follow the transformed
    directions and swap exactly when normalization flips the image."""
    for text in ["y^2 - x^3", "((y-x) - 1)*((y-x)^2 - (y+x))"]:
        f = squarefree_part(parse_poly(text))
        sides = _sides(f)
        for _ in range(4):
            m = random_unimodular(rng)
            g = squarefree_part(affine_image(f, m, (0, 0)))
            # the curve {f(Mv) = 0} is M^-1 X, so directions map through M^-1
            (a, b), (cc, dd) = m
            det = a * dd - b * cc
            want = {(det * (dd * u - b * v), det * (-cc * u + a * v)): n
                    for (u, v), n in sides.items()}
            assert _sides(g) == want
            for rec in k_at_infinity(g).records:
                assert rec.plus is None or rec.plus.direction.rep == rec.point.rep
                assert rec.minus is None or rec.minus.direction.rep == \
                    (-rec.point.rep[0], -rec.point.rep[1])
