from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bsinf import factor, poly
from bsinf.errors import BsinfError, ZeroPolynomialError
from bsinf.germs import _restriction, circle_sectors
from bsinf.invariant import k_at_infinity
from bsinf.parsing import parse_poly
from bsinf.poly import (
    BivarPoly,
    _primitive_ints,
    _trim,
    irreducible_factors,
    resultant,
    squarefree_part,
)
from bsinf.projective import points_at_infinity
from bsinf.roots import isolate_real_roots, root_bound

from conftest import evaluate, factor_list_terms, sylvester_resultant

SX, SY = sympy.symbols("x y")


def test_squarefree_repeated_factor():
    assert squarefree_part(parse_poly("(y-x)^2")) == parse_poly("y - x")


def test_squarefree_already_squarefree():
    f = parse_poly("y^2 - x^3")
    # canonical scaling flips the sign so the graded-lex lead is positive
    assert squarefree_part(f) == parse_poly("x^3 - y^2")


def test_squarefree_strips_one_power():
    got = squarefree_part(parse_poly("x^2*(x^2+y^2-1)"))
    assert got == parse_poly("x*(x^2+y^2-1)")


@st.composite
def small_curves(draw):
    choices = ["y - x", "y^2 - x^3", "x^2 + y^2 - 1", "y - x^2", "x*y - 1", "x + y - 2"]
    return parse_poly(draw(st.sampled_from(choices)))


@given(small_curves(), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_squarefree_of_power_equals_squarefree(f, n):
    assert squarefree_part(f ** n) == squarefree_part(f)


@st.composite
def product_pieces(draw):
    """One factor of a product: a line, a conic, a circle x^2 + y^2 - r, a
    reducible expanded piece, a constant, or a product or power of these."""
    small = st.integers(-3, 3)
    kind = draw(st.sampled_from(
        ["line", "conic", "circle", "reducible", "constant", "product", "power"]))
    if kind == "line":
        a, b = draw(small), draw(small)
        return BivarPoly({(1, 0): a, (0, 1): b or 1, (0, 0): draw(small)})
    if kind == "conic":
        return BivarPoly({e: draw(small) for e in [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]}
                         | {(0, 2): draw(st.integers(1, 3)), (0, 0): draw(small)})
    if kind == "circle":
        return BivarPoly({(2, 0): 1, (0, 2): 1, (0, 0): -draw(st.integers(-2, 4))})
    if kind == "reducible":
        # shares the factor x - y with the line x - y and with the product below
        return parse_poly(draw(st.sampled_from(["x - y", "x^2 - y^2", "x^3 - x*y^2"])))
    if kind == "constant":
        return BivarPoly.constant(Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4))))
    if kind == "product":
        return parse_poly("(x - y)*(x^2 - y^2)")
    return parse_poly(draw(st.sampled_from(["x + 2*y - 1", "y - x^2"]))) ** draw(st.integers(2, 3))


@st.composite
def products(draw):
    pieces = draw(st.lists(product_pieces(), min_size=1, max_size=6))
    if all(p.is_constant() for p in pieces):
        pieces.append(BivarPoly.y())
    if draw(st.booleans()):
        pieces.append(draw(st.sampled_from(pieces)))  # a repeated piece
    out = BivarPoly.constant(1)
    for p in pieces:
        out = -(out * p) if draw(st.booleans()) else out * p
    return out


@given(products())
@settings(max_examples=60, deadline=None)
def test_product_path_matches_expanded_path(f):
    plain = BivarPoly(f.terms)  # the same polynomial without its pieces
    assert f._pieces and not plain._pieces
    # the cache keys on terms alone, so each path starts from an empty one
    poly.irreducible_factors.cache_clear()
    factors = irreducible_factors(f)
    poly.irreducible_factors.cache_clear()
    plain_factors = irreducible_factors(plain)
    assert [g.terms for g in factors] == [g.terms for g in plain_factors]
    assert squarefree_part(f).terms == squarefree_part(plain).terms


def records_or_error(f: BivarPoly):
    try:
        return k_at_infinity(f).records
    except (BsinfError, ValueError) as exc:  # e.g. an irrational direction
        return type(exc)


@pytest.mark.parametrize("text", ["(y^2 - x^3)^2*(y - x)", "x^2*(x^2 + y^2 - 1)"])
def test_repeated_factors_count_as_their_squarefree_part(text):
    f = parse_poly(text)
    assert k_at_infinity(f).records == k_at_infinity(squarefree_part(f)).records


@given(f=products())
@settings(max_examples=30, deadline=None)
def test_products_count_as_their_squarefree_part(f):
    assert records_or_error(f) == records_or_error(squarefree_part(f))


def test_pieces_follow_products_only():
    x, y = BivarPoly.x(), BivarPoly.y()
    line = y - x
    assert not line._pieces
    assert not (line * x).scale(2)._pieces
    assert not (line * x + x)._pieces
    g = -(BivarPoly.constant(3) * line * line * x)
    assert set(g._pieces) == {line, x}  # constants dropped, repeats merged
    assert set((g * (x + y))._pieces) == {line, x, x + y}


def test_resultant_examples_match_sylvester_determinant():
    cases = [
        ("y - x^2", "y - 1", "y", [-1, 0, 1]),        # x^2 - 1
        ("y^2 - x^3", "y", "y", [0, 0, 0, -1]),       # -x^3
        ("x^2 + y^2 - 1", "x - y", "x", [-1, 0, 2]),  # 2y^2 - 1
    ]
    for ftext, gtext, var, expect in cases:
        f, g = parse_poly(ftext), parse_poly(gtext)
        got = resultant(f, g, var)
        assert got == expect
        assert got == sylvester_resultant(f, g, var)


def test_resultant_random_against_sylvester(rng):
    for _ in range(15):
        f = BivarPoly({(rng.randint(0, 2), rng.randint(1, 2)): rng.randint(-4, 4)
                       for _ in range(3)} | {(0, rng.randint(1, 2)): 1})
        g = BivarPoly({(rng.randint(0, 2), rng.randint(1, 2)): rng.randint(-4, 4)
                       for _ in range(3)} | {(1, 1): 1})
        if f.deg_in("y") < 1 or g.deg_in("y") < 1:
            continue
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y")


def test_resultant_vanishes_at_shared_roots():
    # both curves contain the parabola y = x^2
    shared = parse_poly("y - x^2")
    f = shared * parse_poly("x + y - 3")
    g = shared * parse_poly("y + 1")
    r = resultant(f, g, "y")
    for x0 in [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)]:
        assert evaluate(r, x0) == 0


def test_resultant_degenerate_inputs():
    # an input c free of the eliminated variable gives c^m, the determinant
    # of the diagonal Sylvester matrix, m the other input's degree
    cases = [
        ("x - 1", "(y - x)^2 + y", "y", [1, -2, 1]),   # (x - 1)^2
        ("(y - x)^2 + y", "x - 1", "y", [1, -2, 1]),
        ("x - 1", "y - x", "y", [-1, 1]),
        ("2*y", "x^3 + y*x - 1", "x", [0, 0, 0, 8]),  # (2y)^3
        ("x - 1", "x + 2", "y", [1]),                 # the empty determinant
    ]
    for ftext, gtext, var, expect in cases:
        f, g = parse_poly(ftext), parse_poly(gtext)
        assert resultant(f, g, var) == expect == sylvester_resultant(f, g, var)
    for f, g in [(BivarPoly.zero(), parse_poly("y - x")), (parse_poly("y - x"), BivarPoly.zero())]:
        with pytest.raises(ZeroPolynomialError):
            resultant(f, g, "y")


def test_resultant_with_tangential_derivative_matches_sylvester():
    # the transversality clause of x^24 - y: h = -x - 24*x^23*y has degree 23
    # in x, and u mod h = -x^2/(24*y) - y degree 2, a drop by 21 in one step
    u = parse_poly("x^24 - y")
    h = BivarPoly.x() * u.partial("y") - BivarPoly.y() * u.partial("x")
    for var in ("x", "y"):
        assert resultant(u, h, var) == sylvester_resultant(u, h, var)


def test_univariate_resultant_signs():
    # res(v - a, v - b) = b - a, for inputs in the eliminated variable v only
    for var in ("x", "y"):
        f = parse_poly(f"{var} - 2")
        g = parse_poly(f"{var} - 5")
        assert resultant(f, g, var) == [-3]
        assert resultant(g, f, var) == [3]


def to_sympy(f: BivarPoly) -> sympy.Poly:
    rep = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.items()}
    return sympy.Poly.from_dict(rep, SX, SY, domain="QQ")


@st.composite
def eliminable_pairs(draw):
    """Two nonzero polynomials of degree 0..3 in y and in x, with small
    rational coefficients, and the variable to eliminate."""
    def one():
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
        terms = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                     coeff, max_size=6))
        terms[(draw(st.integers(0, 3)), draw(st.integers(0, 3)))] = draw(
            coeff.filter(bool))
        return BivarPoly(terms)
    f, g = one(), one()
    var = draw(st.sampled_from(["x", "y"]))
    if var == "x":  # the same shapes with the variables swapped
        f, g = (BivarPoly({(j, i): c for (i, j), c in h.items()}) for h in (f, g))
    return f, g, var


@given(eliminable_pairs())
@settings(max_examples=60, deadline=None)
def test_resultant_matches_sympy_and_sylvester(pair):
    f, g, var = pair
    got = resultant(f, g, var)
    assert got == sylvester_resultant(f, g, var)
    gens = (SX, SY) if var == "x" else (SY, SX)  # sympy eliminates the first
    theirs = to_sympy(f).reorder(*gens).resultant(to_sympy(g).reorder(*gens))
    expected = _trim([Fraction(int(c.p), int(c.q)) for c in reversed(theirs.all_coeffs())])
    # sympy 1.14 answers res(g, f) = (-1)^(mn) res(f, g) when m = deg f is
    # below n = deg g: res(y, y^3 + 1, y) is -1 there, where the Sylvester
    # determinant is 1
    m, n = f.deg_in(var), g.deg_in(var)
    assert got == expected or (m < n and m * n % 2 and got == [-c for c in expected])


@st.composite
def sparse_pairs(draw):
    """Two polynomials of 1-3 integer terms, of degree at most 12 in the
    eliminated variable y and at most 1 in x: their remainder sequences have
    steps where the degree drops by more than one."""
    def one():
        exps = st.tuples(st.integers(0, 1), st.integers(0, 12))
        return BivarPoly(draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool),
                                              min_size=1, max_size=3)))
    return one(), one()


@given(sparse_pairs())
@settings(max_examples=50, deadline=None)
def test_sparse_resultant_matches_sylvester(pair):
    f, g = pair
    assert resultant(f, g, "y") == sylvester_resultant(f, g, "y")


@st.composite
def lines_and_conics(draw):
    small = st.integers(-4, 4)
    degree = draw(st.sampled_from([1, 2]))
    exps = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    f = BivarPoly({e: draw(small) for e in exps})
    return f if f.degree == degree else f + BivarPoly({(0, degree): 1})


def assert_split_matches_factor_list(f: BivarPoly) -> None:
    poly.irreducible_factors.cache_clear()
    expected = factor_list_terms(f)
    assert sorted(sorted(g.terms.items()) for g in irreducible_factors(f)) == expected


@given(lines_and_conics())
@settings(max_examples=100, deadline=None)
def test_line_and_conic_shortcut_matches_factor_list(f):
    if poly._is_line_or_nondegenerate_conic(f):
        _, factors = to_sympy(f).factor_list()
        assert [(p.total_degree(), k) for p, k in factors] == [(f.degree, 1)]
    assert_split_matches_factor_list(f)


@pytest.mark.parametrize("text, shortcut", [
    ("x^2 - y^2", False),      # two lines
    ("x^2", False),            # a double line
    ("x^2 + y^2", False),      # two complex lines, irreducible over Q
    ("x^2 + y^2 + 1", True),   # no real points, irreducible over C
    ("x*y - 1", True),
    ("y - x^2", True),
    ("x*y + x", False),        # x*(y + 1)
])
def test_degenerate_conics(text, shortcut):
    f = parse_poly(text)
    assert poly._is_line_or_nondegenerate_conic(f) == shortcut
    assert_split_matches_factor_list(f)


def test_expanded_input_is_factored_once(monkeypatch):
    calls = []
    bivariate_factors = factor.bivariate_factors

    def counted(f):
        calls.append(f)
        return bivariate_factors(f)

    monkeypatch.setattr(factor, "bivariate_factors", counted)
    poly.irreducible_factors.cache_clear()
    # x*(y^2 - x^3)*(x + y^2 + 1), expanded, with the cusp scaled by -2
    f = parse_poly(str(parse_poly("-2*x*(y^2 - x^3)*(x + y^2 + 1)")))
    assert not f._pieces
    report = k_at_infinity(f)
    assert report.k.entries == (2, 2, 2)
    assert calls == [f]


def test_power_is_repeated_product_without_extra_squares(monkeypatch):
    """b ** n equals n-fold multiplication, and square-and-multiply never
    forms a product of degree above n * deg b (no square after the last bit)."""
    base = parse_poly("x - 2*y + 1")
    original = BivarPoly.__mul__
    for n in range(13):
        expected = BivarPoly.constant(1)
        for _ in range(n):
            expected = original(expected, base)
        degrees = []

        def recording_mul(self, other):
            product = original(self, other)
            degrees.append(product.degree)
            return product

        monkeypatch.setattr(BivarPoly, "__mul__", recording_mul)
        result = base ** n
        monkeypatch.undo()
        assert result == expected
        assert max(degrees, default=0) <= n * base.degree


def test_poly_arithmetic_basics():
    x, y = BivarPoly.x(), BivarPoly.y()
    p = (y - x) ** 2
    assert p.degree == 2
    assert p.evaluate(1, 1) == 0
    assert p.partial("x") == (x - y).scale(2)
    assert (p - p).is_zero()
    assert str(BivarPoly.zero()) == "0"


def all_int(coefficients) -> bool:
    return all(type(c) is int for c in coefficients)


def test_integral_coefficients_are_stored_as_int():
    f = parse_poly("(y - x - 1)*(x^2 - 2*x*y + y^2 - x - y)^3 - 4/2*x + (x + 2*y - 1)^5")
    assert all_int(f.terms.values())
    assert all_int(f.partial("x").terms.values()) and all_int(f.partial("y").terms.values())
    assert all_int(f.subs_value("x", 3)) and all_int(f.subs_value("y", -2))
    g = parse_poly("1/2*x^2 - 3/4*y + 5/6")
    assert all_int(g.normalized_primitive().terms.values())
    assert all_int(_primitive_ints([Fraction(1, 2), Fraction(-3, 4)]))
    assert all_int(parse_poly("1/2*x*2 + y*4/2").terms.values())
    assert all_int(irreducible_factors(parse_poly("x^3 - x*y^2 + 2*x^2 - 2*y^2"))[0].terms.values())
    # the rotation (3/5, 4/5) and the radius 7/3 leave no denominator
    curve = parse_poly("x*y - 1")
    sectors = circle_sectors(curve, points_at_infinity(curve))
    assert sectors.rotation == (Fraction(3, 5), Fraction(4, 5))
    for radius in (8, Fraction(7, 3)):
        on_circle = _restriction(curve, radius, sectors.rotation)
        assert on_circle and all_int(on_circle)


def test_non_integral_coefficients_stay_fractions():
    f = parse_poly("1/2*y^2 - 3/4*x^3")
    assert f.terms == {(0, 2): Fraction(1, 2), (3, 0): Fraction(-3, 4)}
    assert all(type(c) is Fraction for c in f.terms.values())
    assert all(type(c) is Fraction for c in (f * f).terms.values())
    # a univariate value is an int where it is integral
    assert f.subs_value("x", 2) == [-6, 0, Fraction(1, 2)]
    assert [type(c) for c in f.subs_value("x", 2)] == [int, int, Fraction]
    # equality and hashing do not see the type
    assert BivarPoly({(1, 0): 3}) == BivarPoly({(1, 0): Fraction(3)})
    assert hash(BivarPoly({(1, 0): 3})) == hash(BivarPoly({(1, 0): Fraction(3)}))


def test_divisions_are_exact_on_integer_inputs():
    big = 10 ** 20 + 1  # big / 3 as a float is off by 1/3
    bound = root_bound([big, 3])
    assert type(bound) is Fraction and bound == 1 + Fraction(big, 3)
    # beyond the float range a float division would overflow
    huge = 10 ** 400
    assert root_bound([huge, 1]) == huge + 1
    for p, root in (([-big, 3], Fraction(big, 3)), ([-huge, 3], Fraction(huge, 3))):
        [iv] = isolate_real_roots(p)
        assert iv.exact_point == root
        assert all(type(e) is Fraction for e in (iv.low, iv.high, iv.exact_point))
    for iv in isolate_real_roots([-2 * huge, 0, 3]):
        assert type(iv.low) is Fraction and type(iv.high) is Fraction
