"""The package's factoring (`bsinf.factor`) against sympy's `factor_list`,
the reference."""

import json
import math
import os
import random
import subprocess
import sys
import time

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsinf import factor, poly
from bsinf.parsing import parse_poly
from bsinf.poly import BivarPoly

from conftest import affine_image, factor_list_terms, random_unimodular


def split(f: BivarPoly) -> list:
    return sorted(sorted(g.terms.items()) for g in factor.bivariate_factors(f))


def expanded(text: str) -> BivarPoly:
    """The polynomial of the text without the pieces of its products."""
    return BivarPoly(parse_poly(text).terms)


@st.composite
def small_factors(draw):
    """A line, conic or cubic with small integer coefficients."""
    degree = draw(st.integers(1, 3))
    exps = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    terms = {e: draw(st.integers(-3, 3)) for e in exps}
    i = draw(st.integers(0, degree))
    terms[(i, degree - i)] = draw(st.sampled_from([-2, -1, 1, 3]))
    return BivarPoly(terms)


@st.composite
def expanded_products(draw):
    """An expanded product of 1 to 4 small factors, one of them possibly
    repeated, under a unimodular map and a translation."""
    factors = draw(st.lists(small_factors(), min_size=1, max_size=4))
    if draw(st.booleans()):
        factors.append(draw(st.sampled_from(factors)))
    f = BivarPoly.constant(draw(st.sampled_from([1, -2, 6])))
    for g in factors:
        f = f * g
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    shift = (rng.randint(-3, 3), rng.randint(-3, 3))
    image = affine_image(f, random_unimodular(rng), shift)
    return BivarPoly(image.terms)


@given(expanded_products())
@settings(max_examples=60, deadline=None)
def test_expanded_products_match_factor_list(f):
    assert not f._pieces
    assert split(f) == factor_list_terms(f)


@pytest.mark.parametrize("text", [
    # recombination: x^2 - y splits at every y = a^2; the quartic is
    # irreducible over Q but splits modulo every prime
    "x^2 - y", "x^4 - 10*x^2*y^2 + y^4",
    # the shear: no x^deg term, or none at all
    "x*y - 1", "y^2 - 2", "x^2 - 2", "x^2*y + y - 1", "y - 2", "x*y",
    # repeated factors
    "x^2 - 2*x*y + y^2", "(y^2 - x^3)^2*(y - x)", "x^2*(x^2 + y^2 - 1)",
    "(y - x^2)^3*(x - y^2)^2",
    # rational coefficients and a constant content
    "1/2*x^2 - 3/4*y^2 + 5/6*x", "6*x^2 - 6*y", "-4*(y^2 - x^3)*(x*y + 2)",
    # every factor through the origin, so f(x, 0) is not squarefree
    "(y - x^2)*(y - 2*x^2)*(x - y^2)*(x + y)",
    "(y - x^2)^2*(y - 2*x^2)*(x - y^2)",
    # the first factor found is the complement of a subset of high degree,
    # once irreducible and once a product of two conics that split at y = 0
    "(x^5 + y^5 - x + 3)*(x^2 - y - 1)",
    "(x^5 + y^5 - x + 3)*(x^2 - y - 1)*(x^2 - 2*y - 4)",
    # squarefree, but f(x, 0) and f(x, 1) each have one double root, and
    # the line through the two is a factor of f: the gcd is 1, not that line
    "(x - y)*(x + y)*(x + 2*y - 3)",
    # irreducible over Q, not over C
    "x^2 + y^2", "x^4 + y^4 + 1",
    pytest.param("*".join(f"({k % 5 - 2}*x + {k // 5 + 1}*y + {k - 6})" for k in range(12)),
                 id="12 lines"),
    # coefficients up to 10^25 in size and x-leads up to 10^12
    "(999999999989*x^2 + 10^25*x*y - 3*10^24*y^2 + 7)"
    "*(x - 123456789012345678901234*y + 10^25)",
    "(10^12*x + 9876543210987654321098765*y - 1)*(x^2 - 10^25*y^2 + 2*x*y)"
    "*(7*x^3 + 10^20*x*y^2 - 5*y^3 + 10^22)",
    "(x^2 - 10^24*y - 4*10^24)*(x^2 - 3*10^22*y - 9*10^22)",
    "(10^12*x^3 + 10^25*y^3 - x)*(5*x^3 - 10^25*x*y + 10^25*y^2 + x)",
    # small, but its factor A + y, for A = x^13 - 2*x^12 + ... - 1 the product
    # of the cyclotomic factors 1, 4, 8 and 14 of x^56 - 1, has a coefficient
    # 7 while the curve's norm is below 6: the bound needs its factor 2^(d + e)
    pytest.param("(x + 1)*(x^6 + x^5 + x^4 + x^3 + x^2 + x + 1)"
                 "*(x^12 - x^10 + x^8 - x^6 + x^4 - x^2 + 1)"
                 "*(x^24 - x^20 + x^16 - x^12 + x^8 - x^4 + 1)"
                 "*((x - 1)*(x^2 + 1)*(x^4 + 1)*(x^6 - x^5 + x^4 - x^3 + x^2 - x + 1) + y)",
                 id="factor above the norm"),
    # the specialisations split into many factors: x^24 - 1 into eight
    # cyclotomic ones over Z, and those further modulo p
    "x^24 - y", "x^36 - y^2 - 1", "(x^24 - y)*(y - 2*x - 1)",
    # free of y: the factors modulo p are lifted in powers of p alone and
    # recombined as one-row polynomials; the quartic is irreducible over Q
    # but splits modulo every prime
    "x^4 - 10*x^2 + 1", "x^12 - 1",
])
def test_named_curves_match_factor_list(text):
    f = expanded(text)
    assert split(f) == factor_list_terms(f)


@st.composite
def large_factors(draw):
    """A line, conic or cubic with coefficients up to 10^25 in size and an
    x-lead up to 10^12."""
    degree = draw(st.integers(1, 3))
    big = st.integers(-10 ** 25, 10 ** 25)
    terms = {(i, j): draw(big) for i in range(degree + 1) for j in range(degree + 1 - i)}
    terms[(degree, 0)] = draw(st.integers(1, 10 ** 12)) * draw(st.sampled_from([-1, 1]))
    return BivarPoly(terms)


@given(st.lists(large_factors(), min_size=2, max_size=3))
@settings(max_examples=30, deadline=None)
def test_large_coefficients_match_factor_list(factors):
    # a candidate factor has coefficients near 10^37 here, far beyond a
    # machine word, so a modulus below the coefficient bound reads them wrong
    f = BivarPoly(math.prod(factors, start=BivarPoly.constant(1)).terms)
    assert split(f) == factor_list_terms(f)


@pytest.mark.parametrize("text", ["x^48 - y", "x^60 - y^2 - 1"])
def test_irreducible_curve_with_split_specialisation_is_fast(text):
    # the curves at y = 1 and y = 0, x^48 - 1 and x^60 - 1, have 10 and 12
    # factors over Z, and 20 and 21 modulo p.  Zassenhaus over Z comes
    # first, and only its factors are lifted in powers of y; lifting the
    # factors modulo p in powers of y directly makes the recombination take
    # minutes here (ROADMAP.md, "Measured and rejected")
    f = expanded(text)
    start = time.perf_counter()
    assert factor.bivariate_factors(f) == {f.normalized_primitive()}
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("text", [
    "x - 1", "y - 2*x + 3", "x^2 - y", "x*y - 1", "x^2 + y^2 - 1", "x^2 + y^2 + 1",
    "x^2 - y^2", "x*y + x",
])
def test_lines_and_conics_directly(text):
    # irreducible_factors answers these by their shape without calling
    # bivariate_factors
    f = expanded(text)
    assert split(f) == factor_list_terms(f)


def test_constants_have_no_factors():
    assert factor.bivariate_factors(BivarPoly.constant(3)) == set()


@st.composite
def univariate_inputs(draw):
    """A primitive, squarefree integer polynomial of positive degree with a
    positive lead: the squarefree part of a product of small factors."""
    x = sympy.Symbol("x")
    p = sympy.Integer(1)
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=5))
        if coeffs[0] == 0:
            coeffs[0] = 1
        p *= sympy.Poly(coeffs, x).as_expr()
    sqf = sympy.Poly(p, x).sqf_part()
    _, prim = sqf.primitive()
    if prim.LC() < 0:
        prim = -prim
    return [int(c) for c in reversed(prim.all_coeffs())]


def reference_zx(u: list[int]) -> list:
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(u)), x).factor_list()
    out = []
    for p, _ in factors:
        c = [int(a) for a in reversed(p.all_coeffs())]
        out.append(c if c[-1] > 0 else [-a for a in c])
    return sorted(out)


@given(univariate_inputs())
@settings(max_examples=80, deadline=None)
def test_zassenhaus_matches_factor_list(u):
    assert sorted(factor.zassenhaus(u)) == reference_zx(u)


@st.composite
def large_univariate_inputs(draw):
    """The primitive, squarefree part with a positive lead of a product of 2
    or 3 factors of degree 1 to 3 with coefficients up to 10^25 in size and
    leads up to 10^12."""
    x = sympy.Symbol("x")
    p = sympy.Integer(1)
    for _ in range(draw(st.integers(2, 3))):
        coeffs = draw(st.lists(st.integers(-10 ** 25, 10 ** 25), min_size=1, max_size=3))
        lead = draw(st.integers(1, 10 ** 12)) * draw(st.sampled_from([-1, 1]))
        p *= sympy.Poly([lead] + coeffs, x).as_expr()
    _, prim = sympy.Poly(p, x).sqf_part().primitive()
    if prim.LC() < 0:
        prim = -prim
    return [int(c) for c in reversed(prim.all_coeffs())]


@given(large_univariate_inputs())
@settings(max_examples=30, deadline=None)
def test_zassenhaus_large_coefficients_match_factor_list(u):
    # the modulus exceeds twice Mahler's bound for degree 0 in y, and
    # candidates, up to the lead of u times a factor, are far beyond a
    # machine word
    assert sorted(factor.zassenhaus(u)) == reference_zx(u)


@pytest.mark.parametrize("u", [
    [1, 0, -10, 0, 1],                            # x^4 - 10x^2 + 1: splits mod every p
    [-2, 0, 1],                                   # x^2 - 2
    [6, -5, 1],                                   # (x - 2)(x - 3)
    [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],     # x^12 - 1: six cyclotomic factors
    [2, 3, 12],                                   # no root, lead not 1
])
def test_zassenhaus_named(u):
    assert sorted(factor.zassenhaus(u)) == reference_zx(u)


@st.composite
def products_with_a_shared_factor(draw):
    """Two products in Z[x] of small factors, often with negative leads, that
    share one or two factors, times contents of either sign, as coefficient
    lists: the pseudo-remainders of their gcd divide by negative leads."""
    x = sympy.Symbol("x")

    def product(n):
        p = sympy.Poly(draw(st.sampled_from([-4, -1, 1, 3])), x)
        for _ in range(n):
            lead = draw(st.sampled_from([-3, -2, -1, 1, 2]))
            p *= sympy.Poly([lead] + draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3)), x)
        return p

    shared = product(draw(st.integers(1, 2)))
    a = shared * product(draw(st.integers(0, 2)))
    b = shared * product(draw(st.integers(0, 2)))
    return [[int(c) for c in reversed(p.all_coeffs())] for p in (a, b)]


@given(products_with_a_shared_factor())
@example([[1, -1], [-1, 0, 1]])  # 1 - x and x^2 - 1: the remainder vanishes at once
@settings(max_examples=100, deadline=None)
def test_zx_gcd_matches_sympy(pair):
    a, b = pair
    x = sympy.Symbol("x")
    pa, pb = (sympy.Poly(list(reversed(p)), x) for p in (a, b))
    _, g = sympy.gcd(pa, pb).primitive()
    expected = [int(c) for c in reversed(g.all_coeffs())]
    if expected[-1] < 0:
        expected = [-c for c in expected]
    assert factor._zx_gcd(a, b) == expected


CURVE = "(y^2 - x^3 - 1)*(x^2*y - y^3 + 2)*(x^4 - 10*x^2*y^2 + y^4 + x)"


def test_factoring_is_the_same_in_every_process():
    """The factoring draws from a generator of its own: the process-wide
    one neither changes the result nor is advanced by it, and the result
    does not depend on the hash seed."""
    f = expanded(CURVE)
    results = set()
    for seed in (1, 2, 3):
        random.seed(seed)
        state = random.getstate()
        poly.irreducible_factors.cache_clear()
        results.add(poly.irreducible_factors(f))
        assert random.getstate() == state
    assert len(results) == 1
    [tuple_] = results
    assert len(tuple_) == 3
    code = f"""if True:
        import json
        from bsinf.parsing import parse_poly
        from bsinf.poly import BivarPoly, irreducible_factors
        f = BivarPoly(parse_poly({CURVE!r}).terms)
        print(json.dumps([str(g) for g in irreducible_factors(f)]))
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {json.dumps([str(g) for g in tuple_]) + "\n"}
