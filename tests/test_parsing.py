import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsinf.errors import DegreeZeroError, ParseError, ZeroPolynomialError
from bsinf.parsing import MAX_COEFF_BITS, MAX_DEGREE, MAX_NESTING, MAX_TERMS, parse_poly
from bsinf.poly import BivarPoly


def test_direct_term_mapping():
    p = parse_poly("y^2 - x^3")
    assert p.terms == {(0, 2): Fraction(1), (3, 0): Fraction(-1)}


def test_binomial_expansion():
    p = parse_poly("(y-x)^2 - (y+x)")
    assert p.terms == {
        (2, 0): Fraction(1),
        (1, 1): Fraction(-2),
        (0, 2): Fraction(1),
        (1, 0): Fraction(-1),
        (0, 1): Fraction(-1),
    }


def test_malformed_tail_offset():
    with pytest.raises(ParseError) as exc:
        parse_poly("x + ")
    assert exc.value.offset == 4


def test_zero_and_constant_rejected():
    with pytest.raises(ZeroPolynomialError):
        parse_poly("x - x")
    with pytest.raises(DegreeZeroError):
        parse_poly("3 + 4")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x")
    with pytest.raises(ParseError):
        parse_poly("x y")


def test_rational_coefficients():
    p = parse_poly("1/2*x + 3*y")
    assert p.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(3)}
    with pytest.raises(ParseError):
        parse_poly("1/0*x")


def test_unary_minus_and_nesting():
    assert parse_poly("-(x - y)") == parse_poly("y - x")
    assert parse_poly("-x^2 + y") == parse_poly("y - x^2")  # '^' binds before '-'
    assert parse_poly("(-x)^2 + y") == parse_poly("x^2 + y")


def test_single_exponent_per_factor():
    with pytest.raises(ParseError):
        parse_poly("x^2^3")
    with pytest.raises(ParseError):
        parse_poly("x^(2)")


def test_print_then_parse_is_identity_on_examples():
    for text in ["y^2 - x^3", "(y-x)^2 - (y+x)", "x*y - 1/3", "-x^4 + 2*x*y^3 - y"]:
        p = parse_poly(text)
        assert parse_poly(str(p)) == p


DEEP_PARENS = "(" * 3000 + "x - y" + ")" * 3000
DEEP_MINUS = "-" * 3000 + "x"


@pytest.mark.parametrize("text", [DEEP_PARENS, DEEP_MINUS], ids=["parens", "minus"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert exc.value.offset == MAX_NESTING


@pytest.mark.parametrize("text", [DEEP_PARENS, DEEP_MINUS], ids=["parens", "minus"])
def test_deep_nesting_cli_error_is_one_line(tmp_path, capsys, text):
    from bsinf.cli import main

    path = tmp_path / "curve.txt"
    path.write_text(text)
    code = main(["invariant", f"@{path}"])
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert "nesting" in captured.err


def test_nesting_up_to_the_limit_is_accepted():
    inner = "(" * MAX_NESTING + "x - y" + ")" * MAX_NESTING
    assert parse_poly(inner) == parse_poly("x - y")
    assert parse_poly("-" * MAX_NESTING + "x") == parse_poly("x")


@pytest.mark.parametrize("text", ["x^100000000", "2^100000000", "x^" + "9" * 10000,
                                  f"(x + y)^{MAX_DEGREE + 1}"],
                         ids=["x", "constant", "long-literal", "binomial"])
def test_huge_power_fails_fast(text):
    t0 = time.perf_counter()
    with pytest.raises(ParseError):
        parse_poly(text)
    assert time.perf_counter() - t0 < 1.0


def test_degree_limit_on_products_and_powers():
    assert parse_poly(f"x^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_poly(f"x^{MAX_DEGREE // 2}*y^{MAX_DEGREE // 2}").degree == MAX_DEGREE
    with pytest.raises(ParseError) as exc:
        parse_poly(f"x^{MAX_DEGREE}*y")
    assert exc.value.offset == len(f"x^{MAX_DEGREE}")
    with pytest.raises(ParseError):
        parse_poly(f"(x^2)^{MAX_DEGREE // 2 + 1}")


HUGE_COEFFICIENT = "((2^512)^512)^512*x"


@pytest.mark.parametrize("text", [HUGE_COEFFICIENT, "(((2^512)^512)^512)^512*x"],
                         ids=["three-levels", "four-levels"])
def test_huge_coefficient_fails_fast(text):
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert time.perf_counter() - t0 < 1.0
    assert "bits" in str(exc.value)


def test_coefficient_limit_boundary():
    # 2^127 has 128 bits and 128 * 512 == MAX_COEFF_BITS; 2^128 has 129
    assert 128 * MAX_DEGREE == MAX_COEFF_BITS
    big = parse_poly(f"(2^127)^{MAX_DEGREE}*x")
    assert big.terms == {(1, 0): Fraction(2 ** (127 * MAX_DEGREE))}
    with pytest.raises(ParseError) as exc:
        parse_poly(f"(2^128)^{MAX_DEGREE}*x")
    assert exc.value.offset == len("(2^128)^")


def test_huge_coefficient_cli_error_is_one_line(capsys):
    from bsinf.cli import main

    code = main(["invariant", HUGE_COEFFICIENT])
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert "bits" in captured.err


@pytest.mark.parametrize("n", [128, 256, 512])
def test_dense_power_fails_fast(capsys, n):
    from bsinf.cli import main

    text = f"(x + y + 1)^{n}"
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.offset == len("(x + y + 1)^")
    t0 = time.perf_counter()
    code = main(["invariant", text])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert "terms" in captured.err


def _sum_text(var: str, count: int) -> str:
    return " + ".join(f"{var}^{k}" for k in range(1, count + 1))


def test_term_limit_boundary():
    assert MAX_TERMS == 4096
    # (x + y + 1)^64 has C(66, 2) = 2145 terms and stays accepted
    assert len(parse_poly("(x + y + 1)^64").terms) == 2145
    # a square of t terms is bounded by C(t + 1, 2): 4095 for t = 90, 4186 for 91
    assert parse_poly(f"({_sum_text('x', 90)})^2").degree == 180
    with pytest.raises(ParseError) as exc:
        parse_poly(f"({_sum_text('x', 91)})^2")
    assert "terms" in str(exc.value)
    # a product of 64 by 64 terms has 4096, of 64 by 65 terms 4160
    a, b = _sum_text("x", 64), _sum_text("y", 64)
    assert len(parse_poly(f"({a})*({b})").terms) == 4096
    with pytest.raises(ParseError) as exc:
        parse_poly(f"({a})*({b} + 1)")
    assert exc.value.offset == len(f"({a})")


@st.composite
def random_polys(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    terms = {}
    for _ in range(n):
        e = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        if c:
            terms[e] = c
    poly = BivarPoly(terms)
    if poly.is_zero() or poly.is_constant():
        terms[(1, 1)] = Fraction(1)
        poly = BivarPoly(terms)
    return poly


@given(random_polys())
@settings(max_examples=60, deadline=None)
def test_parse_print_roundtrip(poly):
    assert parse_poly(str(poly)) == poly
