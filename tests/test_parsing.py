import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bsinf.errors import DegreeZeroError, ParseError, ZeroPolynomialError
from bsinf.parsing import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_TERMS,
    MAX_TEXT,
    parse_poly,
)
from bsinf.poly import BivarPoly, irreducible_factors

from conftest import reference_parse_poly


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


def _grid_sum() -> str:
    """The sum of the 4096 monomials x^i*y^j, 0 <= i, j < 64."""
    return " + ".join(f"x^{i}*y^{j}" for i in range(64) for j in range(64))


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
    # a sum is bounded by its running total: 4096 distinct terms are accepted
    # in linear time, and the '+' that adds a 4097th is refused
    full = _grid_sum()
    t0 = time.perf_counter()
    assert len(parse_poly(full).terms) == 4096
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ParseError) as exc:
        parse_poly(f"{full} + x^64")
    assert exc.value.offset == len(f"{full} ")
    assert "sum of more than 4096 terms" in str(exc.value)
    # cancelled terms leave the running total
    assert len(parse_poly(f"{full} - x^63*y^63 + x^64").terms) == 4096
    # the bound holds in every parenthesised sum
    with pytest.raises(ParseError) as exc:
        parse_poly(f"y*({full} + x^64)")
    assert exc.value.offset == len(f"y*({full} ")


def test_package_normal_form_of_degree_89_parses_fast():
    from bsinf.invariant import KInvariant, canonical_descriptor, emit_normal_form

    f = emit_normal_form(canonical_descriptor(KInvariant((1, 89))))
    text = str(f)
    assert len(f.terms) == 3105
    t0 = time.perf_counter()
    assert parse_poly(text) == f
    assert time.perf_counter() - t0 < 1.0


def test_text_length_limit():
    # about six times the largest text the CLI prints, normal-form 1,89
    assert MAX_TEXT == 1 << 20
    assert parse_poly(" " * (MAX_TEXT - 1) + "x") == BivarPoly.x()
    # one more character is refused before the text is tokenized
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_poly(" " * MAX_TEXT + "x")
    assert time.perf_counter() - t0 < 0.5
    assert exc.value.offset == MAX_TEXT


@pytest.mark.parametrize("text, offset", [("x^\u00b2", 2), ("\u00b2", 0), ("1/\u00b2", 2),
                                          ("x + \u0663", 4), ("\uff11*x", 0)],
                         ids=["superscript-exponent", "superscript", "superscript-denominator",
                              "arabic-indic", "fullwidth"])
def test_only_ascii_digits_are_literals(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"unexpected character {text[offset]!r} (at offset {offset})"


@pytest.mark.parametrize("text, message", [
    ("x^\u00b2", "unexpected character '\u00b2' (at offset 2)"),
    (_grid_sum() + " + x^64", f"sum of more than 4096 terms (at offset {len(_grid_sum()) + 1})"),
], ids=["non-ascii-digit", "long-sum"])
def test_new_refusals_cli_error_is_one_line(tmp_path, capsys, text, message):
    from bsinf.cli import main

    path = tmp_path / "curve.txt"
    path.write_text(text, encoding="utf-8")
    code = main(["invariant", f"@{path}"])
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out
    assert captured.err.splitlines() == [f"syntax error: {message}"]


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


# ---------------------------------------------------------------------------
# the parser against the reference parser (conftest), which builds a
# polynomial for every token, and against sympy's expansion
# ---------------------------------------------------------------------------

_LEAVES = st.one_of(
    st.sampled_from(["x", "y"]),
    st.sampled_from(["x", "y"]),
    st.integers(0, 12).map(str),
    # one token here, split into three where tokens are dropped or inserted
    st.tuples(st.integers(0, 12), st.integers(1, 6)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
)


def _parens(tokens):
    return ["(", *tokens, ")"]


@st.composite
def _sums(draw, children):
    parts = draw(st.lists(children, min_size=2, max_size=4))
    tokens = parts[0][0]
    for part, _ in parts[1:]:
        tokens = tokens + [draw(st.sampled_from(["+", "-"]))] + part
    return tokens, "sum"


@st.composite
def _products(draw, children):
    parts = draw(st.lists(children, min_size=2, max_size=4))
    tokens = []
    for part, kind in parts:
        if kind == "sum" and draw(st.booleans()):
            part = _parens(part)
        tokens = tokens + (["*"] if tokens else []) + part
    return tokens, "product"


@st.composite
def _powers(draw, children):
    part, kind = draw(children)
    if kind != "atom":  # "x^2^3" is not an expression
        part = _parens(part)
    return part + ["^", str(draw(st.integers(0, 3)))], "power"


@st.composite
def _negations(draw, children):
    part, kind = draw(children)
    if kind in ("sum", "product") and draw(st.booleans()):
        part = _parens(part)
    return ["-", *part], "negation"


_EXPRESSIONS = st.recursive(
    _LEAVES.map(lambda t: ([t], "atom")),
    lambda children: st.one_of(_sums(children), _products(children), _powers(children),
                               _negations(children)),
    max_leaves=12,
)

_INSERTED = ["x", "7", "0", "+", "-", "*", "^", "/", "(", ")", "2/3", "?"]


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ZeroPolynomialError, DegreeZeroError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "offset", None)


def _sympy_terms(tokens):
    """The expansion of the expression by sympy, as a dict of terms."""
    x, y = sympy.symbols("x y")
    text = " ".join(f"({t})" if "/" in t else "**" if t == "^" else t for t in tokens)
    expanded = sympy.Poly(sympy.sympify(text, locals={"x": x, "y": y}), x, y)
    return {e: Fraction(int(c.p), int(c.q)) for e, c in expanded.as_dict().items()}


@given(_EXPRESSIONS, st.data())
@settings(max_examples=150, deadline=None)
def test_parser_matches_reference_parser(expression, data):
    tokens, kind = expression
    text = " ".join(tokens)
    got, want = _outcome(parse_poly, text), _outcome(reference_parse_poly, text)
    assert got == want
    assert all(type(c) is int or c.denominator > 1 for c in getattr(got, "terms", {}).values())
    if isinstance(got, BivarPoly):
        assert got.terms == _sympy_terms(tokens)
        if kind == "product" and got.degree <= 12:
            irreducible_factors.cache_clear()
            factors = irreducible_factors(got)
            irreducible_factors.cache_clear()
            assert factors == irreducible_factors(want)
    # one token dropped or inserted: the same polynomial or the same error
    tokens = [p for t in tokens for p in (t.partition("/") if "/" in t else (t,))]
    k = data.draw(st.integers(0, len(tokens)))
    if data.draw(st.booleans()) and k < len(tokens):
        variant = tokens[:k] + tokens[k + 1:]
    else:
        variant = tokens[:k] + [data.draw(st.sampled_from(_INSERTED))] + tokens[k:]
    text = " ".join(variant)
    assert _outcome(parse_poly, text) == _outcome(reference_parse_poly, text)
