import itertools

import pytest

from bsinf import poly
from bsinf.errors import NotRealizableError
from bsinf.invariant import (
    KInvariant,
    NormalFormDescriptor,
    canonical_descriptor,
    emit_normal_form,
    equivalent_at_infinity,
    k_at_infinity,
    norm1,
    realize_tuple,
)
from bsinf.parsing import parse_poly
from bsinf.poly import BivarPoly

from conftest import affine_image, even_sum_tuples, random_unimodular


def k_of(text: str) -> tuple[int, ...]:
    return k_at_infinity(parse_poly(text)).k.entries


def test_k_examples():
    assert k_of("y^2 - x^3") == (1, 1)
    assert k_of("(y-x)^2 - (y+x)") == (2,)
    assert k_of("((y-x) - 1)*((y-x)^2 - (y+x))") == (1, 3)
    report = k_at_infinity(parse_poly("x^2 + y^2 - 1"))
    assert report.bounded and report.k.entries == ()


def test_k_directions():
    report = k_at_infinity(parse_poly("y^2 - x^3"))
    assert len(report.records) == 1
    rec = report.records[0]
    assert rec.point.rep == (0, 1)
    assert rec.plus.direction.rep == (0, 1) and rec.plus.count == 1
    assert rec.minus.direction.rep == (0, -1) and rec.minus.count == 1
    assert rec.certified


def test_multiplicity_of_input_is_irrelevant():
    f = parse_poly("y^2 - x^3")
    assert k_at_infinity(f * f).k == k_at_infinity(f).k


def test_equivalence_examples():
    f, g, h = (parse_poly("y^2 - x^3"), parse_poly("y^2 - x^5"),
               parse_poly("(y-x)^2 - (y+x)"))
    assert equivalent_at_infinity(f, g)
    assert not equivalent_at_infinity(f, h)
    assert equivalent_at_infinity(f, f)


def test_equivalence_relation_on_corpus(classic_curves):
    polys = [parse_poly(t) for t in classic_curves.values()]
    ks = [k_at_infinity(p).k for p in polys]
    for i, f in enumerate(polys):
        assert equivalent_at_infinity(f, f)
        for j, g in enumerate(polys):
            assert equivalent_at_infinity(f, g) == equivalent_at_infinity(g, f)
            assert equivalent_at_infinity(f, g) == (ks[i] == ks[j])
    # transitivity over all triples via the tuple characterization
    for a, b, c in itertools.product(range(len(polys)), repeat=3):
        if ks[a] == ks[b] and ks[b] == ks[c]:
            assert ks[a] == ks[c]


def test_descriptor_examples():
    assert canonical_descriptor(KInvariant((1, 1))).pairs == ((1, 0),)
    assert canonical_descriptor(KInvariant((2,))).pairs == ((0, 1),)
    assert canonical_descriptor(KInvariant((1, 1, 3, 3))).pairs == ((1, 0), (3, 0))
    assert canonical_descriptor(KInvariant((1, 3))).pairs == ((1, 1),)
    with pytest.raises(NotRealizableError):
        canonical_descriptor(KInvariant((1,)))


def test_descriptor_flat_counts_and_order():
    for t in even_sum_tuples(6, 4):
        d = canonical_descriptor(KInvariant(t))
        assert d.flat_counts() == t
        assert list(d.pairs) == sorted(d.pairs)
        assert all(p != (0, 0) for p in d.pairs)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        NormalFormDescriptor(((0, 0),))
    with pytest.raises(ValueError):
        NormalFormDescriptor(((2, 0), (1, 0)))


def test_emit_examples():
    assert emit_normal_form(canonical_descriptor(KInvariant((1, 1)))) == parse_poly("y - x - 1")
    assert emit_normal_form(canonical_descriptor(KInvariant((2,)))) == parse_poly("(y - x)^2 - (y + x)")
    both = emit_normal_form(NormalFormDescriptor(((1, 1),)))
    assert both == parse_poly("((y-x) - 1)*((y-x)^2 - (y+x))")


def test_realize_examples():
    assert realize_tuple(KInvariant((1, 1))) == parse_poly("y - x")
    assert realize_tuple(KInvariant((2,))) == parse_poly("(y - x)^2 - (y + x)")
    assert realize_tuple(KInvariant((1, 3))) == parse_poly("(y - x)*((y-x)^2 + (y+x))")
    with pytest.raises(NotRealizableError):
        realize_tuple(KInvariant((1, 1, 1)))


def test_norm1():
    assert norm1(KInvariant((1, 3))) == 4
    assert norm1(KInvariant(())) == 0
    assert norm1(KInvariant((2, 2, 4))) == 8


def test_kinvariant_validation():
    with pytest.raises(ValueError):
        KInvariant((2, 1))
    with pytest.raises(ValueError):
        KInvariant((0, 1))
    assert KInvariant.from_counts([3, 1, 2]).entries == (1, 2, 3)


def test_bounded_representative_round_trip():
    rep = emit_normal_form(NormalFormDescriptor(()))
    assert k_at_infinity(rep).bounded


def test_round_trip_small_tuples():
    for t in even_sum_tuples(4, 3):
        eta = KInvariant(t)
        assert k_at_infinity(emit_normal_form(canonical_descriptor(eta))).k == eta
        assert k_at_infinity(realize_tuple(eta)).k == eta


def test_per_point_parity(classic_curves):
    for text in classic_curves.values():
        for rec in k_at_infinity(parse_poly(text)).records:
            plus = rec.plus.count if rec.plus else 0
            minus = rec.minus.count if rec.minus else 0
            assert (plus + minus) % 2 == 0


def _random_product(rng) -> BivarPoly:
    factors = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            a, b = 0, 0
            while (a, b) == (0, 0):
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            factors.append(BivarPoly({(0, 1): a, (1, 0): b, (0, 0): rng.randint(-3, 3)}))
        elif kind == 1:
            a = rng.randint(1, 3)
            r = rng.choice([-3, -2, -1, 1, 2, 3])
            axis = BivarPoly({(0, 1): 1, (1, 0): -a})
            cross = BivarPoly({(0, 1): 1, (1, 0): a})
            factors.append(axis * axis - cross.scale(r))
        else:
            factors.append(BivarPoly({(2, 0): 1, (0, 2): 1, (0, 0): rng.randint(1, 4)}))
    out = factors[0]
    for g in factors[1:]:
        out = out * g
    return out


def test_even_entry_sum_on_random_products(rng):
    for _ in range(50):
        f = _random_product(rng)
        assert norm1(k_at_infinity(f).k) % 2 == 0


def test_affine_invariance(rng, classic_curves):
    for text in ["y^2 - x^3", "(y-x)^2 - (y+x)", "x^2 + y^2 - 1"]:
        f = parse_poly(text)
        k0 = k_at_infinity(f).k
        for _ in range(4):
            m = random_unimodular(rng)
            t = (rng.randint(-3, 3), rng.randint(-3, 3))
            assert k_at_infinity(affine_image(f, m, t)).k == k0


def test_expanded_text_matches_product_on_criterion_1_sample():
    # criterion 1 builds products, which are factored piece by piece; every
    # 4th tuple also goes through the expanded text, which has no pieces
    for t in even_sum_tuples(6, 4)[::4]:
        eta = KInvariant(t)
        for f in (emit_normal_form(canonical_descriptor(eta)), realize_tuple(eta)):
            expanded = parse_poly(str(f))
            assert f._pieces and not expanded._pieces
            poly.irreducible_factors.cache_clear()  # keyed on terms: keep the paths apart
            via_text = k_at_infinity(expanded)
            poly.irreducible_factors.cache_clear()
            via_product = k_at_infinity(f)
            assert via_text.records == via_product.records, t
            assert via_text.k == eta
