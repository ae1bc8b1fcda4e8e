from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import heun_monodromy.exactpoly as exactpoly
from heun_monodromy.exactpoly import (
    AT_ONE,
    LAM_PLUS_MUSQ,
    PRIME,
    REFLECT,
    BivariateCoeff,
    LaurentPoly,
    Piece,
    combine,
    product_sum,
)
from heun_monodromy.heunpoly import (
    _times_lam_plus_musq,
    check_ode_system,
    check_parity,
    diagonal,
    first_integral,
)

coeff_st = st.integers(-8, 8)
pow_st = st.integers(0, 3)
zpow_st = st.integers(-3, 4)
# small values collide and cancel; the wide ones go past 64-bit integers
wide_coeff_st = st.one_of(st.integers(-8, 8), st.integers(-(2**100), 2**100))


@st.composite
def laurent(draw, max_terms=5, coeffs=coeff_st, z_pows=zpow_st):
    n = draw(st.integers(0, max_terms))
    poly = LaurentPoly.zero()
    for _ in range(n):
        poly = poly + LaurentPoly.monomial(
            draw(coeffs), z_pow=draw(z_pows), lam_pow=draw(pow_st), mu_pow=draw(pow_st)
        )
    return poly


def reference_product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Schoolbook product over the term dicts, one term pair at a time."""
    out: dict[tuple[int, int, int], int] = {}
    for (z1, a1, b1), v1 in a.terms.items():
        for (z2, a2, b2), v2 in b.terms.items():
            key = (z1 + z2, a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + v1 * v2
    return LaurentPoly(out)


def reference_combine(pieces) -> LaurentPoly:
    """Each piece term by term into nested z -> {(lam, mu): int} dicts."""
    out: dict[int, dict[tuple[int, int], int]] = {}
    for c, x, dz, dlam, dmu, op in pieces:
        for k, biv in x.coeffs.items():
            if op is PRIME:
                k, w = k - 1, c * k
            elif op is REFLECT:
                w = c * (-1) ** (k % 2)
            elif op is AT_ONE:
                k, w = 0, c
            else:
                w = c
            acc = out.setdefault(k + dz, {})
            for (a, b), v in biv.terms.items():
                acc[a + dlam, b + dmu] = acc.get((a + dlam, b + dmu), 0) + w * v
    return LaurentPoly({(k, a, b): v for k, t in out.items() for (a, b), v in t.items()})


def assert_canonical(poly: LaurentPoly):
    assert all(v != 0 for v in poly.terms.values())
    assert all(not c.is_zero() for c in poly.coeffs.values())
    assert all(v != 0 for c in poly.coeffs.values() for v in c.terms.values())


def test_canonical_trim():
    p = LaurentPoly.monomial(1, z_pow=2) - LaurentPoly.monomial(1, z_pow=2)
    assert p.is_zero()
    assert p.coeffs == {}
    assert p.terms == {}


def test_min_max_degree():
    p = LaurentPoly.monomial(1, z_pow=-2) + LaurentPoly.monomial(3, z_pow=5)
    assert p.min_degree == -2
    assert p.max_degree == 5


def test_diff_z_monomial():
    p = LaurentPoly.monomial(1, z_pow=-2)
    assert p.diff_z() == LaurentPoly.monomial(-2, z_pow=-3)


def test_substitute_neg_z():
    p = LaurentPoly.monomial(1, z_pow=3) + LaurentPoly.monomial(2, z_pow=2)
    q = p.substitute_neg_z()
    assert q == LaurentPoly.monomial(-1, z_pow=3) + LaurentPoly.monomial(2, z_pow=2)


def test_canonical_text_order():
    p = (
        LaurentPoly.monomial(-1, z_pow=2, mu_pow=2)
        + LaurentPoly.monomial(1, lam_pow=1)
        + LaurentPoly.monomial(1, mu_pow=2)
    )
    assert p.canonical_text() == "lam + mu^2 - mu^2*z^2"


def test_lam_plus_musq_constant():
    assert LAM_PLUS_MUSQ.evaluate(0.16, 0.3) == pytest.approx(0.25)


@given(laurent(), laurent())
@settings(max_examples=60, deadline=None)
def test_product_rule(a, b):
    lhs = (a * b).diff_z()
    rhs = a.diff_z() * b + a * b.diff_z()
    assert lhs == rhs


@given(laurent())
@settings(max_examples=60, deadline=None)
def test_neg_z_involution(a):
    assert a.substitute_neg_z().substitute_neg_z() == a


@given(laurent(), laurent(), laurent())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(laurent())
@settings(max_examples=40, deadline=None)
def test_exact_vs_float_evaluation(a):
    z, lam, mu = Fraction(3, 2), Fraction(1, 4), Fraction(-2, 3)
    exact = a.evaluate_exact(z, lam, mu)
    approx = a.evaluate(float(z), float(lam), float(mu))
    assert abs(float(exact) - approx) < 1e-9 * max(1.0, abs(float(exact)))


def test_json_obj_is_sorted():
    p = LaurentPoly.monomial(2, z_pow=1) + LaurentPoly.monomial(1, z_pow=-1, lam_pow=1)
    assert p.to_json_obj() == [[-1, 1, 0, 1], [1, 0, 0, 2]]


def test_bivariate_arithmetic():
    a = BivariateCoeff.monomial(2, 1, 0)
    b = BivariateCoeff.monomial(3, 0, 2)
    assert (a * b).terms == {(1, 2): 6}
    assert (a * BivariateCoeff()).is_zero()


wide_laurent = laurent(max_terms=8, coeffs=wide_coeff_st)
wide_bivariate = laurent(max_terms=6, coeffs=wide_coeff_st, z_pows=st.just(0))


@given(wide_laurent, wide_laurent)
@settings(max_examples=150, deadline=None)
def test_product_matches_reference(a, b):
    prod = a * b
    assert prod == reference_product(a, b)
    assert_canonical(prod)


@given(wide_laurent, wide_laurent)
@settings(max_examples=60, deadline=None)
def test_cross_terms_cancel(a, b):
    # (a + b)(a - b): every cross term a*b cancels against b*a
    prod = (a + b) * (a - b)
    assert prod == reference_product(a, a) - reference_product(b, b)
    assert_canonical(prod)


@given(wide_bivariate, wide_bivariate)
@settings(max_examples=100, deadline=None)
def test_bivariate_product_matches_reference(a, b):
    x, y = a.coeffs.get(0, BivariateCoeff()), b.coeffs.get(0, BivariateCoeff())
    prod = x * y
    assert prod == reference_product(a, b).coeffs.get(0, BivariateCoeff())
    assert all(v != 0 for v in prod.terms.values())


def test_empty_and_single_term_operands():
    one_term = LaurentPoly.monomial(-(2**70), z_pow=-2, lam_pow=1)
    poly = one_term + LaurentPoly.monomial(3, z_pow=1, mu_pow=2)
    assert (LaurentPoly.zero() * poly).coeffs == {}
    assert (poly * LaurentPoly.zero()).coeffs == {}
    assert (one_term * one_term) == LaurentPoly.monomial(2**140, z_pow=-4, lam_pow=2)
    assert one_term * poly == reference_product(one_term, poly)
    assert (BivariateCoeff() * LAM_PLUS_MUSQ).terms == {}


def test_sparse_exponents_take_the_compact_path():
    # the dense (z, lam, mu) box of this product has about 1e9 slots
    a = LaurentPoly.monomial(1) + LaurentPoly.monomial(-5, z_pow=1000)
    b = LaurentPoly.monomial(2, lam_pow=1000) + LaurentPoly.monomial(7, z_pow=-3, mu_pow=1000)
    assert a * b == reference_product(a, b)
    assert len((a * b).to_json_obj()) == 4


def test_diagonal_products_match_reference():
    quad = diagonal(16)
    assert quad.p * quad.s == reference_product(quad.p, quad.s)
    assert quad.q * quad.r == reference_product(quad.q, quad.r)


@st.composite
def pieces(draw):
    """Up to five pieces over wide polynomials; in some draws each is also
    subtracted again, so that the sum cancels to exactly zero."""
    out = [
        Piece(
            draw(wide_coeff_st), draw(wide_laurent), draw(st.integers(-3, 3)),
            draw(st.integers(0, 2)), draw(st.integers(0, 2)),
            draw(st.sampled_from([None, PRIME, REFLECT, AT_ONE])),
        )
        for _ in range(draw(st.integers(0, 5)))
    ]
    if draw(st.booleans()):
        out += [p._replace(c=-p.c) for p in out]
    return out


@given(pieces())
@settings(max_examples=200, deadline=None)
def test_combine_matches_nested_reference(ps):
    out = combine(ps)
    assert out == reference_combine(ps)
    assert_canonical(out)


@given(wide_laurent)
@settings(max_examples=60, deadline=None)
def test_lam_plus_musq_combination_is_the_product(a):
    assert combine(_times_lam_plus_musq(1, a)) == a * LaurentPoly.constant(LAM_PLUS_MUSQ)


def test_one_accumulator_matches_two_products():
    quad = diagonal(16)
    p, q, r, s = quad.as_tuple()
    combo = product_sum([(1, p, s), (-1, q, r)])
    assert combo == p * s - q * r
    assert_canonical(combo)


def test_products_stay_in_first_integral(monkeypatch):
    calls = []
    product = exactpoly._product

    def counted(pairs):
        calls.append(1)
        return product(pairs)

    monkeypatch.setattr(exactpoly, "_product", counted)
    for ell in range(1, 7):
        quad = diagonal(ell)
        assert check_parity(quad) == (True, None)
        assert check_ode_system(quad) == (True, None)
    assert calls == []
    first_integral(diagonal(3))
    assert calls  # the counter sees the products it is meant to see
