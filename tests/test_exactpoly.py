from __future__ import annotations

import ast
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heun_monodromy.cli as cli
import heun_monodromy.exactpoly as exactpoly
import heun_monodromy.heunpoly as heunpoly
from heun_monodromy.exactpoly import (
    AT_ONE,
    LAM_PLUS_MUSQ,
    PRIME,
    REFLECT,
    LaurentPoly,
    Piece,
    combine_rows,
    times,
)
from heun_monodromy.errors import ExponentOutOfRange, LimbOverflow
from heun_monodromy.heunpoly import check_parity, diagonal, first_integral
from heun_monodromy.jsonio import canonical_json
from heun_monodromy.verify import check_poly_exact

coeff_st = st.integers(-8, 8)
pow_st = st.integers(0, 3)
zpow_st = st.integers(-3, 4)
# small values collide and cancel; the wide ones go past 64-bit integers
wide_coeff_st = st.one_of(st.integers(-8, 8), st.integers(-(2**100), 2**100))


def combine(pieces) -> LaurentPoly:
    """Exact sum of the pieces: one row of ``combine_rows``."""
    return combine_rows([pieces])[0]


def plus(*polys: LaurentPoly) -> LaurentPoly:
    """The exact sum of the polynomials."""
    return combine([Piece(1, p) for p in polys])


def minus(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a - b, exactly."""
    return combine([Piece(1, a), Piece(-1, b)])


@st.composite
def laurent(draw, max_terms=5, coeffs=coeff_st, z_pows=zpow_st):
    n = draw(st.integers(0, max_terms))
    poly = LaurentPoly()
    for _ in range(n):
        poly = plus(poly, LaurentPoly.monomial(
            draw(coeffs), z_pow=draw(z_pows), lam_pow=draw(pow_st), mu_pow=draw(pow_st)
        ))
    return poly


def reference_product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Schoolbook product over the term dicts, one term pair at a time."""
    out: dict[tuple[int, int, int], int] = {}
    for (z1, a1, b1), v1 in a.terms.items():
        for (z2, a2, b2), v2 in b.terms.items():
            key = (z1 + z2, a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + v1 * v2
    return LaurentPoly(out)


def substitute_neg_z(poly: LaurentPoly) -> LaurentPoly:
    """z -> -z."""
    return combine([Piece(1, poly, op=REFLECT)])


def evaluate_bivariate(coeff: LaurentPoly, lam, mu):
    """Numeric (or Fraction) value at the point (lam, mu) of ``coeff``, a
    polynomial in (lam, mu) whose terms all have z-power 0."""
    return sum(c * lam**a * mu**b for (_, a, b), c in coeff.terms.items())


def evaluate(poly: LaurentPoly, z, lam, mu):
    """Numeric value of ``poly``; z may be complex or a numpy array."""
    return sum(evaluate_bivariate(c, lam, mu) * z**k for k, c in poly.coeffs.items())


def evaluate_exact(poly: LaurentPoly, z: Fraction, lam: Fraction, mu: Fraction) -> Fraction:
    return sum((v * lam**a * mu**b * z**k for (k, a, b), v in poly.terms.items()), Fraction(0))


def bivariate(poly: LaurentPoly) -> LaurentPoly:
    """The z**0 coefficient of ``poly``."""
    return poly.coeffs.get(0, LaurentPoly())


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
            for (_, a, b), v in biv.terms.items():
                acc[a + dlam, b + dmu] = acc.get((a + dlam, b + dmu), 0) + w * v
    return LaurentPoly({(k, a, b): v for k, t in out.items() for (a, b), v in t.items()})


def assert_canonical(poly: LaurentPoly):
    assert all(v != 0 for v in poly.terms.values())
    assert all(not c.is_zero() for c in poly.coeffs.values())
    assert all(v != 0 for c in poly.coeffs.values() for v in c.terms.values())


def test_canonical_trim():
    p = minus(LaurentPoly.monomial(1, z_pow=2), LaurentPoly.monomial(1, z_pow=2))
    assert p.is_zero()
    assert p.coeffs == {}
    assert p.terms == {}


def test_min_max_degree():
    p = plus(LaurentPoly.monomial(1, z_pow=-2), LaurentPoly.monomial(3, z_pow=5))
    assert p.min_degree == -2
    assert p.max_degree == 5


def test_diff_z_monomial():
    p = LaurentPoly.monomial(1, z_pow=-2)
    assert combine([Piece(1, p, op=PRIME)]) == LaurentPoly.monomial(-2, z_pow=-3)


def test_substitute_neg_z():
    p = plus(LaurentPoly.monomial(1, z_pow=3), LaurentPoly.monomial(2, z_pow=2))
    q = substitute_neg_z(p)
    assert q == plus(LaurentPoly.monomial(-1, z_pow=3), LaurentPoly.monomial(2, z_pow=2))


def test_canonical_text_order():
    p = plus(
        LaurentPoly.monomial(-1, z_pow=2, mu_pow=2),
        LaurentPoly.monomial(1, lam_pow=1),
        LaurentPoly.monomial(1, mu_pow=2),
    )
    assert p.canonical_text() == "lam + mu^2 - mu^2*z^2"


def test_lam_plus_musq_constant():
    assert evaluate_bivariate(LAM_PLUS_MUSQ, 0.16, 0.3) == pytest.approx(0.25)


@given(laurent(), laurent())
@settings(max_examples=60, deadline=None)
def test_product_rule(a, b):
    def prime(x):
        return combine([Piece(1, x, op=PRIME)])

    lhs = prime(reference_product(a, b))
    rhs = plus(reference_product(prime(a), b), reference_product(a, prime(b)))
    assert lhs == rhs


@given(laurent())
@settings(max_examples=60, deadline=None)
def test_neg_z_involution(a):
    assert substitute_neg_z(substitute_neg_z(a)) == a


@given(laurent(), laurent(), laurent())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert plus(a, b) == plus(b, a)
    assert reference_product(a, b) == reference_product(b, a)
    assert reference_product(a, plus(b, c)) == plus(reference_product(a, b),
                                                    reference_product(a, c))


@given(laurent())
@settings(max_examples=40, deadline=None)
def test_exact_vs_float_evaluation(a):
    z, lam, mu = Fraction(3, 2), Fraction(1, 4), Fraction(-2, 3)
    exact = evaluate_exact(a, z, lam, mu)
    approx = evaluate(a, float(z), float(lam), float(mu))
    assert abs(float(exact) - approx) < 1e-9 * max(1.0, abs(float(exact)))


def test_json_text_is_sorted():
    p = plus(LaurentPoly.monomial(2, z_pow=1), LaurentPoly.monomial(1, z_pow=-1, lam_pow=1))
    assert p.json_text() == "[[-1, 1, 0, 1], [1, 0, 0, 2]]"
    assert LaurentPoly().json_text() == "[]"


def reference_monomial_text(coeff: int, lam_pow: int, mu_pow: int, z_pow: int) -> str:
    """Sign and magnitude text of one monomial, as in ``- 3*lam*z^2``: the
    term-at-a-time rule that ``canonical_text`` renders from its tables."""
    factors = []
    mag = abs(coeff)
    for name, p in (("lam", lam_pow), ("mu", mu_pow), ("z", z_pow)):
        if p == 1:
            factors.append(name)
        elif p != 0:
            factors.append(f"{name}^{p}")
    if mag != 1 or not factors:
        factors.insert(0, str(mag))
    return ("- " if coeff < 0 else "+ ") + "*".join(factors)


def reference_text(poly: LaurentPoly) -> str:
    if poly.is_zero():
        return "0"
    text = " ".join(reference_monomial_text(c, a, b, z) for (z, a, b), c in poly.terms.items())
    return text[2:] if text[0] == "+" else "-" + text[2:]


# units next to everything else, and coefficients past 2**100
render_coeff_st = st.one_of(st.sampled_from([1, -1]), wide_coeff_st)


@st.composite
def rendered(draw):
    """A polynomial for the renderers: negative and unit powers of every
    variable, sometimes a bare constant, sometimes no terms at all."""
    exps = st.tuples(st.integers(-3, 3), st.integers(-2, 3), st.integers(-2, 3))
    terms = draw(st.dictionaries(exps, render_coeff_st, max_size=8))
    if draw(st.booleans()):
        terms[0, 0, 0] = draw(render_coeff_st)
    return LaurentPoly(terms)


@given(rendered())
@settings(max_examples=200, deadline=None)
def test_renderers_match_the_term_rules(poly):
    assert poly.canonical_text() == reference_text(poly)
    rows = [[z, a, b, c] for (z, a, b), c in poly.terms.items()]
    assert poly.json_text() == json.dumps(rows) == canonical_json(rows)
    assert json.loads(poly.json_text()) == rows


def test_renderers_on_units_and_constants():
    p = LaurentPoly({(0, 0, 0): -1, (-1, 0, 1): 1, (2, 1, 0): -1, (0, 2, 0): 2**101})
    assert p.canonical_text() == f"mu*z^-1 + {2**101}*lam^2 - 1 - lam*z^2"
    assert p.json_text() == f"[[-1, 0, 1, 1], [0, 2, 0, {2**101}], [0, 0, 0, -1], [2, 1, 0, -1]]"
    assert LaurentPoly.monomial(-1).canonical_text() == "-1"
    assert LaurentPoly().canonical_text() == "0"


def test_bivariate_arithmetic():
    a = LaurentPoly.monomial(2, lam_pow=1)
    b = LaurentPoly.monomial(3, mu_pow=2)
    assert combine(times(1, a, b)).terms == {(0, 1, 2): 6}
    assert combine(times(1, a, LaurentPoly())).is_zero()


wide_laurent = laurent(max_terms=8, coeffs=wide_coeff_st)
wide_bivariate = laurent(max_terms=6, coeffs=wide_coeff_st, z_pows=st.just(0))


@given(wide_bivariate, wide_bivariate)
@settings(max_examples=60, deadline=None)
def test_cross_terms_cancel(a, b):
    # (x + y)(x - y) in one accumulator: every cross term x*y cancels against y*x
    x, y = bivariate(a), bivariate(b)
    prod = combine(times(1, x, x) + times(-1, x, y) + times(1, y, x) + times(-1, y, y))
    assert prod == minus(reference_product(a, a), reference_product(b, b))
    assert_canonical(prod)


@given(wide_bivariate, wide_laurent, wide_coeff_st, st.integers(-3, 3), st.integers(0, 2),
       st.sampled_from([None, PRIME, REFLECT, AT_ONE]))
@settings(max_examples=100, deadline=None)
def test_bivariate_product_matches_reference(y, x, c, dz, dmu, op):
    # the pieces of times(c, y, x, dz, dmu, op) sum to y times that multiple
    # of op(x), whose z-powers may be negative
    prod = combine(times(c, y, x, dz, dmu, op))
    assert prod == reference_product(y, reference_combine([Piece(c, x, dz, 0, dmu, op)]))
    assert_canonical(prod)


def test_empty_and_single_term_operands():
    one_term = LaurentPoly.monomial(-(2**70), lam_pow=1)
    poly = LaurentPoly({(0, 1, 0): -(2**70), (0, 0, 2): 3})
    assert times(1, LaurentPoly(), poly) == []
    assert combine(times(1, poly, LaurentPoly())).terms == {}
    assert combine(times(1, one_term, one_term)).terms == {(0, 2, 0): 2**140}
    assert combine(times(1, one_term, poly)).terms == {(0, 2, 0): 2**140, (0, 1, 2): -3 * 2**70}
    assert combine(times(1, LAM_PLUS_MUSQ, LaurentPoly())).terms == {}


def test_sparse_exponents_take_the_compact_path():
    # exponents a thousand apart: the sum's (lam, mu) box would have about 2e6 slots
    a = LaurentPoly({(0, 0, 0): 1, (0, 1000, 0): -5})
    b = LaurentPoly({(0, 1000, 0): 2, (0, 0, 1000): 7})
    assert combine(times(1, a, b)) == LaurentPoly(
        {(0, 1000, 0): 2, (0, 0, 1000): 7, (0, 2000, 0): -10, (0, 1000, 1000): -35}
    )


def test_diagonal_products_match_reference():
    # the operands first_integral multiplies: the diagonal's values at z = 1
    p1, q1, r1, s1 = (combine([Piece(1, x, op=AT_ONE)]) for x in diagonal(16).as_tuple())
    assert combine(times(1, p1, s1)) == reference_product(p1, s1)
    assert combine(times(1, r1, q1)) == reference_product(q1, r1)


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
    assert combine(times(1, LAM_PLUS_MUSQ, a)) == reference_product(a, LAM_PLUS_MUSQ)


def test_one_accumulator_matches_two_products():
    p1, q1, r1, s1 = (combine([Piece(1, x, op=AT_ONE)]) for x in diagonal(16).as_tuple())
    combo = combine(times(1, p1, s1) + times(-1, r1, q1))
    assert combo == minus(reference_product(p1, s1), reference_product(q1, r1))
    assert_canonical(combo)


def test_products_stay_in_first_integral(monkeypatch, capsys):
    """No product of z-dependent polynomials anywhere: the factor ``y`` that
    ``times`` takes its pieces from is a (lam, mu) polynomial, each term with
    z-power 0, in ``poly --check`` and in the battery's exact suite; the
    identity checks multiply only by lam + mu^2."""
    factors = []

    def counted(c, y, x, *args, **kwargs):
        factors.append(y)
        return times(c, y, x, *args, **kwargs)

    monkeypatch.setattr(heunpoly, "times", counted)
    for ell in range(1, 7):
        quad = diagonal(ell)
        assert check_parity(quad) == (True, None)
    assert factors and all(y is LAM_PLUS_MUSQ for y in factors)
    factors.clear()
    assert cli.main(["poly", "--ell", "12", "--check"]) == 0
    assert capsys.readouterr().err == "exact checks passed\n"
    assert check_poly_exact()[:2] == ({f"ell_{ell}": "exact" for ell in range(1, 7)}, [])
    assert any(y is not LAM_PLUS_MUSQ for y in factors)  # first_integral's products
    assert all(z == 0 for y in factors for z, _, _ in y.terms)


@given(st.lists(pieces(), max_size=4))
@settings(max_examples=100, deadline=None)
def test_each_batched_row_matches_the_reference(rows):
    out = combine_rows(rows)
    assert len(out) == len(rows)
    for poly, row in zip(out, rows):
        assert poly == reference_combine(row)
        assert_canonical(poly)


@pytest.mark.parametrize("op", [None, PRIME, REFLECT, AT_ONE])
def test_a_factor_outside_int64_is_split_into_limbs(op):
    x = LaurentPoly({(-3, 1, 0): 5, (2, 0, 2): -(2**90), (7, 2, 1): 1})
    for c in (2**100, -(2**63), 2**47 + 1):
        pieces = [Piece(c, x, 1, 0, 1, op), Piece(-1, x, op=op)]
        assert combine(pieces) == reference_combine(pieces)


OPS = [None, PRIME, REFLECT, AT_ONE]
# coefficients next to each limb boundary: +-(2**(24k) + d) and the signed
# top limb's edge +-(2**(24k - 1) + d), for k = 1..5 and d in -1..1
edge_coeff_st = st.builds(
    lambda k, top, sign, d: sign * ((1 << (24 * k - top)) + d),
    st.integers(1, 5), st.sampled_from([0, 1]), st.sampled_from([1, -1]), st.integers(-1, 1),
)
edge_laurent = laurent(max_terms=6, coeffs=edge_coeff_st)


def assert_limbs(poly: LaurentPoly):
    """``poly`` holds canonical int64 limb rows: low limbs in [0, 2**24), the
    top signed below 2**23, and no top limb that only repeats a sign."""
    limbs = poly._vals
    assert limbs.dtype == np.int64 and limbs.ndim == 2 and limbs.shape[1] == len(poly._keys)
    assert ((limbs[:-1] >= 0) & (limbs[:-1] < 1 << 24)).all()
    assert ((limbs[-1] >= -(1 << 23)) & (limbs[-1] < 1 << 23)).all()
    values = list(poly.terms.values())
    bits = max([max(values), ~min(values)]).bit_length() + 1 if values else 1
    assert len(limbs) == max(1, -(-bits // 24))


@given(st.dictionaries(st.tuples(zpow_st, pow_st, pow_st), edge_coeff_st, max_size=8))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_edge_coefficients_round_trip(terms):
    poly = LaurentPoly(terms)
    assert poly.terms == dict(sorted(terms.items(), key=lambda t: (t[0][0], -t[0][1], t[0][2])))
    assert_limbs(poly)
    assert json.loads(poly.json_text()) == [[z, a, b, c] for (z, a, b), c in poly.terms.items()]


@st.composite
def edge_pieces(draw):
    return [
        Piece(draw(edge_coeff_st), draw(edge_laurent), draw(st.integers(-3, 3)),
              draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.sampled_from(OPS)))
        for _ in range(draw(st.integers(1, 5)))
    ]


@given(edge_pieces())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_edge_coefficients_combine_exactly(ps):
    out = combine(ps)
    assert out == reference_combine(ps)
    assert_limbs(out)


@given(edge_laurent, edge_laurent, edge_coeff_st, st.sampled_from(OPS))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_edge_coefficients_multiply_exactly(y, x, c, op):
    y = bivariate(y)
    prod = combine(times(c, y, x, 1, 1, op))
    assert prod == reference_product(y, reference_combine([Piece(c, x, 1, 0, 1, op)]))
    assert_limbs(prod)


@given(st.integers(1, 5), st.integers(1, (1 << 24) - 1), st.sampled_from([1, -1]), coeff_st)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_sums_that_cancel_only_after_the_carry(k, j, sign, small):
    # limb by limb the three terms sum to 2**24 at limb 0 and -1 at limb 1
    # (k = 1), so only the carry shows that the sum is zero
    big = 1 << (24 * k)
    a = LaurentPoly({(1, 0, 0): sign * (big - j), (0, 0, 0): small})
    b = LaurentPoly.monomial(sign * j, 1)
    c = LaurentPoly.monomial(-sign * big, 1)
    out = combine([Piece(1, a), Piece(1, b), Piece(1, c)])
    assert out == reference_combine([Piece(1, a), Piece(1, b), Piece(1, c)])
    assert out.terms == ({(0, 0, 0): small} if small else {})
    assert out._vals.shape == (1, len(out.terms))
    assert combine([Piece(1, c), Piece(1, b), Piece(-1, LaurentPoly.monomial(sign * j, 1))]) == (
        combine([Piece(1, c)]))


@pytest.mark.parametrize("op", OPS)
@given(c=st.integers(1 << 63, 1 << 130), sign=st.sampled_from([1, -1]), x=wide_laurent)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_factors_past_int64_with_every_operator(op, c, sign, x):
    pieces = [Piece(sign * c, x, 1, 0, 1, op), Piece(3, x, op=op), Piece(-(sign * c) // 7, x, 2, 1, 0, op)]
    out = combine(pieces)
    assert out == reference_combine(pieces)
    assert_limbs(out)


@pytest.mark.parametrize("op", [None, PRIME])
def test_a_row_with_many_pieces(op):
    # 4000 pieces of five-limb factors on five-limb coefficients: the sum of
    # one key's products would pass the int64 bound, so they are carried first
    x = LaurentPoly({(2, 0, 1): 2**113 - 1, (3, 1, 0): -(2**100) + 5, (-1, 0, 0): 7})
    pieces = [Piece((-1) ** i * (2**112 + 3 * i), x, i % 3, 0, 0, op) for i in range(4000)]
    out = combine(pieces)
    assert out == reference_combine(pieces)
    assert_limbs(out)
    rows = combine_rows([pieces[:2000], pieces[2000:], [Piece(1, x)]])
    assert rows == [reference_combine(pieces[:2000]), reference_combine(pieces[2000:]), x]


def test_products_and_sums_past_int64_are_carried():
    # every limb of both operands is 2**24 - 1: one convolution limb of a
    # product reaches 5 * 2**48, so 10000 equal keys sum past 2**63, and a
    # z-power of 2**15 - 1 from d/dz takes one product past it alone
    ones = 2**120 - 1
    x = LaurentPoly({(0, 0, 0): ones, (1, 0, 0): 2**96 - 1})
    assert combine([Piece(ones, x)] * 10000).terms == {
        (0, 0, 0): 10000 * ones * ones, (1, 0, 0): 10000 * ones * (2**96 - 1)}
    edge = LaurentPoly.monomial(ones, z_pow=HIGH)
    assert combine([Piece(ones, edge, op=PRIME)]).terms == {(HIGH - 1, 0, 0): HIGH * ones * ones}


@pytest.mark.parametrize("limit", [1 << 50, 1 << 56])
def test_a_lower_int64_bound_takes_the_guarded_paths(monkeypatch, limit):
    # with the bound lowered, the operands and the products are carried
    # before they are multiplied and summed, and the sums stay exact
    quad = diagonal(12)
    D = first_integral(quad)
    monkeypatch.setattr(exactpoly, "_LIMIT", limit)
    x = LaurentPoly({(2, 0, 1): 2**113 - 1, (3, 1, 0): -(2**100) + 5, (-1, 0, 0): 7})
    for op in OPS:
        pieces = [Piece(2**90 + i, x, i % 2, 0, 0, op) for i in range(50)] + [Piece(-3, x, op=op)]
        assert combine(pieces) == reference_combine(pieces)
    assert diagonal(12).as_tuple() == quad.as_tuple()
    assert check_parity(quad) == (True, None)
    assert first_integral(quad) == D


def test_a_product_past_the_bound_raises_limb_overflow(monkeypatch):
    monkeypatch.setattr(exactpoly, "_LIMIT", 1 << 40)
    x = LaurentPoly.monomial(2**100)
    with pytest.raises(LimbOverflow):
        combine([Piece(2**100, x)])
    monkeypatch.setattr(exactpoly, "_LIMIT", 1 << 24)
    with pytest.raises(LimbOverflow):  # a carried operand still passes it
        combine([Piece(3, LaurentPoly.monomial(5), op=PRIME), Piece(1, x)])


def test_equal_polynomials_have_equal_limbs_whatever_their_history():
    small = LaurentPoly({(0, 1, 0): 3, (2, 0, 0): -(2**23)})
    big = LaurentPoly({(0, 1, 0): 2**119, (1, 0, 0): -(2**97) + 1})
    # the sum passes through five limbs and comes back to one
    assert combine([Piece(1, big), Piece(1, small), Piece(-1, big)]) == small
    # rows of one call are trimmed each to its own width
    wide, narrow = combine_rows([[Piece(2**90, big)], [Piece(1, small)]])
    assert narrow == small and narrow._vals.shape == small._vals.shape == (1, 2)
    assert wide._vals.shape[0] == 9  # 2**209 and its sign take 211 bits
    assert_limbs(wide)
    # a coefficient slice drops the limbs its z-power does not need
    mixed = combine([Piece(1, big), Piece(1, small)])
    for z, coeff in mixed.coeffs.items():
        assert coeff == LaurentPoly({(0, a, b): c for (k, a, b), c in mixed.terms.items() if k == z})
        assert_limbs(coeff)
    assert LaurentPoly({(0, 0, 0): 2**23}) != LaurentPoly({(0, 0, 0): 2**23 - 2**24})
    assert combine([Piece(1, big), Piece(-1, big)]) == LaurentPoly()


HIGH = exactpoly._BIAS - 1  # the largest exponent a key field holds


@pytest.mark.parametrize(
    "exps", [(HIGH + 1, 0, 0), (0, -HIGH - 2, 0), (0, 0, HIGH + 1), (2**70, 0, 0)]
)
def test_a_constructed_exponent_past_its_field_is_refused(exps):
    with pytest.raises(ExponentOutOfRange):
        LaurentPoly({exps: 1})


def test_a_shift_past_its_field_is_refused_before_packing():
    edge = LaurentPoly({(HIGH, HIGH, HIGH): 3, (-HIGH - 1, -HIGH - 1, -HIGH - 1): -2})
    assert edge.terms == {(-HIGH - 1, -HIGH - 1, -HIGH - 1): -2, (HIGH, HIGH, HIGH): 3}
    for piece in (Piece(1, edge, 1), Piece(1, edge, 0, 1), Piece(1, edge, 0, 0, 1),
                  Piece(1, edge, -1), Piece(1, edge, 0, -1), Piece(1, edge, 0, 0, -1),
                  Piece(1, edge, op=PRIME)):
        with pytest.raises(ExponentOutOfRange):
            combine([piece])
    # in range, the edge terms move without wrapping into the next field
    top = LaurentPoly({(HIGH - 1, HIGH - 1, HIGH - 1): 3})
    assert combine([Piece(1, top, 1, 1, 1)]).terms == {(HIGH, HIGH, HIGH): 3}
    bottom = LaurentPoly({(-HIGH, -HIGH, -HIGH): 1})
    assert combine([Piece(2, bottom, -1, -1, -1)]).terms == {(-HIGH - 1,) * 3: 2}
    assert combine([Piece(1, bottom, op=PRIME)]).terms == {(-HIGH - 1, -HIGH, -HIGH): -HIGH}
    square = LaurentPoly.monomial(1, lam_pow=HIGH // 2 + 1)
    with pytest.raises(ExponentOutOfRange):
        combine(times(1, square, square))
    with pytest.raises(ExponentOutOfRange):
        combine_rows([[]] * (exactpoly._MAX_ROWS + 1))


def test_a_cancelled_edge_term_does_not_refuse_a_shift():
    # a sum's slack is the least of its pieces', so it may be loose; a shift
    # it does not clear is checked against the exact exponents instead
    edge = LaurentPoly({(HIGH, HIGH, 0): 1, (0, 0, 0): 1})
    one = combine([Piece(1, edge), Piece(-1, edge), Piece(1, LaurentPoly.monomial(1))])
    assert one == LaurentPoly.monomial(1) and one._slack == 0
    assert combine([Piece(3, one, 5, 4, 1, PRIME)]).is_zero()
    assert combine([Piece(3, one, 5, 4, 1)]).terms == {(5, 4, 1): 3}
    assert combine(times(2, one, one)).terms == {(0, 0, 0): 2}
    lam_edge = LaurentPoly({(0, HIGH, 0): 1, (0, 0, 0): 1})
    with pytest.raises(ExponentOutOfRange):
        combine(times(1, lam_edge, lam_edge))


def _sums_by_key(tree: ast.AST, module: str):
    """(module, innermost enclosing function, form) of every sum by key in
    ``tree``: a call of ``reduceat``, ``unique``, ``bincount`` or ``add.at``, a
    ``d.get(key, 0) + ...`` term and a ``+=`` into a subscript; and of every
    ``outer`` call (``np.outer``, ``np.multiply.outer``, ``np.add.outer``, ...),
    which would build a product beside ``combine_rows``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name, owner = node.func.attr, node.func.value
            if name in ("reduceat", "unique", "bincount", "outer") or (
                name == "at" and isinstance(owner, ast.Attribute) and owner.attr == "add"
            ):
                found.append((module, function, name))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            for side in (node.left, node.right):
                if (isinstance(side, ast.Call) and isinstance(side.func, ast.Attribute)
                        and side.func.attr == "get" and len(side.args) == 2
                        and isinstance(side.args[1], ast.Constant) and side.args[1].value == 0):
                    found.append((module, function, "get"))
        if (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Subscript)):
            found.append((module, function, "+="))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_collect_is_the_one_accumulator():
    # every sum of coefficients by key in the package (each recurrence step,
    # identity residual, value at z = 1 and product) goes through one
    # stable sort and one reduceat, in exactpoly._collect; no outer sum or
    # outer product builds a product beside the monomial pieces of times
    package = Path(exactpoly.__file__).resolve().parent
    found = [site for module in sorted(package.glob("*.py"))
             for site in _sums_by_key(ast.parse(module.read_text()), module.stem)]
    assert found == [("exactpoly", "_collect", "reduceat")]


#: The functions of ``exactpoly`` where Python ints come in or go out; no
#: other function may build or convert to an object array.
INT_BOUNDARY = {"_limbs", "_ints", "__init__", "_rows", "_decode", "coeff_arrays"}


def _object_dtypes(tree: ast.AST):
    """(innermost enclosing function, line) of every object dtype in ``tree``:
    ``dtype=object`` (or ``"O"``, ``"object"``, ``np.object_``) and
    ``astype(object)``."""
    def is_object(node):
        return ((isinstance(node, ast.Name) and node.id == "object")
                or (isinstance(node, ast.Attribute) and node.attr == "object_")
                or (isinstance(node, ast.Constant) and node.value in ("O", "object")))

    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            args = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr in ("astype", "view"):
                args += node.args[:1]
            if any(is_object(a) for a in args):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_object_dtypes_stay_at_the_int_boundary():
    # the kernel (combine_rows, _shifted_weighted, _collect and the carry)
    # works on int64 limbs only; Python ints live at the boundary
    found = _object_dtypes(ast.parse(Path(exactpoly.__file__).read_text()))
    assert all(function in INT_BOUNDARY for function, _ in found), found
    sample = ast.parse("a = np.array(x, dtype=object)\nb = y.astype(object)\n"
                       "def f():\n    return np.zeros(3, dtype='O')")
    assert _object_dtypes(sample) == [(None, 1), (None, 2), ("f", 4)]


def test_every_polynomial_of_the_exact_suite_holds_int64_limbs(monkeypatch):
    # every combine_rows result of diagonal(32), its identity checks and its
    # first integral: the recurrence steps, the residuals, the values at
    # z = 1 and the products
    made = []

    def recorded(rows):
        out = combine_rows(rows)
        made.extend(out)
        return out

    monkeypatch.setattr(heunpoly, "combine_rows", recorded)
    quad = diagonal(32)
    assert check_parity(quad) == (True, None)
    assert quad.ode == (True, None)
    D = quad.D
    assert len(made) == 4 * 32 + 4 + 4 + 5 + 2
    assert any(len(poly._vals) == 5 for poly in made)  # coefficients of 113 bits
    for poly in [*made, D, *quad.as_tuple()]:
        assert_limbs(poly)
