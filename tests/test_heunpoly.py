from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from heun_monodromy import GenericityViolated, ModelParams
from heun_monodromy.exactpoly import BivariateCoeff, LaurentPoly
from heun_monodromy.heunpoly import (
    NumericQuad,
    PolyQuadruple,
    check_ode_system,
    check_parity,
    d_plus_minus,
    diagonal,
    first_integral,
    first_integral_numeric_residual,
    initial_quadruple,
    recurrence_step,
)


def test_level_one_hand_values_any_ell():
    # the first step is order-independent except through the p-rule prefactor
    for ell in (1, 2, 5):
        q1 = recurrence_step(initial_quadruple(ell))
        assert q1.p.canonical_text() == "1"
        assert q1.q.canonical_text() == "mu - mu*z^2"
        assert q1.r.canonical_text() == "mu"
        assert q1.s.canonical_text() == "lam + mu^2 - mu^2*z^2"


def test_r_rule_laurent_cancellation():
    # r1 = 2(1-2) z z^-2 - (-mu) - z^2 (-2 z^-3): the negative powers cancel
    q1 = recurrence_step(initial_quadruple(3))
    assert q1.r.min_degree == 0
    assert q1.r.canonical_text() == "mu"


def test_diagonal_ell1_closed_forms():
    quad = diagonal(1)
    assert quad.p.canonical_text() == "1"
    assert quad.q.canonical_text() == "mu - mu*z^2"
    assert quad.r.canonical_text() == "mu"
    assert quad.s.canonical_text() == "lam + mu^2 - mu^2*z^2"
    D = first_integral(quad)
    assert D.terms == {(1, 0): 1}  # D = lam


@pytest.mark.parametrize("ell", range(1, 7))
def test_degrees_exact(ell):
    quad = diagonal(ell)
    degrees = tuple(p.max_degree for p in quad.as_tuple())
    assert degrees == (2 * ell - 2, 2 * ell, 2 * ell - 2, 2 * ell)
    assert all(p.min_degree >= 0 for p in quad.as_tuple())


@pytest.mark.parametrize("ell", range(1, 7))
def test_parity_and_ode_exact(ell):
    quad = diagonal(ell)
    ok, witness = check_parity(quad)
    assert ok, witness
    ok, witness = check_ode_system(quad)
    assert ok, witness


@pytest.mark.parametrize("ell", range(1, 7))
def test_first_integral_constant_and_boundary_form(ell):
    first_integral(diagonal(ell))  # raises on failure


def test_intermediate_laurent_tail_bounded():
    # at levels below the diagonal the r entry never dips under z^-2
    for ell in (2, 4, 6):
        quad = initial_quadruple(ell)
        for _ in range(ell):
            assert quad.r.min_degree >= -2
            quad = recurrence_step(quad)


def test_sympy_oracle_cross_check():
    sympy = pytest.importorskip("sympy")
    z, lam, mu = sympy.symbols("z lam mu")
    for ell in (1, 2, 3):
        p, q, r, s = (
            sympy.Integer(0),
            sympy.Integer(1),
            z ** (-2),
            -mu,
        )
        for k in range(1, ell + 1):
            p, q, r, s = (
                sympy.expand((1 - ell) * z * p + q + z**2 * sympy.diff(p, z)),
                sympy.expand(
                    z**2 * (-lam + (ell + 1) * mu * z) * p
                    + mu * (1 - z**2) * q
                    + z**2 * sympy.diff(q, z)
                ),
                sympy.expand(2 * (k - 2) * z * r - s - z**2 * sympy.diff(r, z)),
                sympy.expand(
                    z**2 * (lam - (ell + 1) * mu * z) * r
                    + ((2 * k - ell - 3) * z + mu * (z**2 - 1)) * s
                    - z**2 * sympy.diff(s, z)
                ),
            )
        quad = diagonal(ell)
        for ours, theirs in zip(quad.as_tuple(), (p, q, r, s)):
            assert sympy.expand(_to_sympy(sympy, ours) - theirs) == 0


def _to_sympy(sympy, poly: LaurentPoly):
    z, lam, mu = sympy.symbols("z lam mu")
    return sum(
        c * lam**a * mu**b * z**k
        for k, biv in poly.coeffs.items()
        for (a, b), c in biv.terms.items()
    )


@pytest.mark.parametrize("ell", [5, 6])
def test_first_integral_sympy_oracle(ell):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    quad = diagonal(ell)
    p, q, r, s = (_to_sympy(sympy, poly) for poly in quad.as_tuple())
    expected = sympy.expand((p * s - q * r) * z ** (2 * (1 - ell)))
    assert sympy.expand(_to_sympy(sympy, LaurentPoly.constant(first_integral(quad))) - expected) == 0


def test_d_plus_minus_ell1_closed_form():
    params = ModelParams(ell=1, mu=0.2, omega=1.3)
    quad = diagonal(1)
    dp, dm, generic = d_plus_minus(quad, params)
    assert dp == pytest.approx(1 + params.A, rel=1e-14)
    assert dm == pytest.approx(1 - params.A, rel=1e-14)
    assert generic


def test_genericity_violation_at_A_equal_1():
    params = ModelParams(ell=1, mu=0.5, omega=1.0)  # A = 1 so D- = 0
    quad = diagonal(1)
    with pytest.raises(GenericityViolated):
        d_plus_minus(quad, params)
    _, dm, generic = d_plus_minus(quad, params, check=False)
    assert abs(dm) < 1e-14 and not generic


def test_first_integral_matches_product_form(golden_params, golden_quad):
    # D = (2 omega)^-2 D+ D- at the numeric point
    lhs = golden_quad.D
    rhs = golden_quad.d_plus * golden_quad.d_minus / (2 * golden_params.omega) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_first_integral_random_points(rng):
    for ell in (1, 2, 3):
        res = first_integral_numeric_residual(diagonal(ell), rng)
        assert res < 1e-12


def test_numeric_quad_evaluation(golden_params):
    quad = diagonal(2)
    nq = NumericQuad(quad, golden_params)
    z = np.array([0.7 + 0.2j, -1.0 + 0j, 1.0 + 0j])
    lam, mu = golden_params.lam, golden_params.mu
    direct = quad.r.evaluate(z, lam, mu)
    assert np.max(np.abs(nq("r", z) - direct)) < 1e-14
    dr = quad.r.diff_z()
    assert np.max(np.abs(nq("r'", z) - dr.evaluate(z, lam, mu))) < 1e-14


def test_first_integral_ell2_closed_form():
    # D = lam + mu^2 - lam^2 at order 2
    D = first_integral(diagonal(2))
    expected = LaurentPoly.monomial(1, lam_pow=1) + LaurentPoly.monomial(
        1, mu_pow=2
    ) - LaurentPoly.monomial(1, lam_pow=2)
    assert LaurentPoly.constant(D) == expected


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_numeric_D_is_correctly_rounded_and_free_of_term_order(ell, monkeypatch):
    import heun_monodromy.heunpoly as heunpoly_mod

    quad = diagonal(ell)
    D = first_integral(quad)
    reversed_D = BivariateCoeff(dict(reversed(list(D.terms.items()))))
    assert list(reversed_D.terms) == list(D.terms)[::-1]
    # the same quadruple with every term dict in reverse order
    reversed_quad = PolyQuadruple(
        quad.k, ell, *(LaurentPoly(dict(reversed(list(x.terms.items())))) for x in quad.as_tuple())
    )
    assert list(reversed_quad.s.terms) == list(quad.s.terms)[::-1]
    rng = np.random.default_rng(6000 + ell)
    for _ in range(25):
        params = ModelParams(ell=ell, mu=rng.uniform(0.05, 1.5), omega=rng.uniform(0.3, 2.0))
        lam, mu = Fraction(params.lam), Fraction(params.mu)
        exact = sum(Fraction(c) * lam**a * mu**b for (a, b), c in D.terms.items())
        nq = NumericQuad(quad, params)
        assert nq.D == float(exact)
        p1, r1 = (
            float(sum(Fraction(c) * lam**a * mu**b for (_, a, b), c in x.terms.items()))
            for x in (quad.p, quad.r)
        )
        assert (nq.d_plus, nq.d_minus) == (p1 + 2.0 * params.omega * r1, p1 - 2.0 * params.omega * r1)
        nq_reversed = NumericQuad(reversed_quad, params)
        assert (nq_reversed.d_plus, nq_reversed.d_minus, nq_reversed.D) == (nq.d_plus, nq.d_minus, nq.D)
        for name, (lo, dense) in nq._polys.items():
            lo_r, dense_r = nq_reversed._polys[name]
            assert lo_r == lo and dense_r.tobytes() == dense.tobytes()
        with monkeypatch.context() as m:
            m.setattr(heunpoly_mod, "first_integral", lambda q: reversed_D)
            assert NumericQuad(quad, params).D == float(exact)
