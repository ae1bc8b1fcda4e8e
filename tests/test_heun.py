from __future__ import annotations

import numpy as np
import pytest

from heun_monodromy import ModelParams, solve_phase
from heun_monodromy.circle import (
    CirclePair,
    phi_on_circle,
    psi_on_circle,
    riccati_circle_residual,
)
from heun_monodromy.errors import DegenerateAtOne, GenericityViolated, NonIntegerOrder
from heun_monodromy.heun import (
    MINUS_Z_LIFT,
    _lb_formula,
    apply_B,
    apply_B_and_dot,
    boundary_E_values,
    build_E,
    build_matrix_B,
    check_B_squared,
    dche_residual,
    det_relation_residual,
    matrix_action_residual,
    pair_ode_residual,
    phi_alpha_values,
    residual_grid,
)
from heun_monodromy.heunpoly import NumericQuad, diagonal
from heun_monodromy.monodromy import _algebraic_coefficients, monodromy_algebraic
from heun_monodromy.sqrtmono import transform_from_path
from heun_monodromy.verify import PHI_ALPHA_VALUES, check_heun


@pytest.fixture(scope="module")
def hb(golden_path):
    return build_E(phi_on_circle(golden_path), psi_on_circle(golden_path))


@pytest.fixture(scope="module")
def hb2(golden2_path):
    return build_E(phi_on_circle(golden2_path), psi_on_circle(golden2_path))


def test_boundary_values_closed_form(hb):
    b0 = hb.at(0.0)
    for s in (+1, -1):
        direct, closed = boundary_E_values(b0, s)
        assert abs(direct - closed) < 1e-10
        assert abs(float(b0.E(s)[0].imag)) < 1e-10


def test_pair_ode_residual(hb, hb2):
    assert pair_ode_residual(hb.at(residual_grid(hb))) < 1e-8
    assert pair_ode_residual(hb2.at(residual_grid(hb2))) < 1e-8


def test_pair_ode_residual_grid_refinement(hb):
    T = hb.params.T
    coarse = pair_ode_residual(hb.at(np.linspace(-T, T, 1001)))
    fine = pair_ode_residual(hb.at(np.linspace(-T, T, 2001)))
    assert fine <= max(coarse * 4.0, 1e-12)  # refinement does not blow up


def test_dche_residual(hb, hb2, rng):
    b = hb.at(residual_grid(hb))
    assert dche_residual(b) < 1e-7
    assert dche_residual(hb2.at(residual_grid(hb2))) < 1e-7
    combo = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
    assert dche_residual(b, coeffs=combo) < 1e-6


def test_wronskian_matches_closed_form(hb):
    # E+(1) E-'(1) - E-(1) E+'(1) = -cos(phi(0))/(2 omega), real
    b = hb.at(0.0)
    wronskian = float((b.E(+1)[0] * b.Eprime(-1)[0] - b.E(-1)[0] * b.Eprime(+1)[0]).real)
    expected = -np.cos(hb.path.phi0) / (2.0 * hb.params.omega)
    assert wronskian == pytest.approx(expected, rel=1e-10)
    assert abs(wronskian) > 1e-6


#: phi0 on the z = 1 edge at (2, 0.3, 1): pi/2, and pi/2 - 1e-8, where
#: np.cos(phi0) is 1.00000000005e-8 but Re(S0^2)/|S0|^2 9.99999999474e-9.
EDGE_PHI0 = (np.pi / 2, np.pi / 2 - 1e-8)


def _edge_messages(build):
    """The DegenerateAtOne message of ``build(path)`` at each EDGE_PHI0."""
    params = ModelParams(ell=2, mu=0.3, omega=1.0)
    messages = []
    for phi0 in EDGE_PHI0:
        path = solve_phase(params, phi0, tol=1e-10)
        with pytest.raises(DegenerateAtOne) as exc:
            build(path)
        messages.append(str(exc.value))
    return messages


def test_degenerate_at_one_gate(golden_quad):
    # the basis and the transform make one decision, with one message, from
    # the pair's S(0) = e^{i phi0/2}
    basis = _edge_messages(lambda path: build_E(phi_on_circle(path), psi_on_circle(path)))
    assert basis == _edge_messages(lambda path: transform_from_path(path, golden_quad))
    assert basis[1].startswith("cos(phi(0)) = 1.00e-08")


def test_non_integer_order_gate():
    params = ModelParams(ell=2.5, mu=0.3, omega=1.0)
    path = solve_phase(params, 0.5, tol=1e-10)
    with pytest.raises(NonIntegerOrder):
        build_E(phi_on_circle(path), psi_on_circle(path))


def test_phi_alpha_identity_at_half_pi(hb):
    T = hb.params.T
    t = np.linspace(-T / 2, T / 2, 801)
    vals = phi_alpha_values(*hb.pair(t), t, np.pi / 2)[0]
    assert np.max(np.abs(vals - np.exp(1j * hb.path.phi(t)))) < 1e-9


@pytest.mark.parametrize("alpha", [0.0, 0.7, np.pi / 2, 2.1])
def test_phi_alpha_unimodular_and_riccati(hb, alpha):
    T = hb.params.T
    t = np.linspace(-T / 2, T / 2, 801)
    fn = lambda t: phi_alpha_values(*hb.pair(t), t, alpha)[0]  # noqa: E731
    vals = fn(t)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-8
    h = 1e-6
    dvals = (fn(t + h) - fn(t - h)) / (2 * h)
    assert np.max(np.abs(riccati_circle_residual(hb.params, t, vals, dvals))) < 1e-7


@pytest.mark.parametrize("alpha", [0.0, 0.7, 2.1])
def test_phi_alpha_derivative_matches_fd(hb, alpha):
    T = hb.params.T
    t = np.linspace(-T / 2, T / 2, 201)
    dvals = phi_alpha_values(*hb.pair(t), t, alpha)[1]
    fn = lambda t: phi_alpha_values(*hb.pair(t), t, alpha)[0]  # noqa: E731
    h = 1e-6
    assert np.max(np.abs(dvals - (fn(t + h) - fn(t - h)) / (2 * h))) < 1e-7


def test_phi_alpha_is_the_papers_display_on_the_basis(hb, hb2):
    # -i z^ell (c E+ + i s E-) / (c E+(1/z) - i s E-(1/z)), written on E+-
    # and their values at 1/z (the lift -t), equals the circle quotient
    for basis in (hb, hb2):
        T = basis.params.T
        t = np.linspace(-T / 2, T / 2, 401)
        b = basis.at(t)
        zl = np.exp(1j * basis.ell * basis.params.omega * t)
        for alpha in PHI_ALPHA_VALUES:
            c, s = np.cos(alpha / 2), np.sin(alpha / 2)
            display = (-1j * zl * (c * b.E(+1) + 1j * s * b.E(-1))
                       / (c * b.E(+1, -1) - 1j * s * b.E(-1, -1)))
            member = phi_alpha_values(*basis.pair(t), t, alpha)[0]
            assert np.max(np.abs(display - member)) <= 1e-13


def test_monodromy_is_the_alpha_family_member(hb, hb2):
    # quotient(cp, i sm) is quotient(c + s, -i (c - s)) up to a real factor
    # when tan(alpha/2) = (cp + sm)/(cp - sm)
    for basis in (hb, hb2):
        cp, sm = _algebraic_coefficients(CirclePair(basis.path.solution, basis.params).boundary())
        alpha_m = 2.0 * np.arctan2(cp + sm, cp - sm)
        T = basis.params.T
        t = np.linspace(-T / 2, T / 2, 401)
        member = phi_alpha_values(*basis.pair(t), t, alpha_m)[0]
        assert np.max(np.abs(monodromy_algebraic(basis.path, t) - member)) <= 1e-13


def test_phi_alpha_riccati_uses_the_analytic_derivative(golden_path, golden_quad):
    # a symmetric difference with h = 1e-6 left about 1e-9 here
    report, failures = check_heun(golden_path, golden_quad, 1001)
    riccati = [v for k, v in report.items() if k.startswith("phi_alpha_riccati")]
    assert len(riccati) == 4 and max(riccati) <= 1e-12
    assert failures == []


def test_apply_B_image_solves_dche(hb, golden_quad):
    omega = hb.params.omega
    T = hb.params.T
    t = np.linspace(-T / 2, T / 2, 401)
    z = np.exp(1j * omega * t)
    lam, mu, ell = hb.params.lam, hb.params.mu, hb.ell
    h = 1e-5
    for coeffs in ((1, 0), (0, 1), (0.6 + 0.2j, -0.3 + 0.9j)):
        def Fp(u):
            zu = np.exp(1j * omega * u)
            return apply_B_and_dot(hb, golden_quad, u, coeffs=coeffs)[1] / (1j * omega * zu)

        vals = apply_B(hb, golden_quad, t, coeffs=coeffs)
        valsp = Fp(t)
        valspp = (Fp(t + h) - Fp(t - h)) / (2 * h) / (1j * omega * z)
        res = (
            z**2 * valspp
            + ((ell + 1) * z + mu * (1 - z**2)) * valsp
            + (lam - mu * (ell + 1) * z) * vals
        )
        assert float(np.max(np.abs(res))) / float(np.max(np.abs(vals))) < 1e-6


def test_apply_B_dot_matches_fd(hb, golden_quad):
    T = hb.params.T
    t = np.linspace(-T / 2, T / 2, 101)
    h = 1e-6
    fd = (apply_B(hb, golden_quad, t + h, coeffs=(1.0, 0.0))
          - apply_B(hb, golden_quad, t - h, coeffs=(1.0, 0.0))) / (2 * h)
    dot = apply_B_and_dot(hb, golden_quad, t, coeffs=(1.0, 0.0))[1]
    assert np.max(np.abs(dot - fd)) < 1e-7


def test_b_squared_is_monodromy(hb, golden_quad, hb2, golden2_quad):
    for basis, quad in ((hb, golden_quad), (hb2, golden2_quad)):
        rep = check_B_squared(basis, quad)
        assert rep["lift_convention"] == MINUS_Z_LIFT == "t+T/2"
        assert rep["residual_e_plus"] < 1e-6
        assert rep["residual_e_minus"] < 1e-6
        assert rep["residual_random_combo"] < 1e-6


def test_b_squared_opposite_lift_matches_inverse_monodromy(hb, golden_quad):
    # with the t - T/2 lift the composition lands on E(t - T) instead: the
    # two conventions are mirror images, which is why one choice is pinned
    # and recorded.  At integer order z and L_B's prefactor are T-periodic in
    # t, so L_B with the t - T/2 lift at u is ``apply_B_and_dot`` at u - T.
    T, omega = hb.params.T, hb.params.omega
    t = np.linspace(-T / 4, T / 4, 101)
    u = t - T / 2
    F, F_dot = apply_B_and_dot(hb, golden_quad, u - T, coeffs=(1, 0))
    FF = _lb_formula(hb, golden_quad, t, F, F_dot / (1j * omega * np.exp(1j * omega * u)))[0]
    inverse = golden_quad.D * hb.at(t - T).E(+1)
    forward = golden_quad.D * hb.at(t + T).E(+1)
    assert np.max(np.abs(FF - inverse)) < 1e-10
    assert np.max(np.abs(FF - forward)) > 1e-2


def test_matrix_action(hb, golden_quad):
    matrix = build_matrix_B(hb, golden_quad)
    assert matrix.shape == (2, 2)
    assert matrix_action_residual(hb, golden_quad, matrix) < 1e-6
    assert det_relation_residual(matrix, golden_quad.D) < 1e-6
    det = complex(np.linalg.det(matrix))
    assert abs(abs(det) - abs(golden_quad.D)) / abs(golden_quad.D) < 1e-5


# The L_B matrix at the two golden points as the closed-form boundary
# algebra at z = 1 gave it, before the matrix was read off apply_B_and_dot.
BOUNDARY_ALGEBRA_MATRIX = {
    "golden_1": [
        [-5.4403120004266726e-17 - 0.20569793447805618j, 0.6840566498520275 + 0.0j],
        [0.2661890061164527 - 1.61357324793846e-17j, -1.290858598350768e-16 - 0.20569793447805615j],
    ],
    "golden_2": [
        [0.0 + 0.14786916618466572j, -0.21946608229723655 + 0.0j],
        [-0.3921503627067557 - 5.640497454137342e-17j, 9.400829090228904e-18 + 0.14786916618466578j],
    ],
}


def test_matrix_matches_the_boundary_algebra(hb, golden_quad, hb2, golden2_quad):
    for key, basis, quad in (("golden_1", hb, golden_quad), ("golden_2", hb2, golden2_quad)):
        ref = np.array(BOUNDARY_ALGEBRA_MATRIX[key])
        matrix = build_matrix_B(basis, quad)
        assert np.max(np.abs(matrix - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_matrix_degenerate_gate(golden_quad):
    _edge_messages(lambda path: build_matrix_B(
        build_E(phi_on_circle(path), psi_on_circle(path)), golden_quad))


def test_apply_B_genericity_gate():
    # L_B reads a NumericQuad, which a non-generic point does not have
    params = ModelParams(ell=1, mu=0.5, omega=1.0)  # A = 1: D- = 0
    with pytest.raises(GenericityViolated):
        NumericQuad(diagonal(1), params)
