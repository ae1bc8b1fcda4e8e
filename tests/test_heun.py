from __future__ import annotations

import numpy as np
import pytest

from heun_monodromy import ModelParams, solve_phase
from heun_monodromy.circle import boundary_values, phi_on_circle, psi_on_circle, riccati_circle_residual
from heun_monodromy.errors import DegenerateAtOne, GenericityViolated, NonIntegerOrder
from heun_monodromy.heun import (
    MINUS_Z_LIFT,
    apply_B,
    apply_B_dot,
    boundary_E_values,
    build_E,
    build_matrix_B,
    check_B_squared,
    continue_dche_ray,
    dche_residual,
    matrix_action_residual,
    pair_ode_residual,
    phi_alpha,
    phi_alpha_values,
    radial_continue_E,
    residual_grid,
    wronskian_at_one,
)
from heun_monodromy.heunpoly import NumericQuad, diagonal
from heun_monodromy.verify import check_heun


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
        assert abs(float(hb.E(np.array([0.0]), s)[0].imag)) < 1e-10


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
    expected = -np.cos(hb.path.phi0) / (2.0 * hb.params.omega)
    assert wronskian_at_one(hb) == pytest.approx(expected, rel=1e-10)
    assert abs(wronskian_at_one(hb)) > 1e-6


def test_degenerate_at_one_gate():
    params = ModelParams(ell=2, mu=0.3, omega=1.0)
    path = solve_phase(params, np.pi / 2, tol=1e-10)
    with pytest.raises(DegenerateAtOne):
        build_E(phi_on_circle(path), psi_on_circle(path))


def test_non_integer_order_gate():
    params = ModelParams(ell=2.5, mu=0.3, omega=1.0)
    path = solve_phase(params, 0.5, tol=1e-10)
    with pytest.raises(NonIntegerOrder):
        build_E(phi_on_circle(path), psi_on_circle(path))


def test_phi_alpha_identity_at_half_pi(hb):
    T = hb.params.T
    t = np.linspace(-T / 2, T / 2, 801)
    vals = phi_alpha(hb, np.pi / 2)(t)
    assert np.max(np.abs(vals - np.exp(1j * hb.path.phi(t)))) < 1e-9


@pytest.mark.parametrize("alpha", [0.0, 0.7, np.pi / 2, 2.1])
def test_phi_alpha_unimodular_and_riccati(hb, alpha):
    T = hb.params.T
    t = np.linspace(-T / 2, T / 2, 801)
    fn = phi_alpha(hb, alpha)
    vals = fn(t)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-8
    h = 1e-6
    dvals = (fn(t + h) - fn(t - h)) / (2 * h)
    assert np.max(np.abs(riccati_circle_residual(hb.params, t, vals, dvals))) < 1e-7


@pytest.mark.parametrize("alpha", [0.0, 0.7, 2.1])
def test_phi_alpha_derivative_matches_fd(hb, alpha):
    T = hb.params.T
    t = np.linspace(-T / 2, T / 2, 201)
    vals, dvals = phi_alpha_values(hb.at(t), alpha)
    fn = phi_alpha(hb, alpha)
    assert np.array_equal(vals, fn(t))
    h = 1e-6
    assert np.max(np.abs(dvals - (fn(t + h) - fn(t - h)) / (2 * h))) < 1e-7


def test_phi_alpha_riccati_uses_the_analytic_derivative(golden_path, golden_quad):
    # a symmetric difference with h = 1e-6 left about 1e-9 here
    report, failures = check_heun(golden_path, golden_quad, 1001)
    riccati = [v for k, v in report.items() if k.startswith("phi_alpha_riccati")]
    assert len(riccati) == 4 and max(riccati) <= 1e-12
    assert failures == []


def test_radial_identity(hb):
    out = radial_continue_E(hb, 0.4, [1.0])
    for s in (+1, -1):
        assert out[s][0] == pytest.approx(complex(hb.E(np.array([0.4]), s)[0]))


def test_radial_linearity(hb, rng):
    theta, rho = 0.3, 1.2
    t0 = np.array([theta / hb.params.omega])
    E0p, Ep0p = complex(hb.E(t0, +1)[0]), complex(hb.Eprime(t0, +1)[0])
    E0m, Ep0m = complex(hb.E(t0, -1)[0]), complex(hb.Eprime(t0, -1)[0])
    c1, c2 = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    vp, _ = continue_dche_ray(hb.params, hb.ell, theta, rho, E0p, Ep0p)
    vm, _ = continue_dche_ray(hb.params, hb.ell, theta, rho, E0m, Ep0m)
    vc, _ = continue_dche_ray(
        hb.params, hb.ell, theta, rho, c1 * E0p + c2 * E0m, c1 * Ep0p + c2 * Ep0m
    )
    assert abs(vc - (c1 * vp + c2 * vm)) < 1e-10 * max(1.0, abs(vc))


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
            return apply_B_dot(hb, golden_quad, u, coeffs=coeffs) / (1j * omega * zu)

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
    fd = (apply_B(hb, golden_quad, t + h) - apply_B(hb, golden_quad, t - h)) / (2 * h)
    assert np.max(np.abs(apply_B_dot(hb, golden_quad, t) - fd)) < 1e-7


def test_b_squared_is_monodromy(hb, golden_quad, hb2, golden2_quad):
    for basis, quad in ((hb, golden_quad), (hb2, golden2_quad)):
        rep = check_B_squared(basis, quad)
        assert rep["lift_convention"] == MINUS_Z_LIFT == "t+T/2"
        assert rep["residual_e_plus"] < 1e-6
        assert rep["residual_e_minus"] < 1e-6
        assert rep["residual_random_combo"] < 1e-6


def test_b_squared_opposite_lift_matches_inverse_monodromy(hb, golden_quad):
    # with the t - T/2 lift the composition lands on E(t - T) instead: the
    # two conventions are mirror images, which is why one global choice is
    # pinned and recorded
    T = hb.params.T
    t = np.linspace(-T / 4, T / 4, 101)
    shift = -T / 2

    def Fval(u):
        return apply_B(hb, golden_quad, u, coeffs=(1, 0), lift_sign=-1)

    def Fprime(u):
        zu = np.exp(1j * hb.params.omega * u)
        return apply_B_dot(hb, golden_quad, u, coeffs=(1, 0), lift_sign=-1) / (
            1j * hb.params.omega * zu
        )

    from heun_monodromy.heun import _lb_from_values

    FF = _lb_from_values(hb, golden_quad, t, Fval(t + shift), Fprime(t + shift))
    inverse = golden_quad.D * hb.E(t - T, +1)
    forward = golden_quad.D * hb.E(t + T, +1)
    assert np.max(np.abs(FF - inverse)) < 1e-10
    assert np.max(np.abs(FF - forward)) > 1e-2


def test_matrix_action(hb, golden_quad, golden_path):
    bmat = build_matrix_B(boundary_values(golden_path), golden_quad, golden_path.params)
    assert matrix_action_residual(hb, golden_quad, bmat) < 1e-6
    assert bmat.det_relation_residual(golden_quad.D) < 1e-6
    assert abs(abs(bmat.det) - abs(golden_quad.D)) / abs(golden_quad.D) < 1e-5
    assert bmat.lift_convention == "t+T/2"


def test_matrix_cross_validates_boundary_algebra(hb, golden_quad, golden_path):
    # the path-free boundary algebra must agree with the path-backed basis
    from heun_monodromy.heun import _BoundaryEAlgebra

    bv = boundary_values(golden_path)
    alg = _BoundaryEAlgebra(bv, golden_path.params, hb.ell)
    T = golden_path.params.T
    for where, tval in (("0", 0.0), ("+", T / 2), ("-", -T / 2)):
        for s in (+1, -1):
            assert abs(alg.E(where, s) - complex(hb.E(np.array([tval]), s)[0])) < 1e-12
            assert abs(alg.Eprime(where, s) - complex(hb.Eprime(np.array([tval]), s)[0])) < 1e-12


def test_matrix_degenerate_gate(golden_quad):
    params = ModelParams(ell=2, mu=0.3, omega=1.0)
    path = solve_phase(params, np.pi / 2, tol=1e-10)
    with pytest.raises(DegenerateAtOne):
        build_matrix_B(boundary_values(path), golden_quad, params)


def test_apply_B_genericity_gate():
    params = ModelParams(ell=1, mu=0.5, omega=1.0)  # A = 1: D- = 0
    path = solve_phase(params, 0.5, tol=1e-10)
    nq = NumericQuad(diagonal(1), params)
    hb = build_E(phi_on_circle(path), psi_on_circle(path))
    with pytest.raises(GenericityViolated):
        apply_B(hb, nq, np.array([0.0]))
