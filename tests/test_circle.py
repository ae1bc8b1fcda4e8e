from __future__ import annotations

import cmath
import copy
import dataclasses

import numpy as np
import pytest

import heun_monodromy.circle as circle_mod
from heun_monodromy import ModelParams, NotConverged, OutOfWindow, solve_phase
from heun_monodromy.circle import (
    boundary_values,
    continue_riccati_path,
    half_power_factor_dots,
    half_power_factors,
    phi_on_circle,
    psi_on_circle,
    riccati_circle_residual,
    riccati_continue_ray,
    theta_pair_solve,
)
from heun_monodromy.errors import WindowTooSmall
from tests.conftest import FIXED_SWEEP_POINTS, GOLDENS
from tests.reference_theta_solve import reference_theta_pair


def grid(path, n=501):
    T = path.params.T
    return np.linspace(-T / 2, T / 2, n)


def test_trivial_phi_and_psi(trivial_path):
    t = grid(trivial_path)
    assert np.max(np.abs(phi_on_circle(trivial_path)(t) - 1.0)) < 1e-12
    assert np.max(np.abs(np.exp(0.5j * trivial_path.phi(t)) - 1.0)) < 1e-12
    assert np.max(np.abs(psi_on_circle(trivial_path)(t) - np.exp(t))) < 1e-9


def test_branch_anchoring_at_pi():
    path = solve_phase(ModelParams(ell=0.0, mu=0.0, omega=1.0), np.pi, tol=1e-12)
    t = grid(path, 101)
    # phi == pi throughout, so the continuous half power is e^{i pi/2} = i
    assert np.max(np.abs(phi_on_circle(path)(t) + 1.0)) < 1e-9
    assert np.max(np.abs(np.exp(0.5j * path.phi(t)) - 1j)) < 1e-9


def test_unimodularity_and_branch_squares(golden_path):
    t = grid(golden_path, 1001)
    F = phi_on_circle(golden_path)(t)
    assert np.max(np.abs(np.abs(F) - 1.0)) < 1e-10
    assert np.max(np.abs(np.exp(0.5j * golden_path.phi(t)) ** 2 - F)) < 1e-12
    psi = psi_on_circle(golden_path)(t)
    assert np.max(np.abs(np.exp(0.5 * golden_path.P(t)) ** 2 - psi)) < 1e-12
    assert np.all(psi > 0)


def test_psi_normalized_at_one(golden_path):
    assert float(psi_on_circle(golden_path)(np.array([0.0]))[0]) == 1.0


def test_psi_ode_residual_on_circle(golden_path):
    t = grid(golden_path, 1001)
    F = phi_on_circle(golden_path)(t)
    psi = psi_on_circle(golden_path)(t)
    dP = golden_path.derivative(t)[1]
    res = 2.0 * dP * psi - (F + 1.0 / F) * psi
    assert np.max(np.abs(res)) < 1e-8


def test_riccati_residual_of_phi(golden_path):
    t = grid(golden_path, 1001)
    F = phi_on_circle(golden_path)(t)
    Fdot = 1j * golden_path.phidot(t) * F
    assert np.max(np.abs(riccati_circle_residual(golden_path.params, t, F, Fdot))) < 1e-8


def test_boundary_values_trivial(trivial_path):
    bv = boundary_values(trivial_path)
    T = trivial_path.params.T
    assert np.exp(1j * bv.phi_plus) == pytest.approx(1.0)
    assert np.exp(1j * bv.phi_minus) == pytest.approx(1.0)
    assert np.exp(1j * bv.phi_at_0) == pytest.approx(1.0)
    assert np.exp(bv.P_plus) == pytest.approx(np.exp(T / 2), rel=1e-9)
    assert np.exp(bv.P_minus) == pytest.approx(np.exp(-T / 2), rel=1e-9)


def test_boundary_values_golden(golden_path):
    bv = boundary_values(golden_path)
    # generic solution: the two cut edges carry different values
    Phi_plus, Phi_minus = np.exp(1j * bv.phi_plus), np.exp(1j * bv.phi_minus)
    assert abs(Phi_plus - Phi_minus) > 1e-3
    assert abs(Phi_plus * np.conj(Phi_plus) - 1.0) < 1e-12
    assert np.exp(0.5j * bv.phi_plus) ** 2 == pytest.approx(Phi_plus, rel=1e-12)


def test_half_power_factor_reciprocal_rule(golden_path):
    t = grid(golden_path, 101)
    S, R, Rrec, Srec = half_power_factors(golden_path, t)
    Sm, Rm, Rrecm, Srecm = half_power_factors(golden_path, -t)
    # evaluating at -t swaps the z and 1/z families
    assert np.max(np.abs(S - Srecm)) < 1e-12
    assert np.max(np.abs(Rrec - Rm)) < 1e-12


def test_half_power_dots_match_fd(golden_path):
    t = grid(golden_path, 51)
    h = 1e-6
    exact = half_power_factor_dots(golden_path, t)
    ahead = half_power_factors(golden_path, t + h)
    behind = half_power_factors(golden_path, t - h)
    for e, a, b in zip(exact, ahead, behind):
        assert np.max(np.abs(e - (a - b) / (2 * h))) < 1e-7


def test_theta_pair_trivial(trivial_path):
    pair = theta_pair_solve(trivial_path)
    t = np.linspace(0.0, trivial_path.params.T / 2, 51)
    # with Phi == 1 the difference grows like 2i e^t
    assert np.max(np.abs(pair.psi_route(t) - np.exp(t))) < 1e-10
    assert complex(pair.theta(np.array([0.0]))[0]) == pytest.approx(1j)
    assert complex(pair.theta_tilde(np.array([0.0]))[0]) == pytest.approx(-1j)


def test_theta_route_equivalence_golden(golden_path):
    pair = theta_pair_solve(golden_path)
    assert pair.route_equivalence_residual(grid(golden_path, 1001)) < 1e-9


@pytest.mark.parametrize("point", GOLDENS + FIXED_SWEEP_POINTS)
def test_theta_pair_matches_the_scalar_reference(point):
    ell, mu, omega, phi0 = point
    path = solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=1e-12)
    t = grid(path, 1001)
    pair = theta_pair_solve(path)
    theta, theta_tilde = pair.theta(t), pair.theta_tilde(t)
    ref_theta, ref_theta_tilde = reference_theta_pair(path)(t)
    scale = np.max(np.abs(theta))
    assert np.max(np.abs(theta - ref_theta)) <= 1e-9 * scale
    assert np.max(np.abs(theta_tilde - ref_theta_tilde)) <= 1e-9 * scale


def test_theta_pair_outside_the_half_period_is_out_of_window(golden_path):
    pair = theta_pair_solve(golden_path)
    half = golden_path.params.T / 2
    pair.theta(np.array([-half, half]))
    for t in (np.nextafter(half, np.inf), -np.nextafter(half, np.inf), np.nan):
        with pytest.raises(OutOfWindow):
            pair.theta(np.array([0.0, t]))
        with pytest.raises(OutOfWindow):
            pair.psi_route(np.array([t]))


def test_theta_pair_sweep_cap_raises_not_converged(golden_path, monkeypatch):
    # each sweep contracts by at most 0.12, so one sweep cannot settle
    monkeypatch.setattr(circle_mod, "PICARD_MAX_SWEEPS", 1)
    with pytest.raises(NotConverged):
        theta_pair_solve(golden_path)


@pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
def test_theta_pair_nan_phase_raises_not_converged(golden_path):
    # a NaN row never settles: it hits the sweep cap instead of looping
    fwd = copy.copy(golden_path._fwd)
    fwd.F = fwd.F.copy()
    fwd.F[3] = np.nan
    with pytest.raises(NotConverged):
        theta_pair_solve(dataclasses.replace(golden_path, _fwd=fwd))


def test_ray_identity_at_rho_one(golden_path):
    theta = 0.7
    val, pole = riccati_continue_ray(golden_path, theta, 1.0)
    assert not pole
    assert val == pytest.approx(np.exp(1j * golden_path.phi(theta / golden_path.params.omega)[0]))


def test_ray_outside_annulus(golden_path):
    with pytest.raises(ValueError):
        riccati_continue_ray(golden_path, 0.0, 10.0)


def test_ray_outside_window(golden_path):
    with pytest.raises(WindowTooSmall):
        riccati_continue_ray(golden_path, 100.0, 1.1)


def test_ray_agrees_with_basis_reconstruction(golden_path):
    from heun_monodromy.heun import build_E, phi_from_basis

    hb = build_E(phi_on_circle(golden_path), psi_on_circle(golden_path))
    theta, rho = 0.9, 1.1
    direct, pole = riccati_continue_ray(golden_path, theta, rho)
    assert not pole
    recon = phi_from_basis(hb, theta, rho)
    assert abs(direct - recon) < 1e-7


# --- pole handling: an exactly solvable continuation with a pole on the ray


@pytest.fixture(scope="module")
def pole_path():
    # drive-free order-zero point started at phi0 = pi/2: along theta = 0 the
    # continued solution is tanh(i pi/4 - i log(rho)/2), with a pole at
    # rho = e^{-pi/2} ~ 0.2079 inside the guarded annulus
    return solve_phase(ModelParams(ell=0.0, mu=0.0, omega=1.0), np.pi / 2, tol=1e-12)


def _exact_pole_solution(rho: float) -> complex:
    return cmath.tanh(1j * np.pi / 4 - 0.5j * np.log(rho))


def test_continuation_through_pole(pole_path):
    val, pole = riccati_continue_ray(pole_path, 0.0, 0.2)
    assert not pole
    assert abs(val - _exact_pole_solution(0.2)) < 1e-7 * abs(_exact_pole_solution(0.2))


def test_chart_switch_engaged(pole_path):
    value, pole, switches = continue_riccati_path(
        pole_path.params, 1j, [("radial", 0.0, 1.0, 0.2)]
    )
    assert switches >= 2  # in and back out of the inverse chart
    assert not pole


def test_endpoint_on_pole_flagged(pole_path):
    rho_pole = float(np.exp(-np.pi / 2))
    val, pole = riccati_continue_ray(pole_path, 0.0, rho_pole)
    assert pole


def test_exact_values_before_pole(pole_path):
    for rho in (0.5, 0.25):
        val, pole = riccati_continue_ray(pole_path, 0.0, rho)
        assert not pole
        assert abs(val - _exact_pole_solution(rho)) < 1e-8 * max(1, abs(_exact_pole_solution(rho)))
