from __future__ import annotations

import numpy as np
import pytest

import heun_monodromy.circle as circle_mod
from heun_monodromy import ModelParams, solve_phase
from heun_monodromy.circle import CirclePair, phi_on_circle, psi_on_circle
from heun_monodromy.errors import DenominatorVanished, OutOfWindow
from heun_monodromy.heun import apply_B_and_dot, build_E, phi_alpha_values
from heun_monodromy.monodromy import monodromy_algebraic, monodromy_direct, verify_monodromy
from heun_monodromy.sqrtmono import transform_from_path


def test_direct_trivial_fixed_point(trivial_path):
    t = np.linspace(-np.pi, np.pi, 101)
    assert np.max(np.abs(monodromy_direct(trivial_path, t) - 1.0)) < 1e-12


def test_direct_equals_algebraic_on_periodic_orbit():
    # phi == pi is an exact T-periodic solution; the mixed-sine coefficient
    # vanishes and the formula collapses to the identity
    path = solve_phase(ModelParams(ell=0.0, mu=0.0, omega=1.0), np.pi, tol=1e-12)
    t = np.linspace(-np.pi, np.pi, 101)
    alg = monodromy_algebraic(path, t)
    assert np.max(np.abs(alg - np.exp(1j * path.phi(t)))) < 1e-8
    assert np.max(np.abs(alg - monodromy_direct(path, t))) < 1e-8


def test_direct_boundary_is_stored_number(golden_path):
    T = golden_path.params.T
    lhs = monodromy_direct(golden_path, np.array([-T / 2]))[0]
    rhs = np.exp(1j * golden_path.phi(T / 2)[0])
    assert abs(lhs - rhs) < 1e-12


def test_shifted_reads_past_the_window_raise_out_of_window(golden_path, golden_quad):
    # the period shift and the lift of -z read phi past t_max; the path's own
    # window check stops both
    hb = build_E(phi_on_circle(golden_path), psi_on_circle(golden_path))
    with pytest.raises(OutOfWindow):
        monodromy_direct(golden_path, [golden_path.t_max])
    with pytest.raises(OutOfWindow):
        apply_B_and_dot(hb, golden_quad, [golden_path.t_max], coeffs=(1.0, 0.0))


def test_algebraic_vs_direct_golden(golden_path):
    T = golden_path.params.T
    t = np.linspace(-T / 2, T / 2, 1001)
    res = np.abs(monodromy_algebraic(golden_path, t) - monodromy_direct(golden_path, t))
    assert float(np.max(res)) < 1e-8


def test_algebraic_boundary_limit(golden_path):
    T = golden_path.params.T
    S_plus = CirclePair(golden_path.solution, golden_path.params).boundary()[0]
    t = np.linspace(-T / 2, -T / 2 + 0.02 * T, 50)
    vals = monodromy_algebraic(golden_path, t)
    assert abs(vals[0] - (S_plus / abs(S_plus)) ** 2) < 1e-8


def test_algebraic_unimodular_and_riccati(golden_path):
    rep = verify_monodromy(golden_path, grid_size=801, rhos=[])
    assert rep["unimodularity_residual"] < 1e-9
    assert rep["riccati_residual"] < 1e-7
    assert rep["ray_residuals"] == []


def test_ray_monodromy_golden(golden_path):
    rep = verify_monodromy(golden_path, grid_size=201, rhos=[0.8, 1.25])
    for rho, res in rep["ray_residuals"]:
        assert res < 1e-7, (rho, res)


def test_trivial_all_residuals_small(trivial_path):
    rep = verify_monodromy(trivial_path, grid_size=101, rhos=[0.8])
    assert rep["sup_residual_circle"] < 1e-12
    assert rep["boundary_residual"] < 1e-12
    assert rep["ray_residuals"][0][1] < 1e-10


def test_grid_size_guard(golden_path):
    with pytest.raises(ValueError):
        verify_monodromy(golden_path, grid_size=50)


def test_denominator_guard_fires(golden_path, golden_quad, monkeypatch):
    # one floor in circle gates the monodromy, Phi_B and the alpha family alike
    tr = transform_from_path(golden_path, golden_quad)
    hb = build_E(phi_on_circle(golden_path), psi_on_circle(golden_path))
    monkeypatch.setattr(circle_mod, "DENOMINATOR_FLOOR", 1e10)
    for values, what in ((lambda t: monodromy_algebraic(golden_path, t), "monodromy"),
                         (lambda t: tr.at(t).phi, "Phi_B"),
                         (lambda t: phi_alpha_values(*hb.pair(t), t, 0.7)[0], "phi_alpha")):
        with pytest.raises(DenominatorVanished, match=what) as err:
            values(np.linspace(-1, 1, 11))
        assert err.value.t == -1.0


def test_report_json_contract(golden_path):
    obj = verify_monodromy(golden_path, grid_size=101, rhos=[0.8])
    assert list(obj) == [
        "sup_residual_circle",
        "boundary_residual",
        "unimodularity_residual",
        "riccati_residual",
        "ray_residuals",
        "grid_size",
        "tol",
    ]
    assert obj["ray_residuals"][0][0] == 0.8


def test_direct_sqrt_branch_rule(golden_path):
    # the half power of the shifted solution continues the same branch:
    # its square is the shifted solution, never a principal-root artifact
    T = golden_path.params.T
    t = np.linspace(-T / 2, T / 2, 101)
    half = np.exp(0.5j * golden_path.phi(t + T))
    assert np.max(np.abs(half**2 - monodromy_direct(golden_path, t))) < 1e-12


def test_monodromy_idempotence_structure(golden_path):
    # applying the shift twice equals shifting by 2T where the window allows
    T = golden_path.params.T
    t = np.linspace(-T / 2, golden_path.t_max - 2 * T, 101)
    lhs = monodromy_direct(golden_path, t + T)
    rhs = np.exp(1j * golden_path.phi(t + 2 * T))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("rho", [0.19, 5.5])
def test_radius_outside_the_annulus_is_rejected(golden_path, rho):
    with pytest.raises(ValueError, match="radius"):
        verify_monodromy(golden_path, grid_size=101, rhos=[0.8, rho])
