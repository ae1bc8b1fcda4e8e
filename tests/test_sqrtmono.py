from __future__ import annotations

import numpy as np
import pytest

from heun_monodromy import ModelParams, solve_phase
from heun_monodromy.circle import boundary_values, phi_on_circle, psi_on_circle
from heun_monodromy.errors import DegenerateAtOne, GenericityViolated
from heun_monodromy.heunpoly import NumericQuad, diagonal
from heun_monodromy.sqrtmono import (
    ThetaBPair,
    _shortcuts_from_scalars,
    build_phi_B,
    build_shortcuts,
    build_theta_B_pair,
    transform_from_path,
    verify_theorem2,
)


@pytest.fixture(scope="module")
def golden_transform(golden_path, golden_quad):
    return transform_from_path(golden_path, golden_quad)


def grid(path, n=801):
    T = path.params.T
    return np.linspace(-T / 2, T / 2, n)


def test_shortcuts_trivial_values(golden_quad):
    sc = _shortcuts_from_scalars(0.0, 0.0, 0.0, 0.0, 0.0, golden_quad)  # ell = 2
    assert sc.u_plus == pytest.approx(1 + 1j)
    assert sc.u_minus == pytest.approx(1 - 1j)
    assert sc.v_plus == pytest.approx(1 + 1j)
    assert sc.w_plus == pytest.approx(1 + 1j)
    assert sc.w_minus == pytest.approx(1 - 1j)


def test_shortcut_recomputation_and_moduli(golden_path, golden_quad):
    bv = boundary_values(golden_path)
    sc = build_shortcuts(bv, golden_quad, golden_path.params)
    sgn = (-1.0) ** 2
    expected_u_plus = sgn * np.exp(0.5j * bv.phi_plus) + 1j * np.exp(-0.5j * bv.phi_plus)
    assert sc.u_plus == pytest.approx(expected_u_plus, abs=1e-12)
    assert sc.modulus_spot_check() <= 4.0 + 1e-12
    # |u+|^2 + |u-|^2 = 4 for a sum/difference of two unit phases
    assert abs(sc.u_plus) ** 2 + abs(sc.u_minus) ** 2 == pytest.approx(4.0, rel=1e-12)
    assert abs(sc.v_plus) ** 2 + abs(sc.v_minus) ** 2 == pytest.approx(4.0, rel=1e-12)
    assert abs(sc.w_plus) ** 2 + abs(sc.w_minus) ** 2 == pytest.approx(4.0, rel=1e-12)


def test_genericity_gate():
    params = ModelParams(ell=1, mu=0.5, omega=1.0)  # A = 1: D- = 0
    path = solve_phase(params, 0.5, tol=1e-10)
    nq = NumericQuad(diagonal(1), params)
    with pytest.raises(GenericityViolated):
        build_shortcuts(boundary_values(path), nq, params)


def test_degenerate_phase_gate(golden_quad):
    params = ModelParams(ell=2, mu=0.3, omega=1.0)
    path = solve_phase(params, np.pi / 2, tol=1e-10)
    with pytest.raises(DegenerateAtOne):
        transform_from_path(path, golden_quad)


def test_gates_produce_no_nan():
    params = ModelParams(ell=1, mu=0.5, omega=1.0)
    path = solve_phase(params, 0.5, tol=1e-10)
    nq = NumericQuad(diagonal(1), params)
    try:
        build_shortcuts(boundary_values(path), nq, params)
    except GenericityViolated as exc:
        assert "nan" not in str(exc).lower()
    else:  # pragma: no cover
        pytest.fail("expected GenericityViolated")


def test_phi_B_unimodular_and_riccati(golden_transform, golden_path):
    t = grid(golden_path)
    assert golden_transform.unimodularity_residual(t) < 1e-8
    assert golden_transform.riccati_residual(t) < 1e-7
    assert abs(abs(golden_transform.phi_B(np.array([0.0]))[0]) - 1.0) < 1e-9


def test_phi_B_build_entry_point(golden_path, golden_quad):
    bv = boundary_values(golden_path)
    sc = build_shortcuts(bv, golden_quad, golden_path.params)
    tr = build_phi_B(phi_on_circle(golden_path), psi_on_circle(golden_path), sc)
    t = grid(golden_path, 101)
    assert np.max(np.abs(tr.phi_B(t))) == pytest.approx(1.0, abs=1e-8)


def test_psi_B_properties(golden_transform, golden_path):
    t = grid(golden_path)
    psi = golden_transform.psi_B(t)
    assert np.max(np.abs(psi.imag)) < 1e-12
    assert np.min(psi.real) > 0
    assert abs(golden_transform.psi_B(np.array([0.0]))[0] - 1.0) < 1e-8
    assert golden_transform.psi_equation_residual(t) < 1e-6


def test_theta_pair_initial_conditions(golden_transform):
    pair = ThetaBPair(golden_transform)
    ic1, ic2 = pair.initial_condition_residual()
    assert ic1 < 1e-8 and ic2 < 1e-8


def test_theta_pair_mirror_system(golden_transform, golden_path):
    pair = ThetaBPair(golden_transform)
    t = grid(golden_path)
    assert pair.mirror_system_residual(t) < 1e-6
    assert pair.psi_reciprocal_residual(t) < 1e-8


def test_theta_pair_entry_point(golden_path, golden_quad):
    bv = boundary_values(golden_path)
    sc = build_shortcuts(bv, golden_quad, golden_path.params)
    pair, tr = build_theta_B_pair(phi_on_circle(golden_path), psi_on_circle(golden_path), sc)
    assert complex(pair.theta_B(np.array([0.0]))[0]) == pytest.approx(1j, abs=1e-10)
    assert complex(pair.theta_tilde_B(np.array([0.0]))[0]) == pytest.approx(-1j, abs=1e-10)
    # Psi_B from the transform equals (2i)^-1 difference inverted
    t = grid(golden_path, 101)
    mirror = (pair.theta_B(t) - pair.theta_tilde_B(t)) / 2j
    assert np.max(np.abs(mirror * tr.psi_B(t) - 1.0)) < 1e-8


def test_theta_dots_match_fd(golden_transform, golden_path):
    pair = ThetaBPair(golden_transform)
    t = grid(golden_path, 51)
    h = 1e-6
    fd = (pair.theta_B(t + h) - pair.theta_B(t - h)) / (2 * h)
    assert np.max(np.abs(pair.theta_B_dot(t) - fd)) < 1e-7
    fd2 = (pair.theta_tilde_B(t + h) - pair.theta_tilde_B(t - h)) / (2 * h)
    assert np.max(np.abs(pair.theta_tilde_B_dot(t) - fd2)) < 1e-7


def test_phase_reconstruction_anchoring(golden_transform):
    # principal argument at t=0, continuous elsewhere
    ph0 = float(golden_transform.phase(np.array([0.0]))[0])
    assert -np.pi < ph0 <= np.pi
    t = np.linspace(-1.0, 1.0, 201)
    ph = golden_transform.phase(t)
    assert np.max(np.abs(np.diff(ph))) < 0.1  # continuous, no 2 pi jumps


def test_phase_and_P_B_do_not_depend_on_the_branch_grid(golden2_path, golden2_quad, monkeypatch):
    # the grid only selects the branch: grids over different windows give
    # the same bits, and so the same quadrature steps for P_B
    import heun_monodromy.sqrtmono as sqrt_mod

    T = golden2_path.params.T
    t = np.linspace(-0.55 * T, 0.55 * T, 20001)
    runs = []
    for margin in (0.05, 0.06, 0.07):
        monkeypatch.setattr(sqrt_mod, "_BRANCH_MARGIN", margin)
        tr = transform_from_path(golden2_path, golden2_quad)
        P_B = tr.quadrature(0.55 * T)
        runs.append((tr.phase(t), P_B(t)))
    for phase, P in runs[1:]:
        assert np.array_equal(phase, runs[0][0])
        assert np.array_equal(P, runs[0][1])


def test_theorem2_golden_set1(golden_path, golden_quad, monkeypatch):
    import heun_monodromy.sqrtmono as sqrt_mod

    built = []

    def capture(path, nq):
        built.append(transform_from_path(path, nq))
        return built[-1]

    monkeypatch.setattr(sqrt_mod, "transform_from_path", capture)
    rep = verify_theorem2(golden_path, golden_quad, grid_size=1001)
    # the branch grid is built once, covering every window phase() needs
    assert [tr.branch_builds for tr in built] == [1]
    assert rep["b_squared_residual"] < 1e-6
    assert rep["sup_phi_residual"] < 1e-7
    assert rep["unimodularity_residual"] < 1e-8
    assert rep["phase_equation_residual"] < 1e-6
    assert rep["psi_equation_residual"] < 1e-6
    assert rep["psi_at_1_residual"] < 1e-8
    assert rep["theta_system_residual"] < 1e-6
    assert rep["theta_ic_residual"] < 1e-8
    assert rep["conventions"]["minus_z_lift"] == "t+T/2"


def test_theorem2_golden_set2(golden2_path, golden2_quad):
    rep = verify_theorem2(golden2_path, golden2_quad, grid_size=1001)
    assert rep["b_squared_residual"] < 1e-6
    assert rep["theta_system_residual"] < 1e-6
    assert rep["psi_quadrature_residual"] < 1e-8


def test_window_guard(golden_params, golden_quad):
    small = solve_phase(golden_params, 0.5, t_min=-1.2 * golden_params.T,
                        t_max=1.5 * golden_params.T, tol=1e-10)
    from heun_monodromy.errors import WindowTooSmall

    with pytest.raises(WindowTooSmall):
        verify_theorem2(small, golden_quad)
