from __future__ import annotations

import numpy as np
import pytest

import heun_monodromy.sqrtmono as sqrt_mod
from heun_monodromy import ModelParams, solve_phase
from heun_monodromy.circle import boundary_values, riccati_circle_residual
from heun_monodromy.errors import DegenerateAtOne, GenericityViolated, OutOfWindow
from heun_monodromy.heunpoly import NumericQuad, diagonal
from heun_monodromy.rk import DenseTable, dop853
from heun_monodromy.sqrtmono import (
    _shortcuts_from_scalars,
    build_shortcuts,
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
    b = golden_transform.at(t)
    assert np.max(np.abs(np.abs(b.phi) - 1.0)) < 1e-8
    ric = riccati_circle_residual(golden_path.params, t, b.phi, b.phi_dot)
    assert np.max(np.abs(ric)) < 1e-7
    assert abs(abs(golden_transform.phi_B(np.array([0.0]))[0]) - 1.0) < 1e-9


def test_phi_B_build_entry_point(golden_path, golden_quad):
    tr = transform_from_path(golden_path, golden_quad)
    t = grid(golden_path, 101)
    assert np.max(np.abs(tr.phi_B(t))) == pytest.approx(1.0, abs=1e-8)


def test_psi_B_properties(golden_transform, golden_path):
    t = grid(golden_path)
    b = golden_transform.at(t)
    assert np.max(np.abs(b.psi.imag)) < 1e-12
    assert np.min(b.psi.real) > 0
    assert abs(golden_transform.at(0.0).psi[0] - 1.0) < 1e-8
    assert np.max(np.abs(b.psi_dot - 0.5 * (b.phi + 1.0 / b.phi) * b.psi)) < 1e-6


def test_theta_pair_initial_conditions(golden_transform):
    b0 = golden_transform.at(0.0)
    assert abs(b0.theta[0] - 1j) < 1e-8 and abs(b0.theta_tilde[0] + 1j) < 1e-8


def test_theta_pair_mirror_system(golden_transform, golden_path):
    b = golden_transform.at(grid(golden_path))
    delta = b.theta - b.theta_tilde
    assert np.max(np.abs(2.0 * b.theta_dot + b.phi * delta)) < 1e-6
    assert np.max(np.abs(2.0 * b.theta_tilde_dot - delta / b.phi)) < 1e-6
    assert np.max(np.abs(delta / 2j * b.psi - 1.0)) < 1e-8


def test_theta_pair_entry_point(golden_path, golden_quad):
    tr = transform_from_path(golden_path, golden_quad)
    b0 = tr.at(np.array([0.0]))
    assert complex(b0.theta[0]) == pytest.approx(1j, abs=1e-10)
    assert complex(b0.theta_tilde[0]) == pytest.approx(-1j, abs=1e-10)
    # Psi_B from the transform equals (2i)^-1 difference inverted
    b = tr.at(grid(golden_path, 101))
    mirror = (b.theta - b.theta_tilde) / 2j
    assert np.max(np.abs(mirror * b.psi - 1.0)) < 1e-8


def test_theta_dots_match_fd(golden_transform, golden_path):
    t = grid(golden_path, 51)
    h = 1e-6
    b, b_hi, b_lo = (golden_transform.at(u) for u in (t, t + h, t - h))
    fd = (b_hi.theta - b_lo.theta) / (2 * h)
    assert np.max(np.abs(b.theta_dot - fd)) < 1e-7
    fd2 = (b_hi.theta_tilde - b_lo.theta_tilde) / (2 * h)
    assert np.max(np.abs(b.theta_tilde_dot - fd2)) < 1e-7


def test_bundle_phase_is_the_transform_phase(golden_transform, golden_path):
    t = grid(golden_path, 101)
    assert np.array_equal(golden_transform.at(t).phase, golden_transform.phase(t))


def test_phase_reconstruction_anchoring(golden_transform):
    # principal argument at t=0, continuous elsewhere
    ph0 = float(golden_transform.phase(np.array([0.0]))[0])
    assert -np.pi < ph0 <= np.pi
    t = np.linspace(-1.0, 1.0, 201)
    ph = golden_transform.phase(t)
    assert np.max(np.abs(np.diff(ph))) < 0.1  # continuous, no 2 pi jumps


def branch_grid_phase(tr, t, margin=0.05, n=8193):
    """phase() as it was computed from an unwrapped 8193-point branch grid."""
    T = tr.params.T
    ts = np.linspace(min(-margin * T + t.min(), 0.0), max(margin * T + t.max(), 0.0), n)
    ph = np.unwrap(np.angle(tr.phi_B(ts)))
    anchor = float(np.angle(tr.phi_B(np.array([0.0]))[0]))
    ph -= 2 * np.pi * np.round((ph[np.argmin(np.abs(ts))] - anchor) / (2 * np.pi))
    base = np.interp(t, ts, ph)
    a = np.angle(tr.phi_B(t))
    return a + 2 * np.pi * np.round((base - a) / (2 * np.pi))


def dop853_P_B(tr, span):
    """P_B as it was computed: DOP853 on cos(phase(t)), one point per call."""

    def rhs(t, y):
        return (np.cos(tr.phase(np.array([t]))[0]),)

    fwd, bwd = (
        DenseTable(dop853(rhs, 0.0, (0.0,), bound, 1e-12, 1e-14, dense=True))
        for bound in (span, -span)
    )
    return lambda t: np.where(t >= 0, fwd(t)[0], bwd(t)[0])


def test_phase_equals_the_branch_grid_phase(golden2_path, golden2_quad):
    T = golden2_path.params.T
    t = np.linspace(-0.55 * T, 0.55 * T, 20001)
    tr = transform_from_path(golden2_path, golden2_quad)
    assert np.array_equal(tr.phase(t), branch_grid_phase(tr, t))


@pytest.mark.parametrize(
    "point", [(2, 0.3, 1.0, 0.5), (1, 0.2, 1.3, 1.0), (5, 0.3375, 0.9352, 0.6573)]
)
def test_panel_P_B_agrees_with_the_dop853_quadrature(point):
    ell, mu, omega, phi0 = point
    params = ModelParams(ell=ell, mu=mu, omega=omega)
    path = solve_phase(params, phi0, tol=1e-12)
    tr = transform_from_path(path, NumericQuad(diagonal(ell), params))
    span = 0.55 * params.T
    t = np.linspace(-span, span, 2001)
    assert np.max(np.abs(tr.quadrature(span)(t) - dop853_P_B(tr, span)(t))) < 1e-11


def test_gauss_legendre_literals():
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(10)
    assert np.max(np.abs(sqrt_mod._GL_X - x)) <= 1e-15
    assert np.max(np.abs(sqrt_mod._GL_W - w)) <= 1e-15


def test_panel_table_is_converged(golden2_path, golden2_quad, monkeypatch):
    T = golden2_path.params.T
    t = np.linspace(-0.55 * T, 0.55 * T, 20001)
    runs = []
    for panels in (400, 800):
        monkeypatch.setattr(sqrt_mod, "_PANELS", panels)
        tr = transform_from_path(golden2_path, golden2_quad)
        runs.append((tr.phase(t), tr.quadrature(0.55 * T)(t), tr.table(1, t)))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.max(np.abs(runs[0][1] - runs[1][1])) <= 1e-14
    assert np.max(np.abs(runs[0][2] - runs[1][2])) <= 1e-14


def test_panel_table_never_extrapolates(golden_transform, golden_path):
    span = 0.55 * golden_path.params.T
    P_B = golden_transform.quadrature(span)
    assert P_B(np.array([0.0]))[0] == 0.0
    for t in (np.array([span * (1 + 1e-12)]), np.array([0.0, -span * 1.01]), np.array([np.nan])):
        with pytest.raises(OutOfWindow):
            P_B(t)
        with pytest.raises(OutOfWindow):
            golden_transform.phase(t)
    with pytest.raises(OutOfWindow):
        golden_transform.quadrature(span * 1.01)


def test_theorem2_golden_set1(golden_path, golden_quad, monkeypatch):
    builds = []
    build = sqrt_mod.SqrtMonodromyTransform._build_table

    def counting_build(self):
        builds.append(id(self))
        return build(self)

    monkeypatch.setattr(sqrt_mod.SqrtMonodromyTransform, "_build_table", counting_build)
    rep = verify_theorem2(golden_path, golden_quad, grid_size=1001)
    # one table, built once by the first transform; the second never needs one
    assert len(builds) == 1
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
