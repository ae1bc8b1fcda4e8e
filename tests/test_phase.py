from __future__ import annotations

import numpy as np
import pytest

from heun_monodromy import ModelParams, OutOfWindow, WindowTooSmall, solve_phase
from tests.conftest import GOLDEN_1_PHI_AT_T, GOLDEN_2_PHI_AT_T


def test_zero_equilibrium(trivial_path):
    t = np.linspace(trivial_path.t_min, trivial_path.t_max, 101)
    assert np.max(np.abs(trivial_path.phi(t))) < 1e-12
    assert np.max(np.abs(trivial_path.P(t) - t)) < 1e-10


def test_unstable_equilibrium():
    path = solve_phase(ModelParams(ell=0.0, mu=0.0, omega=1.0), np.pi, tol=1e-12)
    t = np.linspace(-np.pi, np.pi, 41)
    assert np.max(np.abs(path.phi(t) - np.pi)) < 1e-9
    assert np.max(np.abs(path.P(t) + t)) < 1e-9


def test_golden_phi_at_T(golden_path, golden2_path):
    # the solved phi(T) sits within 1.8e-15 (G1) and 4.4e-16 (G2) of the oracle
    for path, expected in ((golden_path, GOLDEN_1_PHI_AT_T), (golden2_path, GOLDEN_2_PHI_AT_T)):
        T = path.params.T
        assert abs(float(path.phi(T)[0]) - expected) < 1e-13


def test_initial_conditions_exact(golden_path):
    phi, P = golden_path.at(0.0)
    assert phi == golden_path.phi0
    assert P == 0.0


def test_eval_at_step_endpoint(golden_path):
    ts = golden_path.step_times
    inner = ts[(ts > golden_path.t_min) & (ts < golden_path.t_max)]
    t = float(inner[len(inner) // 3])
    phi1, P1 = golden_path.at(t)
    # dense output is exact at accepted steps: re-evaluating nearby and
    # extrapolating cannot change the endpoint value
    phi2, P2 = golden_path.at(t)
    assert phi1 == phi2 and P1 == P2


def test_out_of_window(golden_path):
    with pytest.raises(OutOfWindow):
        golden_path.phi(golden_path.t_max + 1.0)


def test_window_too_small():
    p = ModelParams(ell=2, mu=0.3, omega=1.0)
    with pytest.raises(WindowTooSmall):
        solve_phase(p, 0.0, t_min=-1.0, t_max=1.0)


def test_tol_ladder():
    p = ModelParams(ell=2, mu=0.3, omega=1.0)
    with pytest.raises(ValueError):
        solve_phase(p, 0.0, tol=1e-2)
    with pytest.raises(ValueError):
        solve_phase(p, 0.0, tol=1e-15)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_ode_residual_within_budget(golden_params, tol):
    path = solve_phase(golden_params, 0.5, tol=tol)
    t = np.linspace(path.t_min + 0.01, path.t_max - 0.01, 1001)
    res_phi, res_p = path.ode_residual(t)
    assert float(np.max(res_phi)) <= 10 * tol
    assert float(np.max(res_p)) <= 10 * tol


def test_err_est_reported(golden_path):
    assert 0 <= golden_path.err_est <= 1e3 * golden_path.tol


def test_time_translation_property(golden_path):
    assert golden_path.time_translation_residual(1001) < 10 * golden_path.tol


def test_P_increasing_where_cos_positive(golden_path):
    ts = golden_path.step_times
    for a, b in zip(ts[:-1], ts[1:]):
        sample = np.linspace(a, b, 9)
        if np.all(np.cos(golden_path.phi(sample)) > 0.05):
            assert float(golden_path.P(b)[0]) > float(golden_path.P(a)[0])


def test_reaches_window_ends(golden_path):
    for t_edge in (golden_path.t_min, golden_path.t_max):
        vals = golden_path.eval(t_edge)
        assert np.all(np.isfinite(vals))


def _row_value(table, t):
    """One time from the kernel's own rows, one row at a time: the first step
    in the order of integration whose closed interval holds t, then for each
    component the nested x / (1 - x) recurrence over F6..F0."""
    ts = table.ts
    i = next(i for i in range(table.n) if min(ts[i], ts[i + 1]) <= t <= max(ts[i], ts[i + 1]))
    t_old, h, y_old, F = table.rows[i]
    x = (t - t_old) / h
    out = []
    for coeffs, y0 in zip(F, y_old):
        a = 0.0
        for j, f in enumerate(coeffs):
            a = (a + f) * (x if j % 2 == 0 else 1 - x)
        out.append(a + y0)
    return out


def _row_reference(path, t):
    return np.array([_row_value(path._fwd if x >= 0 else path._bwd, x) for x in t]).T


@pytest.mark.parametrize("fixture", ["golden_path", "golden2_path"])
def test_eval_is_bit_identical_to_dense_output(fixture, request):
    path = request.getfixturevalue(fixture)
    rng = np.random.default_rng(311)
    t = np.concatenate(
        [rng.uniform(path.t_min, path.t_max, 2000), path.step_times, [0.0, path.t_min, path.t_max]]
    )
    ref = _row_reference(path, t)
    assert np.array_equal(path.eval(t), ref)
    one = np.array([path.eval(float(x))[:, 0] for x in t]).T
    assert np.array_equal(one, ref)
    one_arr = np.array([path.eval(np.array([x]))[:, 0] for x in t]).T
    assert np.array_equal(one_arr, ref)


@pytest.mark.parametrize("fixture", ["golden_path", "golden2_path"])
def test_derivative_matches_rhs_at_step_nodes(fixture, request):
    # DOP853's dense output reproduces f at both ends of every step
    path = request.getfixturevalue(fixture)
    ts = path.step_times
    d = path.derivative(ts)
    phi = path.phi(ts)
    assert np.max(np.abs(d[0] - path.phidot(ts, phi))) <= 1e-13
    assert np.max(np.abs(d[1] - np.cos(phi))) <= 1e-13


def test_golden_ode_residual_tight(golden_path):
    t = np.linspace(golden_path.t_min + 0.01, golden_path.t_max - 0.01, 1001)
    res_phi, res_p = golden_path.ode_residual(t)
    assert max(float(np.max(res_phi)), float(np.max(res_p))) <= 1e-12
