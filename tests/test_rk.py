"""The in-package DOP853 kernel against scipy's ``solve_ivp(method="DOP853")``.

scipy is a test dependency only: it is the reference here and nowhere in the
program.
"""

from __future__ import annotations

import math
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as ref

import heun_monodromy
from heun_monodromy import (
    ModelParams,
    StepCeilingExceeded,
    StepSizeTooSmall,
    ToleranceNotMet,
    solve_phase,
)
from heun_monodromy import rk
from heun_monodromy.circle import CHART_SWITCH_UP, riccati_rhs
from heun_monodromy.phase import DEFAULT_WINDOW, _max_step
from tests.conftest import GOLDEN_1, GOLDEN_2
from tests.dense_table import phase_rhs

OFF_GOLDEN = dict(ell=5.647393, mu=0.089889, omega=0.807236, phi0=0.759566)


def _padded(rows, width):
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def test_tableau_is_scipys_exactly():
    assert np.array_equal(_padded(rk.A, ref.N_STAGES_EXTENDED), ref.A)
    assert np.array_equal(np.array(rk.C), ref.C)
    assert np.array_equal(np.array(rk.B), ref.B)
    assert np.array_equal(np.array(rk.E3), ref.E3)
    assert np.array_equal(np.array(rk.E5), ref.E5)
    assert np.array_equal(np.array(rk.D), ref.D)


def _scipy_phase(params, phi0, t_bound, max_step):
    # the settings solve_phase used with DOP853 at tol = 1e-12: rtol 2.5e-14
    # and max step min(T/200, 0.12/(|B| + |A| + 1)); the second cap binds at
    # OFF_GOLDEN
    A, Bd, omega = params.A, params.Bdrive, params.omega

    def rhs(t, y):
        return (Bd + A * np.cos(omega * t) - np.sin(y[0]), np.cos(y[0]))

    return solve_ivp(rhs, (0.0, t_bound), (phi0, 0.0), method="DOP853", rtol=2.5e-14,
                     atol=2.5e-16, max_step=max_step, dense_output=True)


@pytest.mark.parametrize("point", [GOLDEN_1, GOLDEN_2, OFF_GOLDEN], ids=["G1", "G2", "off"])
def test_phase_solve_matches_scipy(point):
    params = ModelParams(ell=point["ell"], mu=point["mu"], omega=point["omega"])
    path = solve_phase(params, point["phi0"], tol=1e-12)
    sols = [_scipy_phase(params, point["phi0"], t_bound, _max_step(params))
            for t_bound in (path.t_max, path.t_min)]
    t = np.random.default_rng(5).uniform(path.t_min, path.t_max, 5000)
    expect = np.where(t >= 0, sols[0].sol(t), sols[1].sol(t))
    assert np.max(np.abs(path.eval(t) - expect)) <= 1e-12


@pytest.mark.parametrize("point", [GOLDEN_1, GOLDEN_2, OFF_GOLDEN], ids=["G1", "G2", "off"])
def test_dop853_phase_steps_match_scipy(point):
    # the kernel still serves the Riccati and DCHE continuations: on the
    # phase system it takes scipy's steps exactly
    params = ModelParams(ell=point["ell"], mu=point["mu"], omega=point["omega"])
    T, max_step = params.T, _max_step(params)
    for t_bound in (DEFAULT_WINDOW[1] * T, DEFAULT_WINDOW[0] * T):
        sol = rk.dop853(phase_rhs(params), 0.0, (point["phi0"], 0.0), t_bound, 2.5e-14,
                        2.5e-16, max_step=max_step)
        ref = _scipy_phase(params, point["phi0"], t_bound, max_step)
        assert len(sol.ts) == len(ref.t)


def _scipy_event(fun, t_span, y0, event, direction, rtol):
    event.terminal = True
    event.direction = direction
    sol = solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=rtol * 1e-2, events=event)
    assert sol.status == 1
    return sol.t_events[0][0], sol.y_events[0][0]


def test_terminal_event_exponential():
    def fun(t, y):
        return (y[0],)

    def event(t, y):
        return y[0] - 2.0

    sol = rk.dop853(fun, 0.0, (1.0,), 5.0, 1e-12, 1e-14, event=event, direction=1.0)
    t_ref, y_ref = _scipy_event(fun, (0.0, 5.0), (1.0,), event, 1.0, 1e-12)
    assert sol.terminated
    assert abs(sol.t - t_ref) <= 1e-12
    assert abs(sol.t - math.log(2.0)) <= 1e-11  # the integration error itself
    assert abs(sol.y[0] - y_ref[0]) <= 1e-12


def test_terminal_event_riccati_chart_switch():
    # the drive-free point of test_circle's pole path: along the ray theta = 0
    # from Phi(1) = i, |Phi| reaches the chart bound before the pole at e^{-pi/2}
    params = ModelParams(ell=0.0, mu=0.0, omega=1.0)

    def fun(s, y):
        d = riccati_rhs(params, complex(s, 0.0), complex(y[0], y[1]))
        return (d.real, d.imag)

    def event(s, y):
        return y[0] ** 2 + y[1] ** 2 - CHART_SWITCH_UP**2

    sol = rk.dop853(fun, 1.0, (0.0, 1.0), 0.2, 1e-12, 1e-14, event=event)
    t_ref, y_ref = _scipy_event(fun, (1.0, 0.2), (0.0, 1.0), event, 0.0, 1e-12)
    assert sol.terminated
    assert math.exp(-math.pi / 2) < sol.t < 1.0
    assert abs(sol.t - t_ref) <= 1e-12
    assert abs(math.hypot(*sol.y) - CHART_SWITCH_UP) <= 1e-6 * CHART_SWITCH_UP
    assert np.max(np.abs(np.array(sol.y) - y_ref)) <= 1e-12 * CHART_SWITCH_UP**2


def test_step_too_small_raises_tolerance_not_met():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    with pytest.raises(ToleranceNotMet) as info:
        rk.dop853(lambda t, y: (y[0] * y[0],), 0.0, (1.0,), 2.0, 1e-10, 1e-12)
    assert abs(info.value.t - 1.0) < 1e-3


def test_zero_initial_step_raises_step_too_small():
    # a slope that overflows the error scale leaves no first trial step
    with pytest.raises(StepSizeTooSmall) as info:
        rk.dop853(lambda t, y: (1e300,), 0.0, (1.0,), 1.0, 1e-14, 1e-16)
    assert info.value.t == 0.0


def test_nan_right_hand_side_raises_step_too_small():
    # a NaN slope makes the step size NaN, which `h < min_step` never
    # rejects: the integrator would loop forever, so the test runs under a
    # 10 s alarm and fails instead of hanging
    def expire(signum, frame):
        raise TimeoutError("dop853 still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        with pytest.raises(StepSizeTooSmall):
            rk.dop853(lambda t, y: (math.nan,), 0.0, (1.0,), 1.0, 1e-10, 1e-12)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_step_ceiling_refuses_before_the_first_step():
    calls = []

    def fun(t, y):
        calls.append(t)
        return (0.0,)

    with pytest.raises(StepCeilingExceeded):
        rk.dop853(fun, 0.0, (1.0,), 2.0 * rk.MAX_STEPS, 1e-10, 1e-12, max_step=1.0)
    assert len(calls) == 2  # the initial-step probe only


def test_program_imports_no_scipy():
    src = str(Path(heun_monodromy.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import heun_monodromy.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
