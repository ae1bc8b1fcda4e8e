"""The reference DOP853 integrator of the tests against scipy's
``solve_ivp(method="DOP853")``, and the program against both.

scipy is a test dependency only: it is the reference here and nowhere in the
program, and no module of the program integrates with DOP853.
"""

from __future__ import annotations

import ast
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
from heun_monodromy.phase import DEFAULT_WINDOW, _max_step
from tests import dop853
from tests.conftest import GOLDEN_1, GOLDEN_2
from tests.dense_table import phase_rhs

OFF_GOLDEN = dict(ell=5.647393, mu=0.089889, omega=0.807236, phi0=0.759566)


def _padded(rows, width):
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def test_tableau_is_scipys_exactly():
    assert np.array_equal(_padded(dop853.A, ref.N_STAGES_EXTENDED), ref.A)
    assert np.array_equal(np.array(dop853.C), ref.C)
    assert np.array_equal(np.array(dop853.B), ref.B)
    assert np.array_equal(np.array(dop853.E3), ref.E3)
    assert np.array_equal(np.array(dop853.E5), ref.E5)
    assert np.array_equal(np.array(dop853.D), ref.D)


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
    # the reference integrator of the tests takes scipy's steps exactly on
    # the phase system
    params = ModelParams(ell=point["ell"], mu=point["mu"], omega=point["omega"])
    T, max_step = params.T, _max_step(params)
    for t_bound in (DEFAULT_WINDOW[1] * T, DEFAULT_WINDOW[0] * T):
        sol = dop853.dop853(phase_rhs(params), 0.0, (point["phi0"], 0.0), t_bound, 2.5e-14,
                        2.5e-16, max_step=max_step)
        ref = _scipy_phase(params, point["phi0"], t_bound, max_step)
        assert len(sol.ts) == len(ref.t)


def test_step_too_small_raises_tolerance_not_met():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    with pytest.raises(ToleranceNotMet) as info:
        dop853.dop853(lambda t, y: (y[0] * y[0],), 0.0, (1.0,), 2.0, 1e-10, 1e-12)
    assert abs(info.value.t - 1.0) < 1e-3


def test_zero_initial_step_raises_step_too_small():
    # a slope that overflows the error scale leaves no first trial step
    with pytest.raises(StepSizeTooSmall) as info:
        dop853.dop853(lambda t, y: (1e300,), 0.0, (1.0,), 1.0, 1e-14, 1e-16)
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
            dop853.dop853(lambda t, y: (math.nan,), 0.0, (1.0,), 1.0, 1e-10, 1e-12)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_step_ceiling_refuses_before_the_first_step():
    calls = []

    def fun(t, y):
        calls.append(t)
        return (0.0,)

    with pytest.raises(StepCeilingExceeded):
        dop853.dop853(fun, 0.0, (1.0,), 2.0 * dop853.MAX_STEPS, 1e-10, 1e-12, max_step=1.0)
    assert len(calls) == 2  # the initial-step probe only


def test_program_imports_no_scipy():
    src = str(Path(heun_monodromy.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import heun_monodromy.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_program_defines_or_imports_no_dop853():
    # the program integrates with Gauss collocation only: no module of the
    # package may import the rk module or a name containing dop853, or
    # define a function or class of such a name
    package = Path(heun_monodromy.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert "rk.py" not in {m.name for m in modules}
    for module in modules:
        tree = ast.parse(module.read_text(), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                continue
            for name in names:
                assert "dop853" not in name.lower() and name.split(".")[-1] != "rk", (
                    f"{module.name}:{node.lineno} refers to {name}")
