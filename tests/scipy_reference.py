"""The reference solves of the tests, all with scipy's
``solve_ivp(method="DOP853", dense_output=True)``, an integrator the program
does not use.

Each reference integrates from t = 0 forward to the right end and backward
to the left end, and reads a time t >= 0 from the forward solve, as
``PhasePath`` does.  Three references are built on that:

- ``resolve_disagreement``: the tol/100 re-solve of the phase system that
  ``solve_phase`` reported as ``err_est`` before its defect estimate;
- ``reference_theta_pair``: the scalar theta-pair solve that
  ``circle.theta_pair_solve`` replaced with Gauss collocation;
- ``reference_P_B``: ``P_B`` as it was computed before the ``sqrtmono``
  panel table, an ODE solve of cos(phase(t)).
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp

from heun_monodromy.params import ModelParams
from heun_monodromy.phase import PhasePath, turning_rate

REFINE = 100.0
PROBES = 317
THETA_RTOL = 1e-12


def two_sided(rhs, y0, t_min, t_max, rtol, atol, max_step=np.inf):
    """y' = rhs(t, y), y(0) = y0, on [t_min, t_max]: a function of an array
    of times giving the (len(y0), n) values."""
    fwd, bwd = (
        solve_ivp(rhs, (0.0, bound), y0, method="DOP853", rtol=rtol, atol=atol,
                  max_step=max_step, dense_output=True)
        for bound in (t_max, t_min)
    )
    assert fwd.success and bwd.success, (fwd.message, bwd.message)

    def values(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.where(t >= 0, fwd.sol(np.maximum(t, 0.0)), bwd.sol(np.minimum(t, 0.0)))

    return values


def phase_rhs(params: ModelParams):
    """dphi/dt = B + A*cos(omega*t) - sin(phi),  dP/dt = cos(phi)."""
    A, Bd, omega = params.A, params.Bdrive, params.omega
    cos, sin = math.cos, math.sin

    def rhs(t, y):
        return (Bd + A * cos(omega * t) - sin(y[0]), cos(y[0]))

    return rhs


def resolve_disagreement(path: PhasePath) -> float:
    """max |path - reference| over the probes, both components.

    The window is integrated again at tol/100 with the step cap
    0.12 / turning_rate, scaled by 200/293, so the reference takes a
    different step sequence from the phase rows, and the two are compared
    at 317 probes across the window.
    """
    rtol = max(path.tol / REFINE * 1e-2, 2.5e-14)
    max_step = 0.12 / turning_rate(path.params) * 200.0 / 293.0
    reference = two_sided(phase_rhs(path.params), (path.phi0, 0.0), path.t_min, path.t_max,
                          rtol, rtol * 1e-2, max_step)
    probe = np.linspace(path.t_min, path.t_max, PROBES)
    return float(np.max(np.abs(path.eval(probe) - reference(probe))))


def reference_theta_pair(path: PhasePath):
    """(Theta(t), ThetaTilde(t)) as a function of an array of times: the four
    real components integrated at rtol 1e-12 over the whole window, with phi
    from one one-point ``PhasePath.phi`` call per stage."""

    def rhs(t, y):
        Phi = cmath.exp(1j * float(path.phi(t)[0]))
        d = complex(y[0], y[1]) - complex(y[2], y[3])
        dth = 0.5 * Phi * d
        dtht = -0.5 * d / Phi
        return (dth.real, dth.imag, dtht.real, dtht.imag)

    reference = two_sided(rhs, (0.0, 1.0, 0.0, -1.0), path.t_min, path.t_max,
                          THETA_RTOL, THETA_RTOL * 1e-2)

    def values(t):
        Y = reference(t)
        return Y[0] + 1j * Y[1], Y[2] + 1j * Y[3]

    return values


def reference_P_B(tr, span):
    """P_B on [-span, span] from dP_B/dt = cos(phase(t)), one point per call."""

    def rhs(t, y):
        return (np.cos(tr.phase(np.array([t]))[0]),)

    reference = two_sided(rhs, (0.0,), -span, span, 1e-12, 1e-14)
    return lambda t: reference(t)[0]
