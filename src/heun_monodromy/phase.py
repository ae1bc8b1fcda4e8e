"""High-accuracy integration of the driven phase equation.

The augmented system

    dphi/dt = B + A*cos(omega*t) - sin(phi),    dP/dt = cos(phi)

is integrated forward and backward from t = 0 with an order-8 embedded
Runge-Kutta pair and dense output.  The phase is stored unwrapped: the
half-power branches downstream need the continuous lift, never phi mod 2*pi.
The global error bar comes from the dense output's own defect, propagated
along the linearised equation, so each direction is integrated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import gauss
from .errors import OutOfWindow, ToleranceNotMet, WindowTooSmall
from .params import ModelParams
from .rk import EPS, DenseTable, dop853

TOL_MIN, TOL_MAX = 1e-14, 1e-4

#: Default window in units of T, generous enough for the double symmetry
#: application (needs phi on +-3T/2 plus margin) and the monodromy shift.
DEFAULT_WINDOW = (-1.75, 2.25)


def _rhs(params: ModelParams):
    A, Bd, omega = params.A, params.Bdrive, params.omega
    cos, sin = math.cos, math.sin

    def rhs(t, y):
        return (Bd + A * cos(omega * t) - sin(y[0]), cos(y[0]))

    return rhs


@dataclass
class PhasePath:
    """Dense solution (phi, P) on [t_min, t_max] with a certified error bar."""

    params: ModelParams
    phi0: float
    t_min: float
    t_max: float
    tol: float
    err_est: float
    _fwd: DenseTable = field(repr=False)
    _bwd: DenseTable = field(repr=False)

    def _check_window(self, lo: float, hi: float):
        slack = 1e-9 * self.params.T
        if lo < self.t_min - slack or hi > self.t_max + slack:
            raise OutOfWindow(
                f"t range [{lo}, {hi}] outside window [{self.t_min}, {self.t_max}]"
            )

    def _split(self, t, derivative: bool) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.size:
            # NaN-ignoring extremes, so a NaN never hides an out-of-window time
            self._check_window(np.fmin.reduce(t, axis=None), np.fmax.reduce(t, axis=None))
        out = np.empty((2,) + t.shape)
        m = t >= 0
        if m.any():
            out[:, m] = self._fwd(t[m], derivative)
        if not m.all():
            out[:, ~m] = self._bwd(t[~m], derivative)
        return out

    def at(self, t: float) -> tuple[float, float]:
        """(phi, P) at one time as floats, for the scalar right-hand sides."""
        self._check_window(t, t)
        phi, P = (self._fwd if t >= 0 else self._bwd).at(t)
        return phi, P

    def eval(self, t) -> np.ndarray:
        """(2, n) array of (phi, P) values; vectorized over t."""
        if isinstance(t, float):
            s = t
        elif isinstance(t, np.ndarray) and t.shape == (1,):
            s = float(t[0])
        else:
            return self._split(t, derivative=False)
        # one point: skip the array machinery
        phi, P = self.at(s)
        return np.array(((phi,), (P,)))

    def phi(self, t):
        return self.eval(t)[0]

    def P(self, t):
        return self.eval(t)[1]

    def phidot(self, t, phi_val=None):
        """dphi/dt along the solution (right-hand side, no differencing)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if phi_val is None:
            phi_val = self.phi(t)
        p = self.params
        return p.Bdrive + p.A * np.cos(p.omega * t) - np.sin(phi_val)

    def derivative(self, t) -> np.ndarray:
        """Exact (2, n) derivative of the dense interpolant itself."""
        return self._split(t, derivative=True)

    def ode_residual(self, t) -> tuple[np.ndarray, np.ndarray]:
        """|interpolant' - rhs| for the phi and P components at samples t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        d = self.derivative(t)
        phi_val, _ = self.eval(t)
        p = self.params
        res_phi = np.abs(d[0] - (p.Bdrive + p.A * np.cos(p.omega * t) - np.sin(phi_val)))
        res_p = np.abs(d[1] - np.cos(phi_val))
        return res_phi, res_p

    def time_translation_residual(self, grid_size: int = 1001) -> float:
        """sup residual of phi(. + T) against the phase equation.

        Checks the period-shift property on a uniform grid of t with both t
        and t + T inside the window.
        """
        T = self.params.T
        lo, hi = self.t_min, self.t_max - T
        if hi <= lo:
            raise WindowTooSmall("window shorter than one period")
        t = np.linspace(lo, hi, grid_size)
        d = self.derivative(t + T)
        phi_shift = self.phi(t + T)
        p = self.params
        res = d[0] - (p.Bdrive + p.A * np.cos(p.omega * t) - np.sin(phi_shift))
        return float(np.max(np.abs(res)))

    @property
    def step_times(self) -> np.ndarray:
        """Accepted step endpoints (ascending)."""
        return np.concatenate([self._bwd.ts[::-1], self._fwd.ts[1:]])


def _max_step(params: ModelParams) -> float:
    """Step cap: T/200, and 0.12 over the phase's turning rate |B| + |A| + 1,
    which bounds the order-7 dense output's derivative error (see CHANGES.md)."""
    return min(params.T / 200.0, 0.12 / (abs(params.Bdrive) + abs(params.A) + 1.0))


def _error_estimate(table: DenseTable, params: ModelParams) -> float:
    """Global error estimate of one table (derived in CHANGES.md).

    The error e = interpolant - solution is propagated from the defect
    d = interpolant' - rhs along the linearised equation

        e_phi' = -cos(phi) e_phi + d_phi,    e_P' = -sin(phi) e_phi + d_P,

    from e(0) = 0, so e_phi(t) = exp(-P(t)) int_0^t exp(P(s)) d_phi(s) ds, with
    exp(P) taken relative to each row's start so nothing overflows.  The
    integrals are 10-point Gauss-Legendre on every row, cumulative up to each
    node.  Returns sup |e_phi|, |e_P| over the nodes and the row ends, plus
    EPS * max|y| for the rounding of an evaluated value."""
    t, (phi, P), (dphi, dP) = table.sample(0.5 * (gauss.X + 1.0))
    d_phi = dphi - (params.Bdrive + params.A * np.cos(params.omega * t) - np.sin(phi))
    d_P = dP - np.cos(phi)
    half = 0.5 * table.h[:, None]
    P0 = table.y_old[:, 1:]
    g = np.exp(P - P0) * d_phi
    # e_phi at each row's end, one multiply-add per row
    decay = np.exp(-table.F[:, 1, -1])  # F0 is the row's increment
    full = half[:, 0] * (g @ gauss.W)
    ends = list(accumulate(zip(decay.tolist(), full.tolist()),
                           lambda e, step: step[0] * (e + step[1]), initial=0.0))
    e_phi = np.exp(P0 - P) * (np.array(ends[:-1])[:, None] + half * (g @ gauss.CUMULATIVE))
    q = d_P - np.sin(phi) * e_phi
    e_P_ends = np.cumsum(half[:, 0] * (q @ gauss.W))
    e_P = np.concatenate(([0.0], e_P_ends[:-1]))[:, None] + half * (q @ gauss.CUMULATIVE)
    sup = max(np.max(np.abs(e_phi)), np.max(np.abs(ends)),
              np.max(np.abs(e_P)), np.max(np.abs(e_P_ends)))
    return float(sup + EPS * max(np.max(np.abs(phi)), np.max(np.abs(P))))


def solve_phase(
    params: ModelParams,
    phi0: float,
    t_min: float | None = None,
    t_max: float | None = None,
    tol: float = 1e-12,
) -> PhasePath:
    """Integrate the augmented phase system over a window containing [-T, T].

    The global error estimate propagates the dense output's defect along the
    linearised equation (``_error_estimate``); an estimate beyond 1e3*tol
    raises ToleranceNotMet.
    """
    T = params.T
    if t_min is None:
        t_min = DEFAULT_WINDOW[0] * T
    if t_max is None:
        t_max = DEFAULT_WINDOW[1] * T
    if not (t_min <= -T and t_max >= T):
        raise WindowTooSmall(f"window [{t_min}, {t_max}] must contain [-T, T] = [{-T}, {T}]")
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")

    rhs = _rhs(params)
    # the solver runs two decades below the requested tolerance (with a
    # bounded step) so that the *interpolant derivative* also honors the
    # 10*tol residual contract, not just the node values
    rtol = max(tol * 1e-2, 2.5e-14)
    fwd, bwd = (
        DenseTable(dop853(rhs, 0.0, (phi0, 0.0), t_bound, rtol, rtol * 1e-2,
                          max_step=_max_step(params), dense=True))
        for t_bound in (t_max, t_min)
    )
    err_est = max(_error_estimate(fwd, params), _error_estimate(bwd, params))
    if err_est > 1e3 * tol:
        raise ToleranceNotMet(
            f"propagated defect {err_est:.3e} exceeds 1e3*tol = {1e3 * tol:.3e}"
        )
    return PhasePath(
        params=params,
        phi0=phi0,
        t_min=t_min,
        t_max=t_max,
        tol=tol,
        err_est=err_est,
        _fwd=fwd,
        _bwd=bwd,
    )
