"""High-accuracy integration of the driven phase equation.

The augmented system

    dphi/dt = B + A*cos(omega*t) - sin(phi),    dP/dt = cos(phi)

is integrated forward and backward from t = 0 with an order-8 embedded
Runge-Kutta pair and dense output.  The phase is stored unwrapped: the
half-power branches downstream need the continuous lift, never phi mod 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfWindow, ToleranceNotMet, WindowTooSmall
from .params import ModelParams
from .rk import DenseTable, dop853

TOL_MIN, TOL_MAX = 1e-14, 1e-4

#: Default window in units of T, generous enough for the double symmetry
#: application (needs phi on +-3T/2 plus margin) and the monodromy shift.
DEFAULT_WINDOW = (-1.75, 2.25)

_REFINE = 100.0  # tolerance ratio for the error-estimate re-solve


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


def solve_phase(
    params: ModelParams,
    phi0: float,
    t_min: float | None = None,
    t_max: float | None = None,
    tol: float = 1e-12,
) -> PhasePath:
    """Integrate the augmented phase system over a window containing [-T, T].

    The global error estimate comes from a full re-solve at tol/100; a
    disagreement beyond 1e3*tol raises ToleranceNotMet.
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

    def run(rtol, step_divisor=200.0):
        # the solver runs two decades below the requested tolerance (with a
        # bounded step) so that the *interpolant derivative* also honors the
        # 10*tol residual contract, not just the node values
        rtol_eff = max(rtol * 1e-2, 2.5e-14)
        return [
            DenseTable(dop853(rhs, 0.0, (phi0, 0.0), t_bound, rtol_eff, rtol_eff * 1e-2,
                              max_step=T / step_divisor, dense=True))
            for t_bound in (t_max, t_min)
        ]

    fwd, bwd = run(tol)
    # the reference re-solve uses a tighter tolerance *and* a different step
    # sequence, so the comparison stays meaningful even at the rtol floor
    fwd_ref, bwd_ref = run(tol / _REFINE, step_divisor=293.0)
    probe = np.linspace(t_min, t_max, 317)
    diff = 0.0
    for t in (probe[probe >= 0],):
        diff = max(diff, float(np.max(np.abs(fwd(t) - fwd_ref(t)))))
    for t in (probe[probe < 0],):
        if t.size:
            diff = max(diff, float(np.max(np.abs(bwd(t) - bwd_ref(t)))))
    if diff > 1e3 * tol:
        raise ToleranceNotMet(
            f"refinement disagreement {diff:.3e} exceeds 1e3*tol = {1e3 * tol:.3e}"
        )
    return PhasePath(
        params=params,
        phi0=phi0,
        t_min=t_min,
        t_max=t_max,
        tol=tol,
        err_est=diff,
        _fwd=fwd,
        _bwd=bwd,
    )
