"""High-accuracy integration of the driven phase equation.

The augmented system

    dphi/dt = B + A*cos(omega*t) - sin(phi),    dP/dt = cos(phi)

is integrated forward and backward from t = 0 with an order-8 embedded
Runge-Kutta pair and dense output.  The phase is stored unwrapped: the
half-power branches downstream need the continuous lift, never phi mod 2*pi.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.common import OdeSolution

from .errors import OutOfWindow, ToleranceNotMet, WindowTooSmall
from .params import ModelParams

TOL_MIN, TOL_MAX = 1e-14, 1e-4

#: Default window in units of T, generous enough for the double symmetry
#: application (needs phi on +-3T/2 plus margin) and the monodromy shift.
DEFAULT_WINDOW = (-1.75, 2.25)

_REFINE = 100.0  # tolerance ratio for the error-estimate re-solve


def _rhs(params: ModelParams):
    A, Bd, omega = params.A, params.Bdrive, params.omega

    def rhs(t, y):
        return (Bd + A * np.cos(omega * t) - np.sin(y[0]), np.cos(y[0]))

    return rhs


class _DenseTable:
    """DOP853's own dense output of one solve direction, held as arrays.

    Per segment the table keeps ``t_old``, ``h``, ``y_old`` and the seven
    ``F`` vectors of scipy's ``Dop853DenseOutput`` and evaluates its nested
    ``x``/``(1 - x)`` recurrence for all points at once.  Segments are picked
    with the ``searchsorted`` side rule of ``OdeSolution``, so the values are
    bit-identical to calling the ``OdeSolution`` itself.
    """

    def __init__(self, sol: OdeSolution):
        interps = sol.interpolants
        self.n = len(interps)
        self.ascending = bool(sol.ascending)
        self.side = sol.side
        self.ts_sorted = np.asarray(sol.ts_sorted)
        self._bisect = bisect_left if self.side == "left" else bisect_right
        self.t_old = np.array([s.t_old for s in interps])
        self.h = np.array([s.h for s in interps])
        self.y_old = np.stack([s.y_old for s in interps])  # (n, ny)
        self.F = np.stack([s.F[::-1] for s in interps])  # (n, 7, ny), outermost first
        # plain-float copies for the one-point path
        self._ts_list = self.ts_sorted.tolist()
        self._rows = list(
            zip(self.t_old.tolist(), self.h.tolist(), self.y_old.tolist(), self.F.tolist())
        )

    def _segments(self, t: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self.ts_sorted, t, side=self.side) - 1
        np.clip(k, 0, self.n - 1, out=k)
        return k if self.ascending else self.n - 1 - k

    def __call__(self, t: np.ndarray, derivative: bool = False) -> np.ndarray:
        """(ny, n) values at the times t, or their d/dt with ``derivative``."""
        k = self._segments(t)
        h = self.h[k][:, None]
        x = (t - self.t_old[k])[:, None] / h
        F = self.F[k]
        y = np.zeros((t.size, F.shape[2]))
        dy = np.zeros_like(y)
        for i in range(F.shape[1]):
            y += F[:, i]
            m, dm = (x, 1.0) if i % 2 == 0 else (1 - x, -1.0)
            if derivative:
                dy = dy * m + dm * y
            y *= m
        if derivative:
            return (dy / h).T
        y += self.y_old[k]
        return y.T

    def at(self, t: float) -> tuple[float, float]:
        """(phi, P) at one time, by bisection and plain float arithmetic."""
        k = min(max(self._bisect(self._ts_list, t) - 1, 0), self.n - 1)
        if not self.ascending:
            k = self.n - 1 - k
        t_old, h, (y0, y1), F = self._rows[k]
        x = (t - t_old) / h
        u = 1 - x
        a = b = 0.0
        for (f0, f1), m in zip(F, (x, u) * 4):
            a = (a + f0) * m
            b = (b + f1) * m
        return a + y0, b + y1


@dataclass
class PhasePath:
    """Dense solution (phi, P) on [t_min, t_max] with a certified error bar."""

    params: ModelParams
    phi0: float
    t_min: float
    t_max: float
    tol: float
    err_est: float
    _fwd: OdeSolution = field(repr=False)
    _bwd: OdeSolution = field(repr=False)

    def __post_init__(self):
        self._fwd_table = _DenseTable(self._fwd)
        self._bwd_table = _DenseTable(self._bwd)

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
            out[:, m] = self._fwd_table(t[m], derivative)
        if not m.all():
            out[:, ~m] = self._bwd_table(t[~m], derivative)
        return out

    def eval(self, t) -> np.ndarray:
        """(2, n) array of (phi, P) values; vectorized over t."""
        if isinstance(t, float):
            s = t
        elif isinstance(t, np.ndarray) and t.shape == (1,):
            s = float(t[0])
        else:
            return self._split(t, derivative=False)
        # one point (the scalar right-hand sides): skip the array machinery
        self._check_window(s, s)
        phi, P = (self._fwd_table if s >= 0 else self._bwd_table).at(s)
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
        return np.concatenate([np.asarray(self._bwd.ts)[::-1], np.asarray(self._fwd.ts)[1:]])


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
        kw = dict(
            method="DOP853",
            rtol=rtol_eff,
            atol=rtol_eff * 1e-2,
            max_step=T / step_divisor,
            dense_output=True,
        )
        fwd = solve_ivp(rhs, (0.0, t_max), (phi0, 0.0), **kw)
        bwd = solve_ivp(rhs, (0.0, t_min), (phi0, 0.0), **kw)
        if not (fwd.success and bwd.success):
            raise ToleranceNotMet(f"integration failed: {fwd.message} / {bwd.message}")
        return fwd.sol, bwd.sol

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


def eval_phase(path: PhasePath, t: float) -> tuple[float, float]:
    """(phi, P) at a single time; raises OutOfWindow outside the window."""
    vals = path.eval(float(t))
    return float(vals[0][0]), float(vals[1][0])
