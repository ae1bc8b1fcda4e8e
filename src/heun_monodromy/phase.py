"""High-accuracy solution of the driven phase equation.

With Phi = e^{i phi}, the phase equation dphi/dt = b(t) - sin(phi),
b = B + A*cos(omega*t), is a Riccati equation: the projectivisation of the
linear system

    y' = M(t) y,    y = (u, v),    M = [[-i b/2, 1/2], [1/2, i b/2]],

with Phi = v/u (Buchstaber & Tertychnyi, *Theor. Math. Phys.* 176, 2013).
With (u, v) the system also solves (conj v, conj u), so from
y(0) = (e^{-i phi0/2}, e^{i phi0/2}) it keeps v = conj(u): then
Phi = conj(u)/u, and since Re(u'/u) = cos(phi)/2 the quadrature
P = int cos(phi) is 2 log|u|.  The four half powers of the circle pair are
this solution itself (``circle.CirclePair``).  M depends on t alone, so
every row of the window is collocated at once with the 10-node Gauss kernel
of ``gauss``, forward and backward from t = 0 on the uniform rows of
``gauss.uniform_rows`` at ``row_rate``, max((|B| + |A| + 1)/2, 1), which
bounds ||M||_inf here and on the theta pair that shares the rows.
M = [[alpha, beta], [conj beta, conj alpha]] with
alpha = -i b/2 and beta = 1/2, so y is a conjugate pair of ``gauss``: the
rows chain it through ``gauss.collocate`` from M's first row and keep u
alone, as mantissas with one power-of-two exponent per block, so u stays
finite however large e^P grows; inside row k, from its start u_k,

    phi = phi_k + 2 arg(u_k conj(u)),    P = 2 log|u|,

with phi_k the running sum of the row turns and P read from the mantissa
and its exponent.  The phase is stored unwrapped: the half-power branches
downstream need the continuous lift, never phi mod 2*pi.  Derivatives are
those of the collocation polynomial itself.  The global error bar
propagates the polynomial's defect, sampled off the collocation nodes
(``gauss.Rows.at_fractions``), along the linearised equation, plus the
rounding of the chained row starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import gauss
from .errors import OutOfWindow, ToleranceNotMet
from .gauss import EPS
from .params import ModelParams

TOL_MIN, TOL_MAX = 1e-14, 1e-4

#: The solved window in units of T: it covers, with margin, the span
#: [-3T/2, 3T/2] that the heun grids and the period shift phi(t + T) read.
#: Every time outside it raises OutOfWindow.
WINDOW = (-1.75, 2.25)

NODES = gauss.NODES

#: ln 4: P = 2 log|u| gains LN4 per unit of the rows' power-of-two exponent.
LN4 = 2.0 * math.log(2.0)


def _log_norm(u: np.ndarray) -> np.ndarray:
    """log|u|^2, without a square root."""
    return np.log(u.real * u.real + u.imag * u.imag)


@dataclass
class _Rows(gauss.Rows):
    """The collocation rows of one direction from t = 0 of the conjugate pair
    y = (u, conj u), chained by ``gauss.collocate`` from u(0) = e^{-i phi0/2};
    they store u alone.

    On top of the rows this keeps their lift: the phase at the row starts as
    float pairs ``phi + phi_lo``, and per row the ``log_scale`` that turns a
    mantissa m of u into P = log|m|^2 + log_scale[k], exactly 0 at t = 0.
    """

    phi: np.ndarray  # (n,)
    phi_lo: np.ndarray
    log_scale: np.ndarray  # (n,)

    def lift(self, t: np.ndarray, derivative: bool) -> np.ndarray:
        """(2, n) values of (phi, P) at the times t, or their d/dt."""
        k, s = self.locate(t)
        u = self.values(k, s)[:, 0]
        if derivative:
            du = self.slopes(k, s)[:, 0] / u
            return np.array((-2.0 * du.imag, 2.0 * du.real))
        w = self.y0[k, 0] * u.conj()
        phi = self.phi[k] + (self.phi_lo[k] + 2.0 * np.arctan2(w.imag, w.real))
        return np.array((phi, self.log_scale[k] + _log_norm(u)))


@dataclass
class PhasePath:
    """Dense solution (phi, P) on [t_min, t_max] with a certified error bar."""

    params: ModelParams
    phi0: float
    t_min: float
    t_max: float
    tol: float
    err_est: float
    _fwd: _Rows = field(repr=False)
    _bwd: _Rows = field(repr=False)

    def _times(self, t) -> np.ndarray:
        """t as a float array, every time inside the window."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.size:
            # NaN-ignoring extremes, so a NaN never hides an out-of-window time
            lo, hi = np.fmin.reduce(t, axis=None), np.fmax.reduce(t, axis=None)
            slack = 1e-9 * self.params.T
            if lo < self.t_min - slack or hi > self.t_max + slack:
                raise OutOfWindow(
                    f"t range [{lo}, {hi}] outside window [{self.t_min}, {self.t_max}]"
                )
        return t

    def _split(self, t, derivative: bool) -> np.ndarray:
        t = self._times(t)
        return gauss.two_sided(t, lambda u: self._fwd.lift(u, derivative),
                               lambda u: self._bwd.lift(u, derivative), np.empty((2,) + t.shape))

    def eval(self, t) -> np.ndarray:
        """(2, n) array of (phi, P) values; vectorized over t."""
        return self._split(t, derivative=False)

    def solution(self, t) -> np.ndarray:
        """(2, n) complex values of the linear pair (u, v) at the times t,
        v = conj(u): the rows' mantissas of u times their power of two, which
        overflows where P passes about 1419, and its conjugate."""
        t = self._times(t)
        return gauss.two_sided(t, self._fwd, self._bwd, np.empty((2,) + t.shape, dtype=complex))

    def phi(self, t):
        return self.eval(t)[0]

    def P(self, t):
        return self.eval(t)[1]

    def phidot(self, t, phi_val):
        """dphi/dt along the solution at the times t, where phi is phi_val
        (right-hand side, no differencing)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p = self.params
        return p.Bdrive + p.A * np.cos(p.omega * t) - np.sin(phi_val)

    def derivative(self, t) -> np.ndarray:
        """Exact (2, n) derivative of the collocation polynomial itself:
        -2 Im(u'/u) and 2 Re(u'/u), never M y."""
        return self._split(t, derivative=True)

    def ode_residual(self, t) -> tuple[np.ndarray, np.ndarray]:
        """|polynomial' - rhs| for the phi and P components at samples t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        d = self.derivative(t)
        phi_val, _ = self.eval(t)
        res_phi = np.abs(d[0] - self.phidot(t, phi_val))
        res_p = np.abs(d[1] - np.cos(phi_val))
        return res_phi, res_p

    def time_translation_residual(self, grid_size: int = 1001) -> float:
        """sup residual of phi(. + T) against the phase equation.

        Checks the period-shift property on a uniform grid of t with both t
        and t + T inside the window.
        """
        T = self.params.T
        t = np.linspace(self.t_min, self.t_max - T, grid_size)
        d = self.derivative(t + T)
        phi_shift = self.phi(t + T)
        p = self.params
        res = d[0] - (p.Bdrive + p.A * np.cos(p.omega * t) - np.sin(phi_shift))
        return float(np.max(np.abs(res)))

    @property
    def step_times(self) -> np.ndarray:
        """Row edges (ascending)."""
        return np.concatenate([self._bwd.ts[::-1], self._fwd.ts[1:]])


def turning_rate(params: ModelParams) -> float:
    """|B| + |A| + 1: a bound on |dphi/dt| = |b - sin(phi)| for every
    solution of the drive equation.  The P_B panel table of ``sqrtmono``
    states it to ``gauss.uniform_rows``: its system's ||M||_inf is
    |cos phi_B + i dphi_B/dt| <= 1 + |b|.  The phase rows state half of it,
    ``row_rate``."""
    return abs(params.Bdrive) + abs(params.A) + 1.0


def row_rate(params: ModelParams) -> float:
    """max(turning_rate / 2, 1): the bound on ||M||_inf that the phase rows
    state to ``gauss.uniform_rows``.  The phase system has
    ||M||_inf = |b|/2 + 1/2 <= turning_rate / 2, and the theta pair of
    ``circle``, collocated on the same rows, has ||M_theta||_inf = |Phi| = 1.
    Each row then turns the phase by |dphi| <= 2 ROW_RATE = 0.48 < pi, so the
    arg increments that chain the rows are unambiguous (CHANGES.md)."""
    return max(0.5 * turning_rate(params), 1.0)


def system_row(params: ModelParams, t: np.ndarray) -> np.ndarray:
    """The first row (-i b/2, 1/2) of M(t) = [[-i b/2, 1/2], [1/2, i b/2]] at
    the times t, as (1, 2) + t.shape: M is [[alpha, beta], [beta, -alpha]],
    so the row is all of it."""
    half_b = 0.5j * (params.Bdrive + params.A * np.cos(params.omega * t))
    row = np.empty((1, 2) + t.shape, dtype=complex)
    row[0, 0], row[0, 1] = -half_b, 0.5
    return row


def _running_sum(start: float, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """start + steps[0] + ... + steps[k - 1] for every k, as (hi, lo): hi is
    the float running sum and lo the accumulated rounding of its additions
    (Knuth's TwoSum), so hi + lo is off by a few ulps of the small lo."""
    s = np.concatenate(([start], steps))
    hi = np.cumsum(s)  # one float addition after the other
    before, after = hi[:-1], hi[1:]
    added = after - before
    err = (before - (after - added)) + (s[1:] - added)
    return hi, np.concatenate(([0.0], np.cumsum(err)))


def _collocate(params: ModelParams, phi0: float, t_bound: float) -> _Rows:
    """The rows from t = 0 to t_bound: ``gauss.uniform_rows`` at
    ``row_rate``, chained by ``gauss.collocate`` as the conjugate pair from
    u(0) = e^{-i phi0/2}, with the first row of M.
    The turns 2 arg(u_k conj(u_{k+1})) between the chained row starts are
    summed with their rounding carried along."""
    n, h = gauss.uniform_rows(t_bound, row_rate(params), f"[0.0, {t_bound!r}]")
    ts = np.arange(n + 1) * h
    ts[-1] = t_bound
    nodes = h * gauss.NODE_FRACTIONS[:, None]
    u0 = complex(math.cos(0.5 * phi0), -math.sin(0.5 * phi0))
    rows = gauss.collocate(
        lambda blk: system_row(params, ts[blk] + nodes).transpose(2, 0, 1, 3),
        ts, h, (u0,))
    starts = rows.y0[:, 0]
    w = starts[:-1] * starts[1:].conj()
    phi, phi_lo = _running_sum(phi0, 2.0 * np.arctan2(w.imag, w.real))
    log_scale = LN4 * (rows.exponent - rows.exponent[0]) - _log_norm(starts[0])
    return _Rows(ts, h, rows.y0, rows.coef, exponent=rows.exponent,
                 phi=phi, phi_lo=phi_lo, log_scale=log_scale)


# The defect is sampled at the 10-point Gauss nodes of each half row, which
# miss the row's own nodes (where it vanishes): the fractions, and the
# quadrature of a sampled integrand over the row (weights) and up to each
# sample (cumulative), in units of h.  No matrix product at import.
_SAMPLE_FRACTIONS = np.concatenate((0.5 * gauss.NODE_FRACTIONS, 0.5 + 0.5 * gauss.NODE_FRACTIONS))
_SAMPLE_WEIGHTS = 0.25 * np.concatenate((gauss.W, gauss.W))
_SAMPLE_CUMULATIVE = 0.25 * np.block([
    [gauss.CUMULATIVE, np.broadcast_to(gauss.W[:, None], (NODES, NODES))],
    [np.zeros((NODES, NODES)), gauss.CUMULATIVE],
])

#: Factor on the sampled rounding of one chained step.  The sample (a row's
#: end from its polynomial against the next row's start) is the difference
#: of two roundings of one value, about sqrt(2) times either, so 2 covers
#: about 2.8 standard deviations of the start's own rounding (CHANGES.md).
ROW_ROUNDING = 2.0


def _defect_samples(rows: _Rows, params: ModelParams, blk: slice):
    """The defect d = polynomial' - rhs on the rows blk at _SAMPLE_FRACTIONS,
    as (d_phi, d_P), with P - P_k and sin(phi) there, each (rows, S).  Only u
    is used: v = conj(u) exactly."""
    y, dy = rows.at_fractions(blk, _SAMPLE_FRACTIONS)
    u = y[:, :, 0].T
    (alpha, beta), = system_row(params, rows.ts[blk, None] + rows.h * _SAMPLE_FRACTIONS)
    du = (dy[:, :, 0].T - (alpha * u + beta * u.conj())) / u
    rel_P = _log_norm(u) - _log_norm(rows.y0[blk, 0])[:, None]
    return -2.0 * du.imag, 2.0 * du.real, rel_P, (u.conj() / u).imag


def _error_estimate(rows: _Rows, params: ModelParams) -> float:
    """Global error estimate of one direction (derived in CHANGES.md).

    The defect d = polynomial' - rhs is sampled at ``_SAMPLE_FRACTIONS`` of
    every row and propagated along the linearised equation

        e_phi' = -cos(phi) e_phi + d_phi,    e_P' = -sin(phi) e_phi + d_P,

    from e(0) = 0, with exp(P) taken relative to each row's start so nothing
    overflows; rows go in blocks, so memory stays bounded on long windows.
    The chained row starts add a random walk: each row's end, from its
    polynomial, against the next row's start samples the rounding of one
    chained step; ROW_ROUNDING times those samples are carried by the same
    equation as independent errors.  Returns sup |e_phi|, |e_P| over the
    samples and the row ends, plus the walk, plus EPS * max|y| for the
    rounding of an evaluated value."""
    n, h = rows.n, rows.h
    u_start, u_end = rows.y0[:, 0], rows.values(np.arange(n), np.ones(n))[:, 0]
    start_P, end_P = _log_norm(u_start), _log_norm(u_end)
    decay = np.exp(start_P - end_P)  # e^-P over each row
    sup, e_phi_end, e_P_end = 0.0, 0.0, 0.0
    for lo in range(0, n, gauss.BLOCK_ROWS):
        blk = slice(lo, min(lo + gauss.BLOCK_ROWS, n))
        d_phi, d_P, rel_P, sin_phi = _defect_samples(rows, params, blk)
        # e_phi at each row's end, one multiply-add per row
        g = np.exp(rel_P) * d_phi
        full = h * (g @ _SAMPLE_WEIGHTS)
        ends = list(accumulate(zip(decay[blk].tolist(), full.tolist()),
                               lambda e, step: step[0] * (e + step[1]), initial=e_phi_end))
        e_phi = np.exp(-rel_P) * (np.array(ends[:-1])[:, None] + h * (g @ _SAMPLE_CUMULATIVE))
        q = d_P - sin_phi * e_phi
        e_P_ends = e_P_end + np.cumsum(h * (q @ _SAMPLE_WEIGHTS))
        e_P = np.concatenate(([e_P_end], e_P_ends[:-1]))[:, None] + h * (q @ _SAMPLE_CUMULATIVE)
        sup = max(sup, np.max(np.abs(e_phi)), np.max(np.abs(ends)),
                  np.max(np.abs(e_P)), np.max(np.abs(e_P_ends)))
        e_phi_end, e_P_end = ends[-1], float(e_P_ends[-1])
    # each row after the first starts where the one before it ends, to the
    # rounding of one chained step
    w = u_end[:-1] * u_start[1:].conj()
    jump_phi = 2.0 * np.arctan2(w.imag, w.real)
    jump_P = start_P[1:] - end_P[:-1] + LN4 * np.diff(rows.exponent)
    walk = list(accumulate(zip(decay.tolist(), (jump_phi * jump_phi).tolist()),
                           lambda var, step: step[0] * step[0] * var + step[1], initial=0.0))
    rounding = ROW_ROUNDING * math.sqrt(max(max(walk), float(np.sum(jump_P * jump_P))))
    y_max = max(np.max(np.abs(rows.phi)), np.max(np.abs(rows.log_scale + start_P)))
    return float(sup + rounding + EPS * y_max)


def solve_phase(params: ModelParams, phi0: float, tol: float = 1e-12) -> PhasePath:
    """Solve the phase system over the window WINDOW * T.

    The global error estimate propagates the collocation polynomial's defect
    along the linearised equation and adds the rounding of the chained row
    starts (``_error_estimate``).  ``tol`` gates that estimate and does not
    refine the solve: an estimate beyond 1e3*tol raises ToleranceNotMet.  A
    direction that needs more than ``gauss.MAX_STEPS`` rows raises
    StepCeilingExceeded (``gauss.uniform_rows``) before it allocates anything.
    """
    t_min, t_max = WINDOW[0] * params.T, WINDOW[1] * params.T
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")

    fwd, bwd = (_collocate(params, phi0, t_bound) for t_bound in (t_max, t_min))
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
