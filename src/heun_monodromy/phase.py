"""High-accuracy solution of the driven phase equation.

With Phi = e^{i phi}, the phase equation dphi/dt = b(t) - sin(phi),
b = B + A*cos(omega*t), is a Riccati equation: the projectivisation of the
linear system

    y' = M(t) y,    y = (u, v),    M = [[-i b/2, 1/2], [1/2, i b/2]],

with Phi = v/u, and since Re(u'/u) = cos(phi)/2 the quadrature
P = int cos(phi) is 2 log|u| (Buchstaber & Tertychnyi, *Theor. Math. Phys.*
176, 2013).  M depends on t alone, so every row of the window is collocated
at once with the 10-node Gauss kernel of ``gauss``, forward and backward
from t = 0 on the uniform rows of ``gauss.uniform_rows`` at the turning
rate |B| + |A| + 1, which bounds |dphi/dt|.  Each row restarts from
y = (1, Phi_k); the row propagators, chained in floats, give the row
starts, and inside a row

    phi = phi_k + arg(v / (u Phi_k)),    P = P_k + 2 log|u|,

so the phase is stored unwrapped: the half-power branches downstream need
the continuous lift, never phi mod 2*pi.  Derivatives are those of the
collocation polynomial itself.  The global error bar propagates the
polynomial's defect, sampled off the collocation nodes, along the
linearised equation, plus the rounding of the chained row starts.
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

#: The solved window in units of T: it covers the monodromy shift
#: phi(t + T) and the transform applied twice (phi on [-3T/2, 2T]), with
#: margin.  Every time outside it raises OutOfWindow.
WINDOW = (-1.75, 2.25)

NODES = gauss.NODES


@dataclass
class _Rows(gauss.Rows):
    """The collocation rows of one direction from t = 0, for y = (u, v).

    Row k starts from y0[k] = (1, Phi_k).  On top of the rows this keeps
    their lift: the phase and the quadrature at the row edges as float pairs
    ``phi + phi_lo`` and ``P + P_lo``, and e^{i phi} at the row edges and at
    the Gauss nodes.
    """

    phi: np.ndarray  # (n + 1,)
    phi_lo: np.ndarray
    P: np.ndarray
    P_lo: np.ndarray
    Phi: np.ndarray  # (n + 1,) complex, e^{i phi} at the row edges
    Phi_nodes: np.ndarray  # (NODES, n) complex: e^{i phi} at the Gauss nodes

    def __call__(self, t: np.ndarray, derivative: bool = False) -> np.ndarray:
        """(2, n) values of (phi, P) at the times t, or their d/dt."""
        k, s = self.locate(t)
        u, v = self.values(k, s).T
        if derivative:
            dy = self.slopes(k, s)
            du, dv = dy[:, 0] / u, dy[:, 1] / v
            return np.array((dv.imag - du.imag, 2.0 * du.real))
        w = v * u.conj() * self.Phi[k].conj()
        phi = self.phi[k] + (self.phi_lo[k] + np.arctan2(w.imag, w.real))
        P = self.P[k] + (self.P_lo[k] + np.log(u.real * u.real + u.imag * u.imag))
        return np.array((phi, P))


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
        return gauss.two_sided(t, lambda u: self._fwd(u, derivative),
                               lambda u: self._bwd(u, derivative), np.empty((2,) + t.shape))

    def eval(self, t) -> np.ndarray:
        """(2, n) array of (phi, P) values; vectorized over t."""
        return self._split(t, derivative=False)

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
        Im(v'/v - u'/u) and 2 Re(u'/u), never M y."""
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
    """|B| + |A| + 1: a bound on |dphi/dt| for every solution of the drive
    equation, and twice ||M||_inf of its linear system.  The phase rows and
    the P_B panel table of ``sqrtmono`` state it to ``gauss.uniform_rows``;
    it keeps each row's phase change |dphi| <= ROW_RATE = 0.12 < pi, so the
    arg increments that chain the rows are unambiguous, and the Picard
    sweeps of the phase rows and of the theta pair on them contracting by
    q <= 0.1184 (CHANGES.md)."""
    return abs(params.Bdrive) + abs(params.A) + 1.0


def _node_matrices(params: ModelParams, t: np.ndarray) -> np.ndarray:
    """M(t) = [[-i b/2, 1/2], [1/2, i b/2]] at the times t, as (2, 2) + t.shape."""
    half_b = 0.5j * (params.Bdrive + params.A * np.cos(params.omega * t))
    M = np.empty((2, 2) + t.shape, dtype=complex)
    M[0, 0], M[0, 1], M[1, 0], M[1, 1] = -half_b, 0.5, 0.5, half_b
    return M


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
    """The rows from t = 0 to t_bound, collocated block by block.

    The rows are ``gauss.uniform_rows`` at the turning rate.  Each row's
    propagator maps (1, Phi_k) to (u, v) at its end, and Phi_{k+1} is v/u
    rescaled to |Phi| = 1; the arg increments and 2 log|u| at the row ends
    are summed with their rounding carried along.
    """
    rows, h = gauss.uniform_rows(t_bound, turning_rate(params), f"[0.0, {t_bound!r}]")
    ts = np.arange(rows + 1) * h
    ts[-1] = t_bound
    Phi = complex(math.cos(phi0), math.sin(phi0))
    starts = np.empty(rows + 1, dtype=complex)
    rise = np.empty(rows)
    coef = np.empty((NODES, rows, 2), dtype=complex)
    Phi_nodes = np.empty((NODES, rows), dtype=complex)
    for lo in range(0, rows, gauss.BLOCK_ROWS):
        blk = slice(lo, min(lo + gauss.BLOCK_ROWS, rows))
        U, G, R = gauss.row_propagators(
            _node_matrices(params, ts[blk] + h * gauss.NODE_FRACTIONS[:, None]
                           ).transpose(2, 0, 1, 3), h)
        (r00, r01), (r10, r11) = R.tolist()
        for k, a, b, c, d in zip(range(lo, blk.stop), r00, r01, r10, r11):
            starts[k] = Phi
            Phi = (c + d * Phi) / (a + b * Phi)
            Phi /= abs(Phi)
        S = starts[blk]
        u_end = R[0, 0] + R[0, 1] * S
        rise[blk] = np.log(u_end.real * u_end.real + u_end.imag * u_end.imag)
        dy = G[:, :, 0] + G[:, :, 1] * S
        coef[:, blk] = gauss.power_coefficients(dy).transpose(0, 2, 1)
        y = U[:, :, 0] + U[:, :, 1] * S
        ratio = y[:, 1] / y[:, 0]
        Phi_nodes[:, blk] = ratio / np.abs(ratio)
    starts[rows] = Phi
    turn = np.angle(starts[1:] * starts[:-1].conj())
    phi, phi_lo = _running_sum(phi0, turn)
    P, P_lo = _running_sum(0.0, rise)
    return _Rows(ts=ts, h=h, y0=np.stack((np.ones(rows), starts[:-1]), 1), coef=coef,
                 phi=phi, phi_lo=phi_lo, P=P, P_lo=P_lo, Phi=starts, Phi_nodes=Phi_nodes)


# The defect is sampled at the 10-point Gauss nodes of each half row, which
# miss the row's own nodes (where it vanishes): the fractions, the powers
# s^i that give y' there and s^(i + 1) / (i + 1) that give (y - y_k) / h,
# and the quadrature of a sampled integrand over the row (weights) and up to
# each sample (cumulative), in units of h.  No matrix product at import.
_SAMPLE_FRACTIONS = np.concatenate((0.5 * gauss.NODE_FRACTIONS, 0.5 + 0.5 * gauss.NODE_FRACTIONS))
_SAMPLE_POWERS = _SAMPLE_FRACTIONS[:, None] ** np.arange(NODES)
_SAMPLE_RISES = _SAMPLE_POWERS * _SAMPLE_FRACTIONS[:, None] / np.arange(1.0, NODES + 1.0)
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
    as (d_phi, d_P), with P - P_k and sin(phi) there, each (rows, S)."""
    h = rows.h
    coef = rows.coef[:, blk]
    y = gauss.node_sum(_SAMPLE_RISES, coef)  # (S, rows, 2)
    y *= h
    u, v = (y[:, :, 0] + 1.0).T, (y[:, :, 1] + rows.Phi[blk]).T
    dy = gauss.node_sum(_SAMPLE_POWERS, coef)
    M = _node_matrices(params, rows.ts[blk, None] + h * _SAMPLE_FRACTIONS)
    du = (dy[:, :, 0].T - (M[0, 0] * u + M[0, 1] * v)) / u
    dv = (dy[:, :, 1].T - (M[1, 0] * u + M[1, 1] * v)) / v
    ratio = v / u
    return (dv.imag - du.imag, 2.0 * du.real, np.log(u.real * u.real + u.imag * u.imag),
            (ratio / np.abs(ratio)).imag)


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
    rise = np.diff(rows.P) + np.diff(rows.P_lo)  # P over each row
    decay = np.exp(-rise)
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
    u_end, v_end = rows.values(np.arange(n), np.ones(n)).T
    jump_phi = np.angle(v_end * u_end.conj() * rows.Phi[1:].conj())
    jump_P = np.log(u_end.real * u_end.real + u_end.imag * u_end.imag) - rise
    walk = list(accumulate(zip(decay.tolist(), (jump_phi * jump_phi).tolist()),
                           lambda var, step: step[0] * step[0] * var + step[1], initial=0.0))
    rounding = ROW_ROUNDING * math.sqrt(max(max(walk), float(np.sum(jump_P * jump_P))))
    y_max = max(np.max(np.abs(rows.phi)), np.max(np.abs(rows.P)))
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
