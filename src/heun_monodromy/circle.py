"""Functions on (a neighborhood of) the punctured unit circle.

The circle is parametrized by real time through z = exp(i*omega*t); every
on-circle evaluation reduces to a PhasePath lookup, which keeps all
half-power branches anchored by the continuous unwrapped phase.  The
reciprocal point 1/z on the circle is the lift t -> -t.

The theta pair is the circle's second route to Psi = e^P: its linear system
is solved by 10-node Gauss collocation (Hairer, Norsett & Wanner, *Solving
ODEs I*, Sec. II.7) on the rows of the phase path's own dense tables that
cover |t| <= T/2, with phi at the nodes from the interpolant and P unread.

Off-circle values are produced by integrating the Riccati equation along
radial rays and arcs, with a 1/Phi chart switch around poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gauss
from .errors import NonAnalyticOnRay, NotConverged, OutOfWindow, StepSizeTooSmall, WindowTooSmall
from .params import ModelParams
from .phase import PhasePath
from .rk import EPS, DenseTable, _nested, dop853

#: |Phi| at which continuation switches to the W = 1/Phi chart.
CHART_SWITCH_UP = 1e3
#: |Phi| at which the W chart hands back to the Phi chart (hysteresis band).
CHART_SWITCH_DOWN = 1e2
#: Both-charts blow-up bound: beyond this the point is reported non-analytic.
CHART_LIMIT = 1e6

#: Annulus guard for off-circle continuation.
RHO_MIN, RHO_MAX = 0.2, 5.0


@dataclass
class CircleFunction:
    """A named function of t along the lifted circle."""

    kind: str
    path: PhasePath
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t) -> np.ndarray:
        return self.fn(np.atleast_1d(np.asarray(t, dtype=float)))


def phi_on_circle(path: PhasePath) -> CircleFunction:
    """Phi(e^{i omega t}) = e^{i phi(t)}."""
    return CircleFunction("Phi", path, lambda t: np.exp(1j * path.phi(t)))


def psi_on_circle(path: PhasePath) -> CircleFunction:
    """Psi(e^{i omega t}) = e^{P(t)}, normalized to Psi(1) = 1 by P(0) = 0."""
    return CircleFunction("Psi", path, lambda t: np.exp(path.P(t)))


class CirclePair:
    """The four half-power products of a circle pair and their t-derivatives.

    ``phi_at`` and ``P_at`` take a float array of times and return the
    continuous phase and the quadrature.  In circle coordinates

        S    = Psi(z)^1/2   Phi(z)^1/2    = exp((P(t) + i phi(t))/2)
        R    = Psi(1/z)^1/2 Phi(1/z)^-1/2 = exp((P(-t) - i phi(-t))/2)
        Rrec = Psi(z)^1/2   Phi(z)^-1/2   = exp((P(t) - i phi(t))/2)
        Srec = Psi(1/z)^1/2 Phi(1/z)^1/2  = exp((P(-t) + i phi(-t))/2)

    One call evaluates (phi, P) once, on t and -t together; the derivatives
    follow from the phase equation, dphi/dt = B + A cos(omega t) - sin(phi)
    and dP/dt = cos(phi).  The reciprocal point is a swap:
    S(-t) = Srec(t) and R(-t) = Rrec(t).
    """

    def __init__(self, phi_at, P_at, params: ModelParams):
        self.params = params
        self._values = lambda u: (phi_at(u), P_at(u))

    @classmethod
    def on_path(cls, path: PhasePath) -> "CirclePair":
        """The solved pair, with phi and P from one ``PhasePath.eval``."""
        pair = cls(path.phi, path.P, path.params)
        pair._values = path.eval
        return pair

    def __call__(self, t):
        """((S, R, Rrec, Srec), (Sd, Rd, Rrecd, Srecd)) at the times t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n = t.shape[0]
        p = self.params
        u = np.concatenate((t, -t))
        ph, P = self._values(u)
        dph = p.Bdrive + p.A * np.cos(p.omega * u) - np.sin(ph)
        c = np.cos(ph)
        plus = np.exp(0.5 * (P + 1j * ph))
        minus = np.exp(0.5 * (P - 1j * ph))
        S, Srec = plus[:n], plus[n:]
        Rrec, R = minus[:n], minus[n:]
        dots = (
            0.5 * (c[:n] + 1j * dph[:n]) * S,
            0.5 * (-c[n:] + 1j * dph[n:]) * R,
            0.5 * (c[:n] - 1j * dph[:n]) * Rrec,
            0.5 * (-c[n:] - 1j * dph[n:]) * Srec,
        )
        return (S, R, Rrec, Srec), dots


def half_power_factors(path: PhasePath, t: np.ndarray):
    """(S, R, Rrec, Srec) of the solved pair at t; see ``CirclePair``."""
    return CirclePair.on_path(path)(t)[0]


def half_power_factor_dots(path: PhasePath, t: np.ndarray):
    """Analytic d/dt of the four half-power products (same order)."""
    return CirclePair.on_path(path)(t)[1]


@dataclass(frozen=True)
class BoundaryValues:
    """Values of phi and P at the cut edges t = +-T/2, and phi at t = 0."""

    phi_plus: float
    phi_minus: float
    phi_at_0: float
    P_plus: float
    P_minus: float


def boundary_values(path: PhasePath) -> BoundaryValues:
    """Boundary data at the cut edges e^{+-i pi} and at z = 1."""
    T = path.params.T
    php, Pp = (float(v[0]) for v in path.eval(T / 2))
    phm, Pm = (float(v[0]) for v in path.eval(-T / 2))
    return BoundaryValues(
        phi_plus=php,
        phi_minus=phm,
        phi_at_0=path.phi0,
        P_plus=Pp,
        P_minus=Pm,
    )


# ---------------------------------------------------------------------------
# Theta pair
# ---------------------------------------------------------------------------

#: Orientation of the theta subsystem realized on the circle.  With
#: y = (Theta, ThetaTilde) the paired equations read y' = M(t) y,
#:
#:     M = [[ Phi/2,       -Phi/2     ],
#:          [ -1/(2 Phi),   1/(2 Phi) ]],    Phi = e^{i phi(t)},
#:
#: the unique orientation under which (Theta - ThetaTilde)/(2i) reproduces
#: the quadrature e^{P(t)} (route equivalence pins the sign).
THETA_ORIENTATION = "d/dt realization: 2 i omega z d/dz |-> -2 d/dt on theta displays"

#: Rows collocated together, so a block's node arrays stay at 41 kB however
#: long the window (one side at omega = 0.004 has about 13k rows).
BLOCK_ROWS = 64
#: Picard sweeps per block before the collocation gives up.  Each sweep
#: contracts by at most 0.12 (derived in CHANGES.md), so 17 always settle;
#: 6 to 8 is usual.
PICARD_MAX_SWEEPS = 40

# 10-node Gauss collocation on a row [t_old, t_old + h]: the nodes as
# fractions of the row, the stage matrix a_ij and the weights b_j, all in
# units of h.
_NODES = 0.5 * (gauss.X + 1.0)
_A = 0.5 * gauss.CUMULATIVE.T
_B = 0.5 * gauss.W[None]
_EYE = np.eye(2)[:, :, None]


def _node_sum(C: np.ndarray, G: np.ndarray) -> np.ndarray:
    """sum_j C[i, j] G[j] over the leading (node) axis of a complex array, as
    one real 2-D einsum: numpy's fast path, and no BLAS call."""
    out = np.einsum("ij,jk->ik", C, G.view(float).reshape(len(G), -1))
    return out.reshape((len(C),) + G.shape[1:-1] + (2 * G.shape[-1],)).view(complex)


def _row_propagators(phi: np.ndarray, h: np.ndarray):
    """Collocate y' = M y on n rows of signed widths h, with phi (NODES, n)
    at the nodes.  Returns M U at the nodes (NODES, 2, 2, n), U being the
    node propagators from the row start, and the row propagators (2, 2, n).
    U solves U_i = I + h sum_j a_ij M_j U_j by Picard sweeps from U = I,
    stopped when a sweep moves no entry by more than 4 ulps of 1."""
    Phi = np.exp(1j * phi)
    up, down = 0.5 * Phi, 0.5 / Phi
    M = np.stack((np.stack((up, -up), 1), np.stack((-down, down), 1)), 1)
    U = np.broadcast_to(_EYE, M.shape)
    for _ in range(PICARD_MAX_SWEEPS):
        G = M[:, :, 0, None] * U[:, None, 0] + M[:, :, 1, None] * U[:, None, 1]
        U_next = _EYE + h * _node_sum(_A, G)
        change = np.max(np.abs(U_next - U))
        U = U_next
        if change <= 4 * EPS:  # a NaN never settles
            return G, _EYE + h * _node_sum(_B, G)[0]
    raise NotConverged(f"theta collocation: Picard sweeps still moved by {change:.3e} "
                       f"after {PICARD_MAX_SWEEPS}")


def _collocate(table: DenseTable, rows: int):
    """The theta pair on the first ``rows`` rows of one phase table, from
    (i, -i) at t = 0: each row's start value (rows, 2) and the Legendre
    coefficients of y' on it (NODES, rows, 2).  Rows go in blocks; the row
    propagators are chained in floats."""
    a, b = 1j, -1j
    starts, coefs = [], []
    for lo in range(0, rows, BLOCK_ROWS):
        blk = slice(lo, min(lo + BLOCK_ROWS, rows))
        phi = _nested(table.F[blk, 0], _NODES[:, None], False)[0] + table.y_old[blk, 0]
        G, R = _row_propagators(phi, table.h[blk])
        y0 = []
        for (r00, r01), (r10, r11) in R.transpose(2, 0, 1).tolist():
            y0.append((a, b))
            a, b = r00 * a + r01 * b, r10 * a + r11 * b
        y0 = np.array(y0)
        starts.append(y0)
        dy = G[:, :, 0] * y0[:, 0] + G[:, :, 1] * y0[:, 1]
        coefs.append(_node_sum(gauss.PROJECTION.T, dy).transpose(0, 2, 1))
    return np.concatenate(starts), np.concatenate(coefs, 1)


class ThetaPair:
    """Theta, ThetaTilde on [-T/2, T/2] with Theta(1) = i, ThetaTilde(1) = -i,
    collocated on the rows of the path's dense tables (``theta_pair_solve``)."""

    def __init__(self, path: PhasePath):
        self.path = path
        self._half = half = 0.5 * path.params.T
        # rows counted from t = 0 until one reaches |t| = T/2, kept in
        # ascending time
        fwd, bwd = path._fwd, path._bwd
        n_fwd, n_bwd = (min(int(np.searchsorted(np.abs(tab.ts), half)), tab.n)
                        for tab in (fwd, bwd))
        (y_f, c_f), (y_b, c_b) = _collocate(fwd, n_fwd), _collocate(bwd, n_bwd)
        self._left = np.concatenate((bwd.ts[n_bwd:0:-1], fwd.ts[:n_fwd]))
        self._t_old = np.concatenate((bwd.t_old[n_bwd - 1::-1], fwd.t_old[:n_fwd]))
        self._h = np.concatenate((bwd.h[n_bwd - 1::-1], fwd.h[:n_fwd]))
        self._y0 = np.concatenate((y_b[::-1], y_f))
        self._coef = np.ascontiguousarray(np.concatenate((c_b[:, ::-1], c_f), 1)).view(float)
        self.theta = CircleFunction("Theta", path, lambda t: self.values(t)[0])
        self.theta_tilde = CircleFunction("ThetaTilde", path, lambda t: self.values(t)[1])

    def values(self, t) -> np.ndarray:
        """(2, n) values of (Theta, ThetaTilde) at the times t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.size and not (t.min() >= -self._half and t.max() <= self._half):  # NaN fails
            raise OutOfWindow(f"theta pair evaluated outside [-T/2, T/2] = "
                              f"[{-self._half}, {self._half}]")
        k = np.clip(np.searchsorted(self._left, t, side="right") - 1, 0, len(self._h) - 1)
        h = self._h[k]
        x = 2.0 * (t - self._t_old[k]) / h - 1.0
        rise = np.einsum("mpk,mp->pk", self._coef[:, k], gauss.legendre_integrals(x))
        return (self._y0[k] + 0.5 * h[:, None] * rise.view(complex)).T

    def psi_route(self, t) -> np.ndarray:
        """(Theta - ThetaTilde) / (2i): equals e^{P(t)} on the circle."""
        theta, theta_tilde = self.values(t)
        return (theta - theta_tilde) / 2j

    def route_equivalence_residual(self, t) -> float:
        return float(np.max(np.abs(self.psi_route(t) - np.exp(self.path.P(t)))))


def theta_pair_solve(path: PhasePath) -> ThetaPair:
    """Collocate the theta subsystem from t = 0 both ways over [-T/2, T/2].

    The collocation runs on the rows of the path's own dense tables, with
    phi at the nodes from the interpolant; P is never read.  Evaluating the
    pair outside [-T/2, T/2] raises OutOfWindow, and a block whose Picard
    sweeps do not settle raises NotConverged.
    """
    return ThetaPair(path)


# ---------------------------------------------------------------------------
# Riccati continuation off the circle
# ---------------------------------------------------------------------------


def riccati_rhs(params: ModelParams, z: complex, F: complex) -> complex:
    """Right-hand side of the Riccati equation in the Phi chart."""
    return (1.0 - F * F) / (2j * params.omega * z) + (
        params.ell / z + params.mu * (1.0 + z**-2)
    ) * F


def riccati_rhs_inverse(params: ModelParams, z: complex, W: complex) -> complex:
    """Mirrored equation satisfied by W = 1/Phi (linear term sign flipped)."""
    return (1.0 - W * W) / (2j * params.omega * z) - (
        params.ell / z + params.mu * (1.0 + z**-2)
    ) * W


def riccati_circle_residual(params: ModelParams, t, F, Fdot) -> np.ndarray:
    """Residual of the Riccati equation along the circle.

    Uses the chain rule d/dt = i*omega*z*d/dz, under which the equation reads
    dF/dt = (1 - F^2)/2 + i*omega*(ell + 2*mu*cos(omega*t))*F.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    drive = params.ell + 2.0 * params.mu * np.cos(params.omega * t)
    return Fdot - (0.5 * (1.0 - F * F) + 1j * params.omega * drive * F)


Segment = tuple  # ("radial", theta, rho0, rho1) | ("arc", rho, theta0, theta1)


def _segment_funcs(seg: Segment):
    if seg[0] == "radial":
        _, theta, s0, s1 = seg
        e = complex(math.cos(theta), math.sin(theta))
        return (lambda s: s * e), (lambda s: e), s0, s1
    if seg[0] == "arc":
        _, rho, th0, th1 = seg
        return (
            lambda s: rho * complex(math.cos(s), math.sin(s)),
            lambda s: 1j * rho * complex(math.cos(s), math.sin(s)),
            th0,
            th1,
        )
    raise ValueError(f"unknown segment kind {seg[0]!r}")


def continue_riccati_path(
    params: ModelParams,
    F0: complex,
    segments: list[Segment],
    tol: float = 1e-12,
) -> tuple[complex, bool, int]:
    """Continue a Riccati solution along a piecewise path.

    Returns (value, pole_flag, chart_switches).  The continuation runs in the
    Phi chart until |Phi| reaches 1e3, then in the W = 1/Phi chart until
    |Phi| falls back to 1e2 (hysteresis).  If a chart value passes 1e6 with
    the other chart unusable, the target is flagged non-analytic.
    """
    value = complex(F0)
    chart = "phi"  # or "inv"
    switches = 0
    rtol = max(tol, 1e-13)

    for seg in segments:
        zfun, dzfun, s0, s1 = _segment_funcs(seg)
        if s0 == s1:
            continue
        s = s0
        while True:
            # the Phi chart hands over when |Phi| reaches CHART_SWITCH_UP, the
            # W chart when |W| rises back to 1/CHART_SWITCH_DOWN
            chart_rhs, bound, direction = (
                (riccati_rhs, CHART_SWITCH_UP, 0.0)
                if chart == "phi"
                else (riccati_rhs_inverse, 1.0 / CHART_SWITCH_DOWN, 1.0)
            )

            def f(s_, y):
                d = chart_rhs(params, zfun(s_), complex(y[0], y[1])) * dzfun(s_)
                return (d.real, d.imag)

            def switch(s_, y):
                return y[0] ** 2 + y[1] ** 2 - bound**2

            try:
                sol = dop853(f, s, (value.real, value.imag), s1, rtol, rtol * 1e-2,
                             event=switch, direction=direction)
            except StepSizeTooSmall as exc:
                raise NonAnalyticOnRay(
                    f"continuation failed on segment {seg} near s={exc.t:.6g}",
                    rho=abs(zfun(exc.t)),
                ) from exc
            value = complex(*sol.y)
            if sol.terminated:  # chart switch event
                s = sol.t
                if abs(value) == 0 or abs(value) > CHART_LIMIT:
                    raise NonAnalyticOnRay(
                        f"both charts unusable on segment {seg} at s={s:.6g}",
                        rho=abs(zfun(s)),
                    )
                value = 1.0 / value
                chart = "inv" if chart == "phi" else "phi"
                switches += 1
                if s == s1:  # event landed on the segment end
                    break
                continue
            break

    pole_flag = False
    if chart == "inv":
        if abs(value) < 1.0 / CHART_LIMIT:
            pole_flag = True  # endpoint sits (numerically) on a pole of Phi
            value = complex(np.inf, np.inf) if value == 0 else 1.0 / value
        else:
            value = 1.0 / value
    else:
        if abs(value) > CHART_LIMIT:
            pole_flag = True
    return value, pole_flag, switches


def riccati_continue_ray(
    path: PhasePath,
    theta: float,
    rho_target: float,
    tol: float = 1e-12,
) -> tuple[complex, bool]:
    """Value of Phi at rho_target * e^{i theta}, continued radially from the circle.

    The starting value is the circle value e^{i phi(theta/omega)} on the lift;
    theta must stay within the lifted window.
    """
    params = path.params
    if not (RHO_MIN <= rho_target <= RHO_MAX):
        raise ValueError(f"rho_target must lie in [{RHO_MIN}, {RHO_MAX}]")
    t0 = theta / params.omega
    if not (path.t_min <= t0 <= path.t_max):
        raise WindowTooSmall(f"theta={theta} lies outside the lifted window")
    F0 = complex(np.exp(1j * path.phi(t0)[0]))
    if rho_target == 1.0:
        return F0, False
    value, pole, _ = continue_riccati_path(
        params, F0, [("radial", theta, 1.0, rho_target)], tol=tol
    )
    return value, pole
