"""Functions on (a neighborhood of) the punctured unit circle.

The circle is parametrized by real time through z = exp(i*omega*t); every
on-circle evaluation reduces to a PhasePath lookup, which keeps all
half-power branches anchored by the continuous unwrapped phase.  The
reciprocal point 1/z on the circle is the lift t -> -t.

The theta pair is the circle's second route to Psi = e^P: its linear system
is solved by the 10-node Gauss collocation kernel of ``gauss`` on the phase
path's own rows that cover |t| <= T/2, with e^{i phi} at the nodes taken
from those rows and P unread.

Off-circle values are produced by integrating the Riccati equation along
radial rays and arcs, with a 1/Phi chart switch around poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gauss
from .errors import NonAnalyticOnRay, OutOfWindow, StepSizeTooSmall, WindowTooSmall
from .params import ModelParams
from .phase import PhasePath, _Rows
from .rk import dop853

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

def _collocate(rows: _Rows, count: int):
    """The theta pair on the first ``count`` rows of one direction of the
    phase path, from (i, -i) at t = 0: each row's start value (count, 2) and
    the coefficients of y' on it in powers of the row fraction
    (NODES, count, 2).  Phi at the nodes comes straight from the phase rows;
    rows go in blocks, and the row propagators are chained in floats."""
    a, b = 1j, -1j
    starts, coefs = [], []
    for lo in range(0, count, gauss.BLOCK_ROWS):
        Phi = rows.Phi_nodes[:, lo:min(lo + gauss.BLOCK_ROWS, count)]
        up, down = 0.5 * Phi, 0.5 / Phi
        M = np.stack((np.stack((up, -up), 1), np.stack((-down, down), 1)), 1)
        _, G, R = gauss.row_propagators(M, rows.h)
        y0 = []
        for (r00, r01), (r10, r11) in R.transpose(2, 0, 1).tolist():
            y0.append((a, b))
            a, b = r00 * a + r01 * b, r10 * a + r11 * b
        y0 = np.array(y0)
        starts.append(y0)
        coefs.append(gauss.derivative_coefficients(G, y0))
    return np.concatenate(starts), np.concatenate(coefs, 1)


class ThetaPair:
    """Theta, ThetaTilde on [-T/2, T/2] with Theta(1) = i, ThetaTilde(1) = -i,
    collocated on the phase path's own rows (``theta_pair_solve``)."""

    def __init__(self, path: PhasePath):
        self.path = path
        self._half = half = 0.5 * path.params.T
        # rows counted from t = 0 until one reaches |t| = T/2, kept in
        # ascending time
        fwd, bwd = path._fwd, path._bwd
        n_fwd, n_bwd = (min(int(np.searchsorted(np.abs(rows.ts), half)), rows.n)
                        for rows in (fwd, bwd))
        (y_f, c_f), (y_b, c_b) = _collocate(fwd, n_fwd), _collocate(bwd, n_bwd)
        self._left = np.concatenate((bwd.ts[n_bwd:0:-1], fwd.ts[:n_fwd]))
        self._t_old = np.concatenate((bwd.ts[n_bwd - 1::-1], fwd.ts[:n_fwd]))
        self._h = np.concatenate((np.full(n_bwd, bwd.h), np.full(n_fwd, fwd.h)))
        self._y0 = np.concatenate((y_b[::-1], y_f))
        self._rise = gauss.rise_coefficients(np.concatenate((c_b[:, ::-1], c_f), 1), self._h)
        self.theta = CircleFunction("Theta", path, lambda t: self.values(t)[0])
        self.theta_tilde = CircleFunction("ThetaTilde", path, lambda t: self.values(t)[1])

    def values(self, t) -> np.ndarray:
        """(2, n) values of (Theta, ThetaTilde) at the times t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.size and not (t.min() >= -self._half and t.max() <= self._half):  # NaN fails
            raise OutOfWindow(f"theta pair evaluated outside [-T/2, T/2] = "
                              f"[{-self._half}, {self._half}]")
        k = np.clip(np.searchsorted(self._left, t, side="right") - 1, 0, len(self._h) - 1)
        s = ((t - self._t_old[k]) / self._h[k])[:, None]
        return (self._y0[k] + (gauss.horner(self._rise, k, s) * s).view(complex)).T

    def psi_route(self, t) -> np.ndarray:
        """(Theta - ThetaTilde) / (2i): equals e^{P(t)} on the circle."""
        theta, theta_tilde = self.values(t)
        return (theta - theta_tilde) / 2j

    def route_equivalence_residual(self, t) -> float:
        return float(np.max(np.abs(self.psi_route(t) - np.exp(self.path.P(t)))))


def theta_pair_solve(path: PhasePath) -> ThetaPair:
    """Collocate the theta subsystem from t = 0 both ways over [-T/2, T/2].

    The collocation runs on the phase path's own rows, with e^{i phi} at the
    nodes taken from them; P is never read.  Evaluating the pair outside
    [-T/2, T/2] raises OutOfWindow, and a block whose Picard sweeps do not
    settle raises NotConverged.
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
