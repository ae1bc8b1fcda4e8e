"""Functions on (a neighborhood of) the punctured unit circle.

The circle is parametrized by real time through z = exp(i*omega*t); every
on-circle evaluation reduces to a PhasePath lookup.  The reciprocal point
1/z on the circle is the lift t -> -t.  Every circle solution is a
coordinate pair on the basis {y, Ry} of the phase equation's linear system
(``CirclePair``), y = (u, v) the path's own solution: the four half-power
products are y's components at t and -t, and their derivatives are the
system itself.

The theta pair (Theta, ThetaTilde) from (i, -i), the circle's second route
to Psi = e^P, solves y' = M y with the rank-one M = (Phi, -1/Phi)^T (1, -1)/2,
Phi = e^{i phi(t)}: so Delta = Theta - ThetaTilde solves
Delta' = cos(phi) Delta, Delta = 2i e^P, and Theta' = Phi Delta / 2 =
i conj(u)^2 for the phase path's u = e^{P/2 - i phi/2}.  Hence
Theta = i (1 + int_0^t conj(u)^2), ThetaTilde = conj Theta and
(Theta - ThetaTilde)/(2i) = Im Theta = e^P (``ThetaPair.psi_route``; route
equivalence pins that orientation): an exact integral of the phase rows' own
polynomials over |t| <= T/2 (``gauss.conj_square_quadrature``), at twice
their power-of-two exponent, so it stays finite however large e^P grows.

Off the circle, Phi = v/u is continued through the linear system behind its
Riccati equation, collocated by the same ``gauss.collocate`` along one
straight leg in w = log z from z = 1, on the rows of ``gauss.uniform_rows``
(``continue_riccati_path``, the one continuation off the circle); the
system is analytic on the annulus, so poles of Phi need no chart switch,
and a leg ends where any route homotopic to it in the annulus does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import gauss
from .errors import DenominatorVanished, OutOfWindow
from .params import ModelParams
from .phase import PhasePath, system_row

#: Annulus guard for off-circle continuation.
RHO_MIN, RHO_MAX = 0.2, 5.0
#: The radii of the ray certificate where none are given.
DEFAULT_RHOS = (0.8, 1.25)
#: A Moebius denominator below this raises DenominatorVanished.
DENOMINATOR_FLOOR = 1e-10
#: The coordinates of y itself on the basis {y, Ry} (``CirclePair``).
IDENTITY = (1.0, 0.0)


@dataclass
class CircleFunction:
    """A function of t along the lifted circle, with the path it is built on."""

    path: PhasePath
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t) -> np.ndarray:
        return self.fn(np.atleast_1d(np.asarray(t, dtype=float)))


def phi_on_circle(path: PhasePath) -> CircleFunction:
    """Phi(e^{i omega t}) = e^{i phi(t)}."""
    return CircleFunction(path, lambda t: np.exp(1j * path.phi(t)))


def psi_on_circle(path: PhasePath) -> CircleFunction:
    """Psi(e^{i omega t}) = e^{P(t)}, normalized to Psi(1) = 1 by P(0) = 0."""
    return CircleFunction(path, lambda t: np.exp(path.P(t)))


class CirclePair:
    """The solution y = (u, v) of the linear system y' = M y of ``phase``
    behind the path (``PhasePath.solution``) and Ry(t) = (-v(-t), u(-t)),
    which solves the system too since b is even: the basis of every circle
    solution.  A circle solution is a coordinate pair c = (c0, c1), the
    solution c0 y + c1 Ry:

        u_c = c0 u(t) - c1 v(-t),    v_c = c0 v(t) + c1 u(-t).

    In circle coordinates the four half-power products are y at t and -t,

        S    = Psi(z)^1/2   Phi(z)^1/2    = v(t)
        R    = Psi(1/z)^1/2 Phi(1/z)^-1/2 = u(-t)
        Rrec = Psi(z)^1/2   Phi(z)^-1/2   = u(t)
        Srec = Psi(1/z)^1/2 Phi(1/z)^1/2  = v(-t),

    on the continuous branches through t = 0 by construction.  R^2 = -1, so
    c0 + c1 R acts on coordinates as [[c0, -c1], [c1, c0]] (``compose``).
    The Wronskian u(t)u(-t) + v(t)v(-t) of y and Ry is constant, M being
    traceless, and equals 2 cos(phi0): {y, Ry} is a basis where cos(phi0) != 0.
    """

    def __init__(self, path: PhasePath):
        self.path = path
        self.params = path.params

    def __call__(self, t) -> "PairValues":
        """The basis on (t, -t) from one read of the path; y' = M y."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        u = np.concatenate((t, -t))
        y = self.path.solution(u)
        (alpha, beta), = system_row(self.params, u)
        return PairValues(t, y, np.array((alpha * y[0] + beta * y[1], beta * y[0] - alpha * y[1])))

    @cached_property
    def at_one(self) -> "PairValues":
        """The basis at t = 0 (z = 1), read once for every solution on it."""
        return self(0.0)

    @cached_property
    def _edges(self) -> np.ndarray:
        """y at the cut edges e^{+-i pi} (t = +-T/2) and at z = 1, read once."""
        T = self.params.T
        return self.path.solution(np.array([T / 2, -T / 2, 0.0]))

    def boundary(self, c) -> tuple[complex, complex, complex]:
        """v_c of the solution c at the cut edges and at z = 1, from the
        pair's one read of y there: for c = (1, 0) it is S, with
        e^{P/2} = |S| and e^{i phi/2} = S/|S|."""
        u, v = self._edges
        return tuple((c[0] * v + c[1] * u[[1, 0, 2]]).tolist())  # u(-t): the edges swap


class PairValues:
    """y and Ry on u = (t, -t), and their t-derivatives at t: Ry at u reads y
    at -u, the other half."""

    def __init__(self, t: np.ndarray, y: np.ndarray, dy: np.ndarray):
        n = t.shape[0]
        self.t = t
        yr = y.reshape(2, 2, n)[:, ::-1].reshape(2, 2 * n)
        self.basis = y, np.array((-yr[1], yr[0]))
        self.dots = dy[:, :n], np.array((dy[1, n:], -dy[0, n:]))

    def solution(self, c) -> tuple[np.ndarray, np.ndarray]:
        """y_c = c0 y + c1 Ry as (2, 2n) on (t, -t), and y_c' as (2, n) at t."""
        (y, ry), (dy, dry) = self.basis, self.dots
        return c[0] * y + c[1] * ry, c[0] * dy + c[1] * dry


def compose(a, c) -> tuple[complex, complex]:
    """The coordinates of a0 y' + a1 R y' for y' = c0 y + c1 R y: the
    product [[a0, -a1], [a1, a0]] c, as R y' = c0 R y - c1 y."""
    return a[0] * c[0] - a[1] * c[1], a[1] * c[0] + a[0] * c[1]


def half_power_factors(path: PhasePath, t: np.ndarray):
    """(S, R, Rrec, Srec) of the solved pair at t; see ``CirclePair``."""
    (u, v), n = CirclePair(path)(t).basis[0], np.size(t)
    return v[:n], u[n:], u[:n], v[n:]


def half_power_factor_dots(path: PhasePath, t: np.ndarray):
    """Analytic d/dt of the four half-power products (same order)."""
    (du, dv), (dru, drv) = CirclePair(path)(t).dots
    return dv, drv, du, -dru


def quotient(values: PairValues, c, what: str):
    """The Moebius quotient v_c / u_c of the circle solution c at the times
    of ``values``, as ((num, den), (num_dot, den_dot), (value, dot)): its
    two parts v_c and u_c, their t-derivatives, and the quotient itself with
    its t-derivative.

    The explicit monodromy, the square-root transform (both applications)
    and the alpha family have this shape; only the coordinates differ.  A
    denominator below DENOMINATOR_FLOOR raises DenominatorVanished, naming
    ``what`` and the first such time.
    """
    t = values.t
    y_c, (den_dot, num_dot) = values.solution(c)
    den, num = y_c[:, : t.shape[0]]
    bad = np.abs(den) < DENOMINATOR_FLOOR
    if bad.any():
        raise DenominatorVanished(f"{what} denominator vanished", t=float(t[bad][0]))
    return (num, den), (num_dot, den_dot), (num / den, (num_dot * den - num * den_dot) / den**2)


# ---------------------------------------------------------------------------
# Theta pair
# ---------------------------------------------------------------------------

class ThetaPair:
    """Theta, ThetaTilde on [-T/2, T/2] with Theta(1) = i, ThetaTilde(1) = -i,
    integrated on the phase path's own rows (``theta_pair_solve``)."""

    def __init__(self, path: PhasePath):
        self.path = path
        self._half = half = 0.5 * path.params.T
        # rows counted from t = 0 until one reaches |t| = T/2
        self._fwd, self._bwd = (
            gauss.conj_square_quadrature(
                rows, min(int(np.searchsorted(np.abs(rows.ts), half)), rows.n), 1j)
            for rows in (path._fwd, path._bwd))

    def values(self, t) -> np.ndarray:
        """(2, n) values of (Theta, ThetaTilde) at the times t, ThetaTilde =
        conj Theta."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.size and not (t.min() >= -self._half and t.max() <= self._half):  # NaN fails
            raise OutOfWindow(f"theta pair evaluated outside [-T/2, T/2] = "
                              f"[{-self._half}, {self._half}]")
        return gauss.two_sided(t, self._fwd, self._bwd, np.empty((2,) + t.shape, dtype=complex))

    def psi_route(self, t) -> np.ndarray:
        """(Theta - ThetaTilde) / (2i) = Im Theta, real: equals e^{P(t)} on
        the circle."""
        return self.values(t)[0].imag


def theta_pair_solve(path: PhasePath) -> ThetaPair:
    """The theta subsystem from t = 0 both ways over [-T/2, T/2], as the
    exact integral Theta = i (1 + int_0^t conj(u)^2) of the phase path's own
    row polynomials; P is never read.  Evaluating the pair outside
    [-T/2, T/2] raises OutOfWindow.
    """
    return ThetaPair(path)


# ---------------------------------------------------------------------------
# Continuation off the circle
# ---------------------------------------------------------------------------


def riccati_circle_residual(params: ModelParams, t, F, Fdot) -> np.ndarray:
    """Residual of the Riccati equation along the circle.

    Uses the chain rule d/dt = i*omega*z*d/dz, under which the equation reads
    dF/dt = (1 - F^2)/2 + i*omega*(ell + 2*mu*cos(omega*t))*F.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    drive = params.ell + 2.0 * params.mu * np.cos(params.omega * t)
    return Fdot - (0.5 * (1.0 - F * F) + 1j * params.omega * drive * F)


def continue_riccati_path(params: ModelParams, starts: list[complex],
                          w1: complex) -> list[tuple[complex, bool]]:
    """Continue Riccati solutions, F = F0 at z = 1 for each F0 in ``starts``,
    along the one straight leg w = s w1, s in [0, 1], in w = log z, to
    z = exp(w1).

    F = v/u for the linear system y = (u, v), dy/dz = M(z) y,

        u' = -(c/2) u + v / (2 i omega z),    v' = u / (2 i omega z) + (c/2) v,

    c = ell/z + mu (1 + z^-2), collocated from (1, F0) for every start at
    once by ``gauss.collocate``: one set of rows, each start a pair carried
    by the same row propagators.  Its coefficients are analytic on the
    annulus, so (u, v) passes through a pole of F with no change of chart,
    and any leg homotopic to a route in the annulus ends at the same value.
    On the leg dy/ds = w1 z M(z) y, and

        ||z M(z)||_inf <= (|ell| + |mu| (r + 1/r) + 1/omega) / 2,    r = |z|,

    where r + 1/r = 2 cosh(Re w) is convex in Re w = s Re w1, so it is largest
    at an end of the leg: 2 at z = 1, 2 cosh(Re w1) >= 2 at the other.  That
    rate times |w1| is what the leg states to ``gauss.uniform_rows``
    (CHANGES.md), before any row is collocated.

    ell, mu and omega are real, so the leg to conj w1 is this one reflected.
    There z is conj z, half c is conj(half c) and the off-diagonal
    w1 / (2 i omega) is -conj of this leg's, so its matrix is D conj(M) D with
    D = diag(1, -1), and D conj(y) solves it where y solves this one.  A
    start F0 there is the start -conj F0 here, and ends at -conj(v/u): the
    caller continues both legs on one set of rows.  Every rounding of the
    kernel and the chain commutes with conjugation and with the signs of D,
    so the reflected end is the bits of the leg collocated on its own.

    v/u is read from the last row's mantissas at its end, so the rows' power
    of two never enters.  Returns one (v/u, pole_flag) per start, where the
    flag marks an end at (numerically) a pole, |u| < |v| / 1e6.
    """
    ell, mu, omega, w1 = params.ell, params.mu, params.omega, complex(w1)
    rate = 0.5 * (abs(ell) + abs(mu) * 2.0 * math.cosh(w1.real) + 1.0 / omega) * abs(w1)
    n, h = gauss.uniform_rows(1.0, rate, f"log z leg 0 -> {w1!r}")
    ts = np.arange(n + 1) * h
    ts[-1] = 1.0
    nodes = h * gauss.NODE_FRACTIONS[:, None]

    def matrices(blk: slice) -> np.ndarray:
        z = np.exp(w1 * (ts[blk] + nodes))
        # w1 z M(z)
        half_c = 0.5 * w1 * (ell + mu * (z + 1.0 / z))
        off = np.full_like(z, w1 / (2j * omega))
        return np.array(((-half_c, off), (off, half_c))).transpose(2, 0, 1, 3)

    y = tuple(c for F0 in starts for c in (1.0 + 0j, complex(F0)))
    rows = gauss.collocate(matrices, ts, h, y)
    end = rows.values(np.array([n - 1]), np.ones(1))[0].tolist()
    return [((v / u if u else complex(math.inf, math.inf)), abs(u) < abs(v) / 1e6)
            for u, v in zip(end[::2], end[1::2])]
