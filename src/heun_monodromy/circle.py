"""Functions on (a neighborhood of) the punctured unit circle.

The circle is parametrized by real time through z = exp(i*omega*t); every
on-circle evaluation reduces to a PhasePath lookup.  The reciprocal point
1/z on the circle is the lift t -> -t.  A circle pair is one solution
(u, v) of the phase equation's linear system, given by a callable
(``CirclePair``): the four half-power products are its components at t
and -t, on the continuous branches through t = 0 by construction, and
their derivatives are the system itself.

The theta pair is the circle's second route to Psi = e^P: its linear system
is collocated by ``gauss.collocate`` on the phase path's own rows that cover
|t| <= T/2, with e^{i phi} = conj(u)/u at the nodes read off those rows a
block at a time (``Rows.at_fractions``), and kept as ``gauss.Rows`` each
way, as mantissas with a power-of-two exponent per row, so the rows stay
finite however large e^P grows.  On the circle |Phi| = 1, so its matrix has
the form [[alpha, beta], [conj beta, conj alpha]], and from (i, -i) the
pair is a conjugate pair of ``gauss``, ThetaTilde = conj Theta: the rows keep Theta
alone, and the route to Psi is Im Theta (``ThetaPair.psi_route``).

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
from typing import Callable

import numpy as np

from . import gauss
from .errors import DenominatorVanished, OutOfWindow
from .params import ModelParams
from .phase import PhasePath, _Rows, system_row

#: Annulus guard for off-circle continuation.
RHO_MIN, RHO_MAX = 0.2, 5.0
#: The radii of the ray certificate where none are given.
DEFAULT_RHOS = (0.8, 1.25)
#: A Moebius denominator below this raises DenominatorVanished.
DENOMINATOR_FLOOR = 1e-10


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
    """The four half-power products of a circle pair and their t-derivatives.

    ``values`` takes a float array of times and returns there, as (2, n),
    the solution (u, v) of the linear system y' = M y of ``phase`` behind
    the pair (``PhasePath.solution`` does).  Its components are the
    half-power products themselves: in circle coordinates

        S    = Psi(z)^1/2   Phi(z)^1/2    = v(t)
        R    = Psi(1/z)^1/2 Phi(1/z)^-1/2 = u(-t)
        Rrec = Psi(z)^1/2   Phi(z)^-1/2   = u(t)
        Srec = Psi(1/z)^1/2 Phi(1/z)^1/2  = v(-t)

    One call evaluates (u, v) once, on t and -t together; the derivatives
    are M y itself, negated on -t.  The reciprocal point is a swap:
    S(-t) = Srec(t) and R(-t) = Rrec(t).  The pair also gives its own
    boundary data (``boundary``); ``quotient`` combines the four products
    into the Moebius quotient that the monodromy, the square-root transform
    and the alpha family of ``heun`` share.
    """

    def __init__(self, values, params: ModelParams):
        self.params = params
        self._values = values

    def __call__(self, t):
        """((S, R, Rrec, Srec), (Sd, Rd, Rrecd, Srecd)) at the times t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n = t.shape[0]
        u = np.concatenate((t, -t))
        y = self._values(u)
        (alpha, beta), = system_row(self.params, u)
        dy = np.array((alpha * y[0] + beta * y[1], beta * y[0] - alpha * y[1]))
        (Rrec, S), (R, Srec) = y[:, :n], y[:, n:]
        (Rrecd, Sd), (Rd, Srecd) = dy[:, :n], -dy[:, n:]
        return (S, R, Rrec, Srec), (Sd, Rd, Rrecd, Srecd)

    def boundary(self) -> tuple[complex, complex, complex]:
        """S at the cut edges e^{+-i pi} (t = +-T/2) and at z = 1, from one
        evaluation of the pair: e^{P/2} = |S| and e^{i phi/2} = S/|S|."""
        T = self.params.T
        return tuple(self._values(np.array([T / 2, -T / 2, 0.0]))[1].tolist())


def half_power_factors(path: PhasePath, t: np.ndarray):
    """(S, R, Rrec, Srec) of the solved pair at t; see ``CirclePair``."""
    return CirclePair(path.solution, path.params)(t)[0]


def half_power_factor_dots(path: PhasePath, t: np.ndarray):
    """Analytic d/dt of the four half-power products (same order)."""
    return CirclePair(path.solution, path.params)(t)[1]


def quotient(alpha: complex, beta: complex, factors, dots, t, what: str):
    """The Moebius quotient (alpha S + beta R) / (alpha Rrec - beta Srec) of
    the four half-power products at the times t, as ((num, den), (num_dot,
    den_dot), (value, dot)): its two parts, their t-derivatives, and the
    quotient itself with its t-derivative.

    ``factors`` and ``dots`` are one ``CirclePair`` call at t.  The explicit
    monodromy, both applications of the square-root transform and the alpha
    family on the linear basis have this shape; only the constants differ.
    A denominator below DENOMINATOR_FLOOR raises DenominatorVanished, naming
    ``what`` and the first such time.
    """
    (S, R, Rrec, Srec), (Sd, Rd, Rrecd, Srecd) = factors, dots
    num = alpha * S + beta * R
    den = alpha * Rrec - beta * Srec
    bad = np.abs(den) < DENOMINATOR_FLOOR
    if bad.any():
        raise DenominatorVanished(f"{what} denominator vanished",
                                  t=float(np.atleast_1d(t)[bad][0]))
    num_dot = alpha * Sd + beta * Rd
    den_dot = alpha * Rrecd - beta * Srecd
    return (num, den), (num_dot, den_dot), (num / den, (num_dot * den - num * den_dot) / den**2)


# ---------------------------------------------------------------------------
# Theta pair
# ---------------------------------------------------------------------------

# Orientation of the theta subsystem realized on the circle.  With
# y = (Theta, ThetaTilde) the paired equations read y' = M(t) y,
#
#     M = [[ Phi/2,       -Phi/2     ],
#          [ -1/(2 Phi),   1/(2 Phi) ]],    Phi = e^{i phi(t)},
#
# the unique orientation under which (Theta - ThetaTilde)/(2i) reproduces
# the quadrature e^{P(t)} (route equivalence pins the sign).  1/Phi =
# conj Phi, so the second row is the first's conjugate, reversed: the pair
# is collocated from the first row alone as (Theta, conj Theta).


def _collocate(rows: _Rows, count: int) -> gauss.Rows:
    """The theta pair on the first ``count`` rows of one direction of the
    phase path, the conjugate pair from Theta(0) = i, chained by
    ``gauss.collocate`` with the first row of M.
    Phi = conj(u)/u at the nodes comes from the phase rows' own polynomial,
    read a block at a time at the node fractions."""

    def matrices(blk: slice) -> np.ndarray:
        u = rows.at_fractions(blk, gauss.NODE_FRACTIONS)[0][:, :, 0]
        up = 0.5 * u.conj() / u
        return np.stack((up, -up), 1)[:, None]

    return gauss.collocate(matrices, rows.ts[:count + 1], rows.h, (1j,))


class ThetaPair:
    """Theta, ThetaTilde on [-T/2, T/2] with Theta(1) = i, ThetaTilde(1) = -i,
    collocated on the phase path's own rows (``theta_pair_solve``)."""

    def __init__(self, path: PhasePath):
        self.path = path
        self._half = half = 0.5 * path.params.T
        # rows counted from t = 0 until one reaches |t| = T/2
        self._fwd, self._bwd = (
            _collocate(rows, min(int(np.searchsorted(np.abs(rows.ts), half)), rows.n))
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
    """Collocate the theta subsystem from t = 0 both ways over [-T/2, T/2].

    The collocation runs on the phase path's own rows, with e^{i phi} at the
    nodes taken from them; P is never read.  Evaluating the pair outside
    [-T/2, T/2] raises OutOfWindow, and a block whose Picard sweeps do not
    settle raises NotConverged.
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
