"""The transform whose double application is the monodromy.

Everything here is algebraic in the circle data: the transformed pair is
built from the four half-power products and a handful of constants taken
from the pair's own boundary data (``CirclePair.boundary``, where
e^{i phi/2} = S/|S| and e^{P/2} = |S|).  The two numerator/denominator
combinations

    Nhat = 2i K1 S + K2 R,        Dden = -2i K1 Rrec + K2 Srec

satisfy the same two-by-two linear system along the circle as (S, Rrec)
themselves, which is why Phi_B = -Nhat / Dden and Psi_B = -Nhat Dden / k,
with k = -Nhat(0) Dden(0), solve the Riccati pair with Psi_B(1) = 1.  In the
code Phi_B is the ``circle.quotient`` with alpha = 2i K1 and beta = K2, the
shape of the explicit monodromy, whose denominator is den = -Dden exactly:

    Phi_B = Nhat / den,           Psi_B = Nhat den / k,    k = Nhat(0) den(0).

Negation is exact in floating point, so the two forms agree bit for bit.
(den, num) is (Rrec, S) times alpha plus (-Srec, R) times beta, and both
solve the phase path's linear system, so sigma (den, num) / sqrt(k) is the
transformed pair's own solution (u_B, v_B): v_B^2 = Psi_B Phi_B, with the
sign sigma = +-1 that puts phi_B(0) on its principal branch.  Theorem 2 is
then the same constructor applied twice: the second time to that solution.
The P_B panel table, a quadrature of cos(phi_B) collocated by
``gauss.collocate`` like every other dense output, serves only the
``psi_quadrature_residual`` route and the continuous ``phase``.

The companion theta pair is taken literally from the displayed formulas.  As
extracted, those formulas produce the mirror-oriented pair: they satisfy

    2 dTheta_B/dt      = -Phi_B   (Theta_B - ThetaTilde_B)
    2 dThetaTilde_B/dt = +Phi_B^-1(Theta_B - ThetaTilde_B)

with Theta_B(1) = i, ThetaTilde_B(1) = -i exactly, and their difference over
2i equals 1/Psi_B (the reciprocal of the quadrature continuation).  Both the
mirror residuals and the reciprocal identity are certified; Psi_B itself is
delivered via the product form above, which is the orientation pinned by the
route-equivalence requirement.
"""

from __future__ import annotations

import cmath
from functools import cached_property

import numpy as np

from . import gauss
from .circle import CirclePair, quotient, riccati_circle_residual
from .errors import OutOfWindow
from .heun import MINUS_Z_LIFT, cos_phi_at_one
from .heunpoly import NumericQuad
from .monodromy import monodromy_direct
from .phase import PhasePath, turning_rate

SHORTCUT_MAPPING = "u/v/w-default"
THETA_B_ORIENTATION = "mirror (difference/2i equals 1/Psi_B)"


def _shortcuts(edges: tuple[complex, complex, complex], ell: int) -> tuple[complex, ...]:
    """(u+, u-, v+, v-, w+, w-): the sums and differences of two unit phases
    in the transform formulas, on the continuous branch: e^{i phi/2} = S/|S|
    at t = T/2, -T/2 and 0, from the pair's ``boundary``."""
    sgn = (-1.0) ** ell
    ep, em, w = (S / abs(S) for S in edges)
    w_bar = 1j * w.conjugate()
    return (sgn * ep + 1j / ep, sgn * ep - 1j / ep, em + 1j * sgn / em, em - 1j * sgn / em,
            w + w_bar, w - w_bar)


def _formula_constants(edges: tuple[complex, complex, complex], nq: NumericQuad):
    """K1, K2 of the Phi_B display plus the theta numerator constants;
    e^{P/2} at t = +-T/2 is |S| there, and sin(phi(0)) = Im(S^2) / |S|^2 at 0."""
    pp, pm, S0 = abs(edges[0]), abs(edges[1]), edges[2]
    Dp, Dm = nq.d_plus, nq.d_minus
    up, um, vp, vm, wp, wm = _shortcuts(edges, nq.ell)
    s0 = (S0 * S0).imag / abs(S0) ** 2
    K1 = pp * (Dp * wm * um + Dm * wp * up)
    K2 = -Dp * wm * (pp * um + pm * vm) + Dm * wp * (pp * up + pm * vp)
    X = Dm * wp * ((2 * s0 - 1) * pp * up - pm * vp) + Dp * wm * ((2 * s0 + 1) * pp * um + pm * vm)
    n2 = -Dm * wp * ((s0 - 2) * pp * up + s0 * pm * vp) + Dp * wm * (
        (s0 + 2) * pp * um + s0 * pm * vm
    )
    return K1, K2, X, n2


#: Half-width of the panel table, in units of T.
TABLE_SPAN = 0.55


class SqrtMonodromyTransform:
    """One application of the transform to a circle pair, with the constants
    of its formulas taken from the pair's own boundary data.

    Raises NonIntegerOrder off integer ell and DegenerateAtOne where
    cos(phi(0)) vanishes; where D+ or D- vanishes there is no ``nq``.
    """

    def __init__(self, pair: CirclePair, nq: NumericQuad):
        pair.params.require_integer_order()
        edges = pair.boundary()
        self.cos_phi0 = cos_phi_at_one(edges[2])
        self.pair = pair
        self.params = pair.params
        K1, K2, self._X, self._n2 = _formula_constants(edges, nq)
        # Phi_B as a circle.quotient: num = Nhat, den = -Dden (module docstring)
        self.alpha, self.beta = 2j * K1, K2
        (num, den), _, _ = quotient(self.alpha, self.beta, *pair(0.0), 0.0, "Phi_B")
        self.k_norm = complex(num[0] * den[0])
        # S_B(0) = sigma num(0) / sqrt(k) is e^{i phi_B(0)/2} on the principal
        # branch of phi_B(0): its argument lies in (-pi/2, pi/2]
        root = cmath.sqrt(self.k_norm)
        self._scale = (1.0 if -0.5 * np.pi < cmath.phase(num[0] / root) <= 0.5 * np.pi
                       else -1.0) / root
        self.span = TABLE_SPAN * self.params.T  # of the panel table

    def at(self, t) -> "TransformValues":
        """The transformed pair and its theta companions at t, from one pair evaluation."""
        return TransformValues(self, np.atleast_1d(np.asarray(t, dtype=float)))

    def solution(self, t) -> np.ndarray:
        """(2, n) values of the transformed pair's linear solution,
        (u_B, v_B) = sigma (den, num) / sqrt(k), at the times t.

        Phi_B = num/den and Psi_B = num den / k, so v_B^2 = Psi_B Phi_B and
        u_B^2 = Psi_B / Phi_B: these are the transformed pair's half powers
        S_B and Rrec_B, and (den, num) solves the phase path's linear system
        (module docstring).  sigma = +-1 puts phi_B(0) on its principal
        branch."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        (num, den), _, _ = quotient(self.alpha, self.beta, *self.pair(t), t, "Phi_B")
        return self._scale * np.array((den, num))

    # ---- continuous phase and quadrature of the transformed pair ----
    @cached_property
    def table(self) -> tuple[gauss.Rows, gauss.Rows]:
        """The panel table, built on first use: forward and backward rows
        over +-span of the linear pair y = (Y, 1), y' = [[0, f], [0, 0]] y,
        collocated by ``gauss.collocate`` from (i phi_B(0), 1), so that
        Y = P_B + i phi_B.  f = cos(phi_B) + i dphi_B/dt, with
        cos(phi_B) = Re Phi_B (|Phi_B| = 1 is certified) and
        dphi_B/dt = Im(conj(Phi_B) Phi_B'), and phi_B(0) is the principal
        argument.  phi_B solves the phase's own drive equation
        (``phase_equation_residual`` certifies it), so
        ||M||_inf = |f| with |f|^2 = 1 + b^2 - 2 b sin(phi_B) <= (1 + |b|)^2,
        and the table states ``phase.turning_rate`` (CHANGES.md).  The
        system matrices square to zero, so two Picard sweeps settle each
        block."""
        n, h = gauss.uniform_rows(self.span, turning_rate(self.params),
                                  f"P_B table [0.0, {self.span!r}]")
        widths = np.array((h, -h))
        ts = widths[:, None] * np.arange(n + 1)
        ts[:, -1] = self.span, -self.span
        nodes = ts[:, None, :-1] + widths[:, None, None] * gauss.NODE_FRACTIONS[:, None]
        t = nodes.ravel()  # one evaluation at every node of both sides
        _, _, (F, F_dot) = quotient(self.alpha, self.beta, *self.pair(t), t, "Phi_B")
        M = np.zeros(nodes.shape[:2] + (2, 2, n), dtype=complex)  # (side, node, 2, 2, row)
        M[:, :, 0, 1] = (F.real + 1j * (np.conj(F) * F_dot).imag).reshape(nodes.shape)
        y = (1j * float(np.angle(self.at(0.0).phi[0])), 1.0)
        return tuple(gauss.collocate(lambda blk, side=side: side[..., blk], edges, h, y)
                     for edges, h, side in zip(ts, widths, M))

    def integrals(self, t) -> np.ndarray:
        """P_B + i phi_B at the times t, from the panel table; the imaginary
        part is the continuous phase that picks phi_B's branch.  Times
        outside the table raise OutOfWindow."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.size and not (np.min(t) >= -self.span and np.max(t) <= self.span):
            raise OutOfWindow(f"t range [{np.min(t)}, {np.max(t)}] outside +-{self.span}")
        fwd, bwd = self.table
        return gauss.two_sided(t, fwd, bwd, np.empty((2,) + t.shape, dtype=complex))[0]

    def phase(self, t) -> np.ndarray:
        """Continuous phi_B(t): the principal argument of Phi_B moved by the
        multiple of 2*pi nearest the panel table's continuous phase.  The
        table only picks the branch, so the result does not depend on its
        last bits; at t = 0 it is the principal argument.  A time outside
        the table raises OutOfWindow before the pair is evaluated."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        base = self.integrals(t).imag
        a = np.angle(self.at(t).phi)
        return a + 2 * np.pi * np.round((base - a) / (2 * np.pi))

    def quadrature(self):
        """P_B = int_0^t cos(phi_B) as a callable on the table's span; the
        panel table is built here, if it is not yet."""
        self.table  # built now, not on the first call of the result
        return lambda t: self.integrals(t).real


class TransformValues:
    """Phi_B, Psi_B, Theta_B, ThetaTilde_B and their t-derivatives at the
    times t, built from one ``CirclePair`` call.

    Psi_B = Nhat*den is normalized to 1 at t = 0.  The theta pair is taken
    literally from the displayed formulas (mirror orientation, see the module
    docstring).
    """

    def __init__(self, tr: SqrtMonodromyTransform, t: np.ndarray):
        factors, dots = tr.pair(t)
        (num, den), (numd, dend), (self.phi, self.phi_dot) = quotient(
            tr.alpha, tr.beta, factors, dots, t, "Phi_B")
        self.psi = num * den / tr.k_norm
        self.psi_dot = (numd * den + num * dend) / tr.k_norm

        S, R, Rrec, Srec = factors
        Sd, Rd, Rrecd, Srecd = dots
        n1, m1, n2, c0 = -1j * tr._X, 1j * tr._X, tr._n2, tr.cos_phi0
        top, topd = n1 * Rrec + n2 * Srec, n1 * Rrecd + n2 * Srecd
        tilde, tilded = m1 * S + n2 * R, m1 * Sd + n2 * Rd
        self.theta = -top / (c0 * den)
        self.theta_tilde = tilde / (c0 * num)
        self.theta_dot = (top * dend - topd * den) / (c0 * den**2)
        self.theta_tilde_dot = (tilded * num - tilde * numd) / (c0 * num**2)


def transform_from_path(path: PhasePath, nq: NumericQuad) -> SqrtMonodromyTransform:
    """First application of the transform, built on the solved circle pair."""
    return SqrtMonodromyTransform(CirclePair(path.solution, path.params), nq)


def verify_theorem2(
    path: PhasePath,
    nq: NumericQuad,
    grid_size: int = 1001,
) -> dict:
    """Full certification battery for the square-root property.

    Applies the transform twice (the second time on the reconstructed
    continuous phase and its quadrature) and compares with the period shift;
    also certifies the transformed pair's equations, constraints and theta
    companions.  Returns a flat report dict.
    """
    p = path.params
    T = p.T
    t = np.linspace(-T / 2, T / 2, grid_size)

    first = transform_from_path(path, nq)
    P_B = first.quadrature()

    # second application: the same constructor on the transformed pair
    second = SqrtMonodromyTransform(CirclePair(first.solution, p), nq)
    b_squared = float(np.max(np.abs(second.at(t).phi - monodromy_direct(path, t))))

    # every other residual from one bundle on the grid and one at t = 0
    b, b0 = first.at(t), first.at(0.0)
    F = b.phi
    # transformed phase solves the drive equation (analytic derivative),
    # with sin(phi_B) = Im(Phi_B) / |Phi_B|
    phiB_dot = (np.conj(F) * b.phi_dot).imag
    phase_eq_res = float(
        np.max(np.abs(phiB_dot + F.imag / np.abs(F) - p.Bdrive - p.A * np.cos(p.omega * t)))
    )
    # the theta pair solves the mirror-oriented system with Phi_B
    delta = b.theta - b.theta_tilde
    mirror = (2.0 * b.theta_dot + F * delta, 2.0 * b.theta_tilde_dot - delta / F)

    return {
        "sup_phi_residual": float(np.max(np.abs(riccati_circle_residual(p, t, F, b.phi_dot)))),
        "unimodularity_residual": float(np.max(np.abs(np.abs(F) - 1.0))),
        "phase_equation_residual": phase_eq_res,
        "psi_equation_residual": float(np.max(np.abs(b.psi_dot - 0.5 * (F + 1.0 / F) * b.psi))),
        "psi_at_1_residual": float(abs(b0.psi[0] - 1.0)),
        "psi_quadrature_residual": float(np.max(np.abs(b.psi - np.exp(P_B(t))))),
        "theta_ic_residual": float(np.max(np.abs((b0.theta[0] - 1j, b0.theta_tilde[0] + 1j)))),
        "theta_system_residual": float(np.max(np.abs(mirror))),
        "psi_reciprocal_residual": float(np.max(np.abs(delta / 2j * b.psi - 1.0))),
        "b_squared_residual": b_squared,
        "grid_size": grid_size,
        "conventions": {
            "minus_z_lift": MINUS_Z_LIFT,
            "shortcut_mapping": SHORTCUT_MAPPING,
            "theta_orientation": THETA_B_ORIENTATION,
        },
    }
