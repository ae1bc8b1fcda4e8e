"""The transform whose double application is the monodromy.

Everything here is algebraic in the circle data: the transformed pair is
built from the four half-power products and a handful of boundary constants.
The two numerator/denominator combinations

    Nhat = 2i K1 S + K2 R,        Dden = -2i K1 Rrec + K2 Srec

satisfy the same two-by-two linear system along the circle as (S, Rrec)
themselves, which is why

    Phi_B = -Nhat / Dden,         Psi_B = -Nhat * Dden / k,

with k = -Nhat(0) Dden(0), solve the Riccati pair with Psi_B(1) = 1.

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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circle import BoundaryValues, CircleFunction, boundary_values
from .errors import DegenerateAtOne, DenominatorVanished, WindowTooSmall
from .heun import MINUS_Z_LIFT, COS_PHI0_FLOOR
from .heunpoly import NumericQuad
from .monodromy import DENOMINATOR_FLOOR, monodromy_direct
from .params import ModelParams
from .phase import PhasePath
from .rk import DenseTable, dop853

SHORTCUT_MAPPING = "u/v/w-default"
THETA_B_ORIENTATION = "mirror (difference/2i equals 1/Psi_B)"


@dataclass(frozen=True)
class ShortcutSet:
    """Boundary coefficients of the transform formulas."""

    u_plus: complex
    u_minus: complex
    v_plus: complex
    v_minus: complex
    w_plus: complex
    w_minus: complex
    D_plus: float
    D_minus: float
    exp_half_P_plus: float
    exp_half_P_minus: float
    phi_at_0: float
    ell: int

    @property
    def cos_phi0(self) -> float:
        return float(np.cos(self.phi_at_0))

    @property
    def sin_phi0(self) -> float:
        return float(np.sin(self.phi_at_0))

    def modulus_spot_check(self) -> float:
        """max |.|^2 over the six shortcuts; each is a sum of two unit phases."""
        vals = [self.u_plus, self.u_minus, self.v_plus, self.v_minus, self.w_plus, self.w_minus]
        return float(max(abs(v) ** 2 for v in vals))


def _shortcuts_from_scalars(
    phi_plus: float,
    phi_minus: float,
    phi_at_0: float,
    P_plus: float,
    P_minus: float,
    nq: NumericQuad,
) -> ShortcutSet:
    ell = nq.ell
    sgn = (-1.0) ** ell
    ep = np.exp(0.5j * phi_plus)
    em = np.exp(0.5j * phi_minus)
    return ShortcutSet(
        u_plus=complex(sgn * ep + 1j / ep),
        u_minus=complex(sgn * ep - 1j / ep),
        v_plus=complex(em + 1j * sgn / em),
        v_minus=complex(em - 1j * sgn / em),
        w_plus=complex(np.exp(0.5j * phi_at_0) + 1j * np.exp(-0.5j * phi_at_0)),
        w_minus=complex(np.exp(0.5j * phi_at_0) - 1j * np.exp(-0.5j * phi_at_0)),
        D_plus=nq.d_plus,
        D_minus=nq.d_minus,
        exp_half_P_plus=float(np.exp(0.5 * P_plus)),
        exp_half_P_minus=float(np.exp(0.5 * P_minus)),
        phi_at_0=phi_at_0,
        ell=ell,
    )


def build_shortcuts(bv: BoundaryValues, nq: NumericQuad, params: ModelParams) -> ShortcutSet:
    """Literal evaluation of the coefficient shortcuts on the continuous branch."""
    if not nq.generic:
        from .errors import GenericityViolated

        raise GenericityViolated(
            f"D+={nq.d_plus:.3e}, D-={nq.d_minus:.3e}: transform undefined here"
        )
    params.require_integer_order()
    return _shortcuts_from_scalars(
        bv.phi_plus, bv.phi_minus, bv.phi_at_0, bv.P_plus, bv.P_minus, nq
    )


def _require_nondegenerate(sc: ShortcutSet):
    if abs(sc.cos_phi0) < COS_PHI0_FLOOR:
        raise DegenerateAtOne(
            f"cos(phi(0)) = {sc.cos_phi0:.2e}: transform formulas singular at z = 1"
        )


def _formula_constants(sc: ShortcutSet):
    """K1, K2 of the Phi_B display plus the theta numerator constants."""
    pp, pm = sc.exp_half_P_plus, sc.exp_half_P_minus
    Dp, Dm = sc.D_plus, sc.D_minus
    up, um, vp, vm = sc.u_plus, sc.u_minus, sc.v_plus, sc.v_minus
    wp, wm = sc.w_plus, sc.w_minus
    s0 = sc.sin_phi0
    K1 = pp * (Dp * wm * um + Dm * wp * up)
    K2 = -Dp * wm * (pp * um + pm * vm) + Dm * wp * (pp * up + pm * vp)
    X = Dm * wp * ((2 * s0 - 1) * pp * up - pm * vp) + Dp * wm * ((2 * s0 + 1) * pp * um + pm * vm)
    n2 = -Dm * wp * ((s0 - 2) * pp * up + s0 * pm * vp) + Dp * wm * (
        (s0 + 2) * pp * um + s0 * pm * vm
    )
    return K1, K2, X, n2


PhiFunc = Callable[[np.ndarray], np.ndarray]

#: Margin, in units of T, the branch grid keeps beyond every requested time.
_BRANCH_MARGIN = 0.05


class SqrtMonodromyTransform:
    """One application of the transform to a circle pair given as callables.

    ``phi_at`` and ``P_at`` must accept a float array of times and return the
    continuous phase and quadrature values; the boundary scalars in ``sc``
    must belong to the same pair.
    """

    def __init__(self, phi_at: PhiFunc, P_at: PhiFunc, sc: ShortcutSet, params: ModelParams):
        _require_nondegenerate(sc)
        self.phi_at = phi_at
        self.P_at = P_at
        self.sc = sc
        self.params = params
        self.K1, self.K2, self._X, self._n2 = _formula_constants(sc)
        n0 = self._nhat_dden(np.array([0.0]))
        self.k_norm = complex(-n0[0][0] * n0[1][0])
        self._branch_grid: tuple[np.ndarray, np.ndarray] | None = None
        #: number of branch-grid builds; verify_theorem2 needs exactly one
        self.branch_builds = 0

    # ---- factor plumbing ----
    def _factors(self, t: np.ndarray):
        ph = self.phi_at(t)
        P = self.P_at(t)
        phm = self.phi_at(-t)
        Pm = self.P_at(-t)
        S = np.exp(0.5 * (P + 1j * ph))
        R = np.exp(0.5 * (Pm - 1j * phm))
        Rrec = np.exp(0.5 * (P - 1j * ph))
        Srec = np.exp(0.5 * (Pm + 1j * phm))
        return S, R, Rrec, Srec

    def _factor_dots(self, t: np.ndarray):
        p = self.params
        ph = self.phi_at(t)
        phm = self.phi_at(-t)
        drive = p.Bdrive + p.A * np.cos(p.omega * t)
        dph = drive - np.sin(ph)
        dphm = drive - np.sin(phm)
        S, R, Rrec, Srec = self._factors(t)
        return (
            0.5 * (np.cos(ph) + 1j * dph) * S,
            0.5 * (-np.cos(phm) + 1j * dphm) * R,
            0.5 * (np.cos(ph) - 1j * dph) * Rrec,
            0.5 * (-np.cos(phm) - 1j * dphm) * Srec,
        )

    def _nhat_dden(self, t: np.ndarray):
        S, R, Rrec, Srec = self._factors(t)
        return 2j * self.K1 * S + self.K2 * R, -2j * self.K1 * Rrec + self.K2 * Srec

    def _nhat_dden_dots(self, t: np.ndarray):
        Sd, Rd, Rrecd, Srecd = self._factor_dots(t)
        return 2j * self.K1 * Sd + self.K2 * Rd, -2j * self.K1 * Rrecd + self.K2 * Srecd

    # ---- transformed pair ----
    def phi_B(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        num, den = self._nhat_dden(t)
        bad = np.abs(den) < DENOMINATOR_FLOOR
        if bad.any():
            raise DenominatorVanished("Phi_B denominator vanished", t=float(t[bad][0]))
        return -num / den

    def phi_B_dot(self, t) -> np.ndarray:
        """Analytic d/dt of Phi_B along the circle."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        num, den = self._nhat_dden(t)
        numd, dend = self._nhat_dden_dots(t)
        return -(numd * den - num * dend) / den**2

    def psi_B(self, t) -> np.ndarray:
        """The quadrature partner: -Nhat*Dden normalized to 1 at t = 0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        num, den = self._nhat_dden(t)
        return -num * den / self.k_norm

    def psi_B_dot(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        num, den = self._nhat_dden(t)
        numd, dend = self._nhat_dden_dots(t)
        return -(numd * den + num * dend) / self.k_norm

    # ---- continuous phase and quadrature of the transformed pair ----
    def _ensure_branch(self, lo: float, hi: float, n: int = 8193):
        """Make the branch grid cover [lo, hi]; a rebuild only ever widens it."""
        if self._branch_grid is not None:
            ts, _ = self._branch_grid
            if ts[0] <= lo and ts[-1] >= hi:
                return
            lo, hi = min(lo, ts[0]), max(hi, ts[-1])
        ts = np.linspace(lo, hi, n)
        ph = np.unwrap(np.angle(self.phi_B(ts)))
        # anchor: principal argument at t = 0, then continuity
        i0 = int(np.argmin(np.abs(ts)))
        anchor = float(np.angle(self.phi_B(np.array([0.0]))[0]))
        ph -= 2 * np.pi * np.round((ph[i0] - anchor) / (2 * np.pi))
        self._branch_grid = (ts, ph)
        self.branch_builds += 1

    def phase(self, t) -> np.ndarray:
        """Continuous phi_B(t): the principal argument of Phi_B(t) moved by
        the multiple of 2*pi nearest the branch grid's value.

        The grid only picks the branch, so the result does not depend on
        the grid's last bits.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        lo = min(-_BRANCH_MARGIN * self.params.T + float(np.min(t)), 0.0)
        hi = max(_BRANCH_MARGIN * self.params.T + float(np.max(t)), 0.0)
        self._ensure_branch(lo, hi)
        ts, ph = self._branch_grid
        base = np.interp(t, ts, ph)
        a = np.angle(self.phi_B(t))
        return a + 2 * np.pi * np.round((base - a) / (2 * np.pi))

    def quadrature(self, span: float, tol: float = 1e-12):
        """P_B on [-span, span] by integrating cos(phi_B); returns a callable."""
        # one grid for every window phase() is asked for on [-span, span]
        reach = span + _BRANCH_MARGIN * self.params.T
        self._ensure_branch(-reach, reach)

        def rhs(t, y):
            return (math.cos(self.phase(np.array([t]))[0]),)

        rtol = max(tol, 1e-13)
        fwd, bwd = (
            DenseTable(dop853(rhs, 0.0, (0.0,), t_bound, rtol, rtol * 1e-2, dense=True))
            for t_bound in (span, -span)
        )

        def P_B(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            out = np.empty_like(t)
            m = t >= 0
            if m.any():
                out[m] = fwd(t[m])[0]
            if (~m).any():
                out[~m] = bwd(t[~m])[0]
            return out

        return P_B

    # ---- residuals ----
    def riccati_residual(self, t) -> float:
        from .circle import riccati_circle_residual

        t = np.atleast_1d(np.asarray(t, dtype=float))
        F = self.phi_B(t)
        return float(np.max(np.abs(riccati_circle_residual(self.params, t, F, self.phi_B_dot(t)))))

    def unimodularity_residual(self, t) -> float:
        return float(np.max(np.abs(np.abs(self.phi_B(t)) - 1.0)))

    def psi_equation_residual(self, t) -> float:
        """Residual of the quadrature equation for Psi_B with Phi_B."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        F = self.phi_B(t)
        return float(np.max(np.abs(self.psi_B_dot(t) - 0.5 * (F + 1.0 / F) * self.psi_B(t))))


@dataclass
class ThetaBPair:
    """Algebraic theta pair of the transform plus its certificates."""

    transform: SqrtMonodromyTransform

    def theta_B(self, t) -> np.ndarray:
        tr = self.transform
        t = np.atleast_1d(np.asarray(t, dtype=float))
        _, _, Rrec, Srec = tr._factors(t)
        _, den = tr._nhat_dden(t)
        n1 = -1j * tr._X
        return (n1 * Rrec + tr._n2 * Srec) / (tr.sc.cos_phi0 * den)

    def theta_tilde_B(self, t) -> np.ndarray:
        tr = self.transform
        t = np.atleast_1d(np.asarray(t, dtype=float))
        S, R, _, _ = tr._factors(t)
        num, _ = tr._nhat_dden(t)
        m1 = 1j * tr._X
        return (m1 * S + tr._n2 * R) / (tr.sc.cos_phi0 * num)

    def theta_B_dot(self, t) -> np.ndarray:
        tr = self.transform
        t = np.atleast_1d(np.asarray(t, dtype=float))
        _, _, Rrec, Srec = tr._factors(t)
        _, _, Rrecd, Srecd = tr._factor_dots(t)
        _, den = tr._nhat_dden(t)
        _, dend = tr._nhat_dden_dots(t)
        n1 = -1j * tr._X
        num = n1 * Rrec + tr._n2 * Srec
        numd = n1 * Rrecd + tr._n2 * Srecd
        return (numd * den - num * dend) / (tr.sc.cos_phi0 * den**2)

    def theta_tilde_B_dot(self, t) -> np.ndarray:
        tr = self.transform
        t = np.atleast_1d(np.asarray(t, dtype=float))
        S, R, _, _ = tr._factors(t)
        Sd, Rd, _, _ = tr._factor_dots(t)
        num, _ = tr._nhat_dden(t)
        numd, _ = tr._nhat_dden_dots(t)
        m1 = 1j * tr._X
        top = m1 * S + tr._n2 * R
        topd = m1 * Sd + tr._n2 * Rd
        return (topd * num - top * numd) / (tr.sc.cos_phi0 * num**2)

    def initial_condition_residual(self) -> tuple[float, float]:
        t0 = np.array([0.0])
        return (
            float(abs(self.theta_B(t0)[0] - 1j)),
            float(abs(self.theta_tilde_B(t0)[0] + 1j)),
        )

    def mirror_system_residual(self, t) -> float:
        """Residual of the system the displayed formulas satisfy.

        The pair solves the mirror-oriented theta system with Phi_B; see the
        module docstring for the orientation bookkeeping.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        F = self.transform.phi_B(t)
        delta = self.theta_B(t) - self.theta_tilde_B(t)
        r1 = 2.0 * self.theta_B_dot(t) + F * delta
        r2 = 2.0 * self.theta_tilde_B_dot(t) - delta / F
        return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))

    def psi_reciprocal_residual(self, t) -> float:
        """sup |(Theta_B - ThetaTilde_B)/(2i) * Psi_B - 1|."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        mirror = (self.theta_B(t) - self.theta_tilde_B(t)) / 2j
        return float(np.max(np.abs(mirror * self.transform.psi_B(t) - 1.0)))


def transform_from_path(path: PhasePath, nq: NumericQuad) -> SqrtMonodromyTransform:
    """First application of the transform, built on the solved circle pair."""
    bv = boundary_values(path)
    sc = build_shortcuts(bv, nq, path.params)
    return SqrtMonodromyTransform(
        phi_at=lambda t: path.phi(t), P_at=lambda t: path.P(t), sc=sc, params=path.params
    )


def build_phi_B(
    phi_fn: CircleFunction, psi_fn: CircleFunction, sc: ShortcutSet
) -> SqrtMonodromyTransform:
    """Transform of the circle pair given as CircleFunctions (literal display)."""
    path = phi_fn.path
    return SqrtMonodromyTransform(
        phi_at=lambda t: path.phi(t), P_at=lambda t: path.P(t), sc=sc, params=path.params
    )


def build_theta_B_pair(
    phi_fn: CircleFunction, psi_fn: CircleFunction, sc: ShortcutSet
) -> tuple[ThetaBPair, SqrtMonodromyTransform]:
    """Literal theta pair plus the transform carrying Psi_B."""
    tr = build_phi_B(phi_fn, psi_fn, sc)
    return ThetaBPair(tr), tr


def verify_theorem2(
    path: PhasePath,
    nq: NumericQuad,
    grid_size: int = 1001,
    tol: float = 1e-12,
) -> dict:
    """Full certification battery for the square-root property.

    Applies the transform twice (the second time on the reconstructed
    continuous phase and its quadrature) and compares with the period shift;
    also certifies the transformed pair's equations, constraints and theta
    companions.  Returns a flat report dict.
    """
    p = path.params
    T = p.T
    if path.t_min > -1.5 * T or path.t_max < 2.0 * T:
        raise WindowTooSmall(
            f"verify_theorem2 needs window [-3T/2, 2T]; got [{path.t_min}, {path.t_max}]"
        )
    t = np.linspace(-T / 2, T / 2, grid_size)

    first = transform_from_path(path, nq)
    span = 0.55 * T
    phase_B = first.phase
    P_B = first.quadrature(span, tol=tol)

    # second application on the transformed pair
    sc2 = _shortcuts_from_scalars(
        float(phase_B(np.array([T / 2]))[0]),
        float(phase_B(np.array([-T / 2]))[0]),
        float(phase_B(np.array([0.0]))[0]),
        float(P_B(np.array([T / 2]))[0]),
        float(P_B(np.array([-T / 2]))[0]),
        nq,
    )
    second = SqrtMonodromyTransform(phi_at=phase_B, P_at=P_B, sc=sc2, params=p)

    direct = monodromy_direct(path)
    b_squared = float(np.max(np.abs(second.phi_B(t) - direct(t))))

    # transformed phase solves the drive equation (analytic derivative)
    F = first.phi_B(t)
    phiB_dot = (np.conj(F) * first.phi_B_dot(t)).imag
    phase_eq_res = float(
        np.max(np.abs(phiB_dot + np.sin(phase_B(t)) - p.Bdrive - p.A * np.cos(p.omega * t)))
    )

    theta_pair = ThetaBPair(first)
    ic1, ic2 = theta_pair.initial_condition_residual()
    psi_quad_res = float(np.max(np.abs(first.psi_B(t) - np.exp(P_B(t)))))

    return {
        "sup_phi_residual": first.riccati_residual(t),
        "unimodularity_residual": first.unimodularity_residual(t),
        "phase_equation_residual": phase_eq_res,
        "psi_equation_residual": first.psi_equation_residual(t),
        "psi_at_1_residual": float(abs(first.psi_B(np.array([0.0]))[0] - 1.0)),
        "psi_quadrature_residual": psi_quad_res,
        "theta_ic_residual": max(ic1, ic2),
        "theta_system_residual": theta_pair.mirror_system_residual(t),
        "psi_reciprocal_residual": theta_pair.psi_reciprocal_residual(t),
        "b_squared_residual": b_squared,
        "grid_size": grid_size,
        "conventions": {
            "minus_z_lift": MINUS_Z_LIFT,
            "shortcut_mapping": SHORTCUT_MAPPING,
            "theta_orientation": THETA_B_ORIENTATION,
        },
    }
