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

from dataclasses import dataclass

import numpy as np

from .circle import BoundaryValues, CirclePair, boundary_values, riccati_circle_residual
from .errors import DegenerateAtOne, DenominatorVanished, OutOfWindow, WindowTooSmall
from .heun import MINUS_Z_LIFT, COS_PHI0_FLOOR
from .heunpoly import NumericQuad
from .monodromy import DENOMINATOR_FLOOR, monodromy_direct
from .params import ModelParams
from .phase import PhasePath

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


#: Half-width of the panel table, in units of T: the span verify_theorem2 uses.
TABLE_SPAN = 0.55
#: Gauss-Legendre panels per side of t = 0.
_PANELS = 400

#: Positive nodes and their weights of the 10-point Gauss-Legendre rule on
#: [-1, 1] (Abramowitz & Stegun, table 25.4).  Literals rather than
#: Golub-Welsch: the first LAPACK call keeps about 1 MB for the whole run.
_GL_POSITIVE = np.array([
    (0.1488743389816312108848260, 0.2955242247147528701738930),
    (0.4333953941292471907992659, 0.2692667193099963550912269),
    (0.6794095682990244062343274, 0.2190863625159820439955349),
    (0.8650633666889845107320967, 0.1494513491505805931457763),
    (0.9739065285171717200779640, 0.0666713443086881375935688),
])
_GL_X = np.concatenate((-_GL_POSITIVE[::-1, 0], _GL_POSITIVE[:, 0]))
_GL_W = np.concatenate((_GL_POSITIVE[::-1, 1], _GL_POSITIVE[:, 1]))
_NODES = len(_GL_X)


def _legendre(x: np.ndarray, n: int) -> np.ndarray:
    """(n + 1, len(x)) values P_0..P_n from the three-term recurrence."""
    P = np.empty((n + 1,) + x.shape)
    P[0] = 1.0
    P[1] = x
    for k in range(1, n):
        P[k + 1] = ((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1)
    return P


class PanelTable:
    """Running integrals y_i(0) + int_0^t f_i on [-span, span].

    Composite Gauss-Legendre with ``panels`` panels on each side of 0, one
    vectorized call of ``f`` for all nodes.  On each panel the interpolant of
    the node values is kept as Legendre coefficients c_k and integrated in
    closed form (Trefethen, *ATAP*, ch. 19): with P_-1 = -1,
    int_{-1}^x P_k = (P_{k+1}(x) - P_{k-1}(x)) / (2k + 1), exactly 0 at x = -1.
    Times outside the table raise OutOfWindow.
    """

    def __init__(self, span: float, panels: int, f, y0: tuple[float, ...]):
        self.span, self.panels = span, panels
        self.h = span / panels
        x, w = _GL_X, _GL_W
        left = np.arange(-panels, panels) * self.h
        nodes = (left[:, None] + 0.5 * self.h * (x + 1.0)).ravel()
        # c_k = (2k + 1)/2 sum_j w_j f(x_j) P_k(x_j), exact for the interpolant
        proj = (w * _legendre(x, _NODES - 1)).T * (np.arange(_NODES) + 0.5)
        self.coeffs = [vals.reshape(2 * panels, _NODES) @ proj for vals in f(nodes)]
        self.starts = []  # y_i at the left end of each panel
        for c, y in zip(self.coeffs, y0):
            integral = self.h * c[:, 0]
            before = -np.cumsum(integral[:panels][::-1])[::-1]
            after = np.concatenate(([0.0], np.cumsum(integral[panels:-1])))
            self.starts.append(y + np.concatenate((before, after)))

    def __call__(self, i: int, t) -> np.ndarray:
        """y_i at each time t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.size and not (np.min(t) >= -self.span and np.max(t) <= self.span):
            raise OutOfWindow(f"t range [{np.min(t)}, {np.max(t)}] outside +-{self.span}")
        k = np.clip(np.floor(t / self.h).astype(int) + self.panels, 0, 2 * self.panels - 1)
        x = (t - (k - self.panels) * self.h) * (2.0 / self.h) - 1.0
        P = np.concatenate((-np.ones((1,) + x.shape), _legendre(x, _NODES)))
        integrals = (P[2:] - P[:-2]) / (2.0 * np.arange(_NODES) + 1.0)[:, None]
        partial = np.einsum("nk,kn->n", self.coeffs[i][k], integrals)
        return self.starts[i][k] + 0.5 * self.h * partial


class SqrtMonodromyTransform:
    """One application of the transform to a circle pair.

    ``sc`` holds the boundary scalars of the same pair.
    """

    def __init__(self, pair: CirclePair, sc: ShortcutSet):
        _require_nondegenerate(sc)
        self.pair = pair
        self.sc = sc
        self.params = pair.params
        self.K1, self.K2, self._X, self._n2 = _formula_constants(sc)
        num, den = self._nhat_dden(pair(np.array([0.0]))[0])
        self.k_norm = complex(-num[0] * den[0])
        self._table: PanelTable | None = None

    def _nhat_dden(self, factors):
        """(Nhat, Dden) from the four half-power factors; linear, so the
        factors' t-derivatives give theirs."""
        S, R, Rrec, Srec = factors
        return 2j * self.K1 * S + self.K2 * R, -2j * self.K1 * Rrec + self.K2 * Srec

    def at(self, t) -> "TransformValues":
        """The transformed pair and its theta companions at t, from one pair evaluation."""
        return TransformValues(self, np.atleast_1d(np.asarray(t, dtype=float)))

    def phi_B(self, t) -> np.ndarray:
        return self.at(t).phi

    # ---- continuous phase and quadrature of the transformed pair ----
    def _build_table(self) -> PanelTable:
        """P_B = int_0^t cos(phi_B), with cos(phi_B) = Re Phi_B (|Phi_B| = 1 is
        certified), and the continuous phase phi_B(0) + int_0^t Im(conj(Phi_B) Phi_B')
        on one table over +-TABLE_SPAN*T."""

        def integrands(nodes):
            b = self.at(nodes)
            return b.phi.real, (np.conj(b.phi) * b.phi_dot).imag

        phase_at_0 = float(np.angle(self.phi_B(0.0)[0]))
        return PanelTable(TABLE_SPAN * self.params.T, _PANELS, integrands, (0.0, phase_at_0))

    @property
    def table(self) -> PanelTable:
        """The panel table, built on first use."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def phase(self, t) -> np.ndarray:
        """Continuous phi_B(t); see ``TransformValues.phase``.  A time outside
        the table raises OutOfWindow before the pair is evaluated."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        base = self.table(1, t)
        return _on_branch(np.angle(self.phi_B(t)), base)

    def quadrature(self, span: float):
        """P_B = int_0^t cos(phi_B) as a callable valid on [-span, span]."""
        table = self.table
        if span > table.span:
            raise OutOfWindow(f"span {span} exceeds the table's {table.span}")
        return lambda t: table(0, t)


class TransformValues:
    """Phi_B, Psi_B, Theta_B, ThetaTilde_B and their t-derivatives at the
    times t, built from one ``CirclePair`` call.

    Psi_B = -Nhat*Dden is normalized to 1 at t = 0.  The theta pair is taken
    literally from the displayed formulas (mirror orientation, see the module
    docstring).
    """

    def __init__(self, tr: SqrtMonodromyTransform, t: np.ndarray):
        self.t, self._tr = t, tr
        factors, dots = tr.pair(t)
        (num, den), (numd, dend) = tr._nhat_dden(factors), tr._nhat_dden(dots)
        bad = np.abs(den) < DENOMINATOR_FLOOR
        if bad.any():
            raise DenominatorVanished("Phi_B denominator vanished", t=float(t[bad][0]))
        self.phi = -num / den
        self.phi_dot = -(numd * den - num * dend) / den**2
        self.psi = -num * den / tr.k_norm
        self.psi_dot = -(numd * den + num * dend) / tr.k_norm

        S, R, Rrec, Srec = factors
        Sd, Rd, Rrecd, Srecd = dots
        n1, m1, n2, c0 = -1j * tr._X, 1j * tr._X, tr._n2, tr.sc.cos_phi0
        top, topd = n1 * Rrec + n2 * Srec, n1 * Rrecd + n2 * Srecd
        tilde, tilded = m1 * S + n2 * R, m1 * Sd + n2 * Rd
        self.theta = top / (c0 * den)
        self.theta_tilde = tilde / (c0 * num)
        self.theta_dot = (topd * den - top * dend) / (c0 * den**2)
        self.theta_tilde_dot = (tilded * num - tilde * numd) / (c0 * num**2)

    @property
    def phase(self) -> np.ndarray:
        """Continuous phi_B: the principal argument of Phi_B moved by the
        multiple of 2*pi nearest the panel table's continuous phase.

        The table only picks the branch, so the result does not depend on
        its last bits; at t = 0 it is the principal argument.
        """
        return _on_branch(np.angle(self.phi), self._tr.table(1, self.t))


def _on_branch(a: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The angles a moved by the multiple of 2*pi nearest the continuous phase base."""
    return a + 2 * np.pi * np.round((base - a) / (2 * np.pi))


def transform_from_path(path: PhasePath, nq: NumericQuad) -> SqrtMonodromyTransform:
    """First application of the transform, built on the solved circle pair."""
    bv = boundary_values(path)
    sc = build_shortcuts(bv, nq, path.params)
    return SqrtMonodromyTransform(CirclePair.on_path(path), sc)


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
    if path.t_min > -1.5 * T or path.t_max < 2.0 * T:
        raise WindowTooSmall(
            f"verify_theorem2 needs window [-3T/2, 2T]; got [{path.t_min}, {path.t_max}]"
        )
    t = np.linspace(-T / 2, T / 2, grid_size)

    first = transform_from_path(path, nq)
    phase_B = first.phase
    P_B = first.quadrature(TABLE_SPAN * T)

    # second application on the transformed pair
    edges = np.array([T / 2, -T / 2, 0.0])
    (ph_plus, ph_minus, ph_0), (P_plus, P_minus, _) = phase_B(edges), P_B(edges)
    sc2 = _shortcuts_from_scalars(
        float(ph_plus), float(ph_minus), float(ph_0), float(P_plus), float(P_minus), nq
    )
    second = SqrtMonodromyTransform(CirclePair(phase_B, P_B, p), sc2)

    direct = monodromy_direct(path)
    b_squared = float(np.max(np.abs(second.phi_B(t) - direct(t))))

    # every other residual from one bundle on the grid and one at t = 0
    b, b0 = first.at(t), first.at(0.0)
    F = b.phi
    # transformed phase solves the drive equation (analytic derivative)
    phiB_dot = (np.conj(F) * b.phi_dot).imag
    phase_eq_res = float(
        np.max(np.abs(phiB_dot + np.sin(b.phase) - p.Bdrive - p.A * np.cos(p.omega * t)))
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
