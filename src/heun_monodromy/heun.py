"""Basis functions of the associated linear second-order equation.

Two distinguished solutions E+ and E- are assembled from the circle pair
(Phi, Psi).  On the lifted circle they satisfy the coupled first-order pair

    E'(z) = +-(2 omega)^-1 z^(-ell-1) E(1/z) + mu E(z)

and hence the double confluent Heun equation

    z^2 E'' + ((ell+1) z + mu (1 - z^2)) E' + (lam - mu (ell+1) z) E = 0.

All derivatives used below are closed-form (chain rule through the phase
equation).  The one finite difference left is the second derivative of the
L_B image in the ``lb_maps_solutions`` check of ``verify.check_heun``.

For positive integer order the operator L_B maps solutions to solutions and
its square reproduces the counterclockwise monodromy times the scalar first
integral; the lift of the argument reflection -z is t -> t + T/2 (the sign is
pinned by that composition law and recorded in every report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circle import BoundaryValues, CircleFunction, CirclePair
from .errors import DegenerateAtOne, DenominatorVanished, WindowTooSmall
from .heunpoly import NumericQuad
from .params import ModelParams
from .phase import PhasePath
from .rk import dop853

#: cos(phi(0)) threshold below which E+ and E- degenerate at z = 1.
COS_PHI0_FLOOR = 1e-8

#: Lift convention for the argument reflection in the symmetry operator:
#: -z on the cover is taken as t -> t + T/2.  With this choice the double
#: application reproduces the counterclockwise monodromy E(t + T).
MINUS_Z_LIFT = "t+T/2"
_LIFT_SIGN = +1.0


def _quarter(s: int) -> complex:
    """(1 +- i)/sqrt(2) as a unit phase."""
    return complex(np.cos(np.pi / 4), s * np.sin(np.pi / 4))


@dataclass
class HeunBasisPath:
    """Closed-form E+- evaluation anywhere on the lifted circle window."""

    params: ModelParams
    path: PhasePath
    ell: int
    pair: CirclePair = field(init=False, repr=False)

    def __post_init__(self):
        self.pair = CirclePair.on_path(self.path)

    def at(self, t) -> "BasisValues":
        """E+-(+-t) and their t-derivatives from one pair evaluation."""
        return BasisValues(self, np.atleast_1d(np.asarray(t, dtype=float)))

    def E(self, t, s: int) -> np.ndarray:
        return self.at(t).E(s)

    def Eprime(self, t, s: int) -> np.ndarray:
        return self.at(t).Eprime(s)


class BasisValues:
    """E+- and dE+-/dt at t and at -t, built from one ``CirclePair`` call.

    Every array runs over u = (t, -t); ``side`` +1 selects t and -1 selects
    -t.  ``Edot(s, -1)`` is dE/du at u = -t.
    """

    def __init__(self, hb: HeunBasisPath, t: np.ndarray):
        p = hb.params
        self.t, self.ell, self.params, self.phi0 = t, hb.ell, p, hb.path.phi0
        self._n = n = t.shape[0]
        (S, R, Rrec, Srec), (Sd, Rd, Rrecd, Srecd) = hb.pair(t)
        u = np.concatenate((t, -t))
        # S and R at u, and their derivatives in u: S(-t) = Srec(t), R(-t) = Rrec(t)
        X, Y = np.concatenate((S, Srec)), np.concatenate((R, Rrec))
        Xd, Yd = np.concatenate((Sd, -Srecd)), np.concatenate((Rd, -Rrecd))
        g = 0.5 * np.exp(p.mu * (np.cos(p.omega * u) - 1.0)) * np.exp(-0.5j * hb.ell * p.omega * u)
        gd_over_g = -p.mu * p.omega * np.sin(p.omega * u) - 0.5j * hb.ell * p.omega
        self._E, self._Edot = {}, {}
        for s in (+1, -1):
            comb = _quarter(s) * X + _quarter(-s) * Y
            self._E[s] = g * comb
            self._Edot[s] = g * (gd_over_g * comb + _quarter(s) * Xd + _quarter(-s) * Yd)
        self._zpow = np.exp(-1j * (hb.ell + 1) * p.omega * u)

    def _side(self, a: np.ndarray, side: int) -> np.ndarray:
        return a[: self._n] if side > 0 else a[self._n :]

    def E(self, s: int, side: int = +1) -> np.ndarray:
        return self._side(self._E[s], side)

    def Edot(self, s: int, side: int = +1) -> np.ndarray:
        return self._side(self._Edot[s], side)

    def Eprime_chain(self, s: int) -> np.ndarray:
        """E'(z) from the t-derivative via d/dz = (i omega z)^-1 d/dt."""
        z = np.exp(1j * self.params.omega * self.t)
        return self.Edot(s) / (1j * self.params.omega * z)

    def Eprime(self, s: int, side: int = +1) -> np.ndarray:
        """E'(z) from the first-order pair (the reciprocal-point form)."""
        p = self.params
        zpow = self._side(self._zpow, side)  # z^-(ell+1)
        return s / (2.0 * p.omega) * zpow * self.E(s, -side) + p.mu * self.E(s, side)

    def Esecond(self, s: int) -> np.ndarray:
        """E''(z) at t, from differentiating the first-order pair once more."""
        p = self.params
        ell = self.ell
        z = np.exp(1j * p.omega * self.t)
        return (s / (2.0 * p.omega)) * (
            -(ell + 1) * z ** (-ell - 2) * self.E(s, -1)
            - z ** (-ell - 3) * self.Eprime(s, -1)
        ) + p.mu * self.Eprime(s)


def build_E(phi_fn: CircleFunction, psi_fn: CircleFunction) -> HeunBasisPath:
    """Assemble the basis from the circle pair; gates the degenerate point."""
    path = phi_fn.path
    if psi_fn.path is not path:
        raise ValueError("phi and psi must come from the same PhasePath")
    if abs(np.cos(path.phi0)) < COS_PHI0_FLOOR:
        raise DegenerateAtOne(
            f"cos(phi(0)) = {np.cos(path.phi0):.2e}: basis degenerates at z = 1"
        )
    ell = path.params.require_integer_order()
    return HeunBasisPath(params=path.params, path=path, ell=ell)


def boundary_E_values(b0: BasisValues, s: int) -> tuple[float, float]:
    """(formula value, closed boundary form) of E at z = 1, from the basis
    evaluated at t = 0.

    The closed form is -+ sin((phi(0) -+ pi/2)/2); comparing the two is the
    standard anti-sign-error check.
    """
    direct = complex(b0.E(s)[0])
    closed = -s * np.sin(0.5 * (b0.phi0 - s * np.pi / 2.0))
    return float(direct.real), float(closed)


def wronskian_at_one(hb: HeunBasisPath) -> float:
    """E+(1) E-'(1) - E-(1) E+'(1) = -cos(phi(0))/(2 omega), real."""
    b = hb.at(0.0)
    val = b.E(+1)[0] * b.Eprime(-1)[0] - b.E(-1)[0] * b.Eprime(+1)[0]
    return float(val.real)


def residual_grid(hb: HeunBasisPath) -> np.ndarray:
    """The 2001-point grid of the pair and second-order residuals: +-1.4T,
    clipped to the window."""
    T = hb.params.T
    return np.linspace(max(hb.path.t_min, -1.4 * T), min(hb.path.t_max, 1.4 * T), 2001)


def pair_ode_residual(b: BasisValues) -> float:
    """sup over the grid of ``b`` of the first-order-pair residual for both signs."""
    p = b.params
    zpow = np.exp(-1j * (b.ell + 1) * p.omega * b.t)
    res = [
        b.Eprime_chain(s) - s / (2.0 * p.omega) * zpow * b.E(s, -1) - p.mu * b.E(s)
        for s in (+1, -1)
    ]
    return float(np.max(np.abs(res)))


def dche_residual(b: BasisValues, coeffs: tuple[complex, complex] | None = None) -> float:
    """sup residual of the second-order equation on the grid of ``b``
    (analytic derivatives).

    With ``coeffs`` the residual is evaluated for the linear combination
    c+ E+ + c- E- instead of the two basis elements separately.
    """
    p = b.params
    z = np.exp(1j * p.omega * b.t)
    lam, mu, ell = p.lam, p.mu, b.ell

    def residual_for(E, Ep, Epp):
        return z**2 * Epp + ((ell + 1) * z + mu * (1 - z**2)) * Ep + (lam - mu * (ell + 1) * z) * E

    if coeffs is not None:
        cp, cm = coeffs
        E = cp * b.E(+1) + cm * b.E(-1)
        Ep = cp * b.Eprime(+1) + cm * b.Eprime(-1)
        Epp = cp * b.Esecond(+1) + cm * b.Esecond(-1)
        return float(np.max(np.abs(residual_for(E, Ep, Epp))))
    res = [residual_for(b.E(s), b.Eprime(s), b.Esecond(s)) for s in (+1, -1)]
    return float(np.max(np.abs(res)))


def require_real_basis(b0: BasisValues):
    """Gate of the alpha family: E+-(1) must be real (``b0`` is the basis at t = 0)."""
    for s in (+1, -1):
        if abs(b0.E(s)[0].imag) > 1e-10:
            raise DegenerateAtOne("Im E(1) != 0; basis not real-normalized")


def phi_alpha_values(b: BasisValues, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """phi_alpha on the grid of ``b`` and its analytic d/dt (quotient rule)."""
    c, sn = np.cos(alpha / 2.0), np.sin(alpha / 2.0)
    omega, ell = b.params.omega, b.ell
    zl = np.exp(1j * ell * omega * b.t)
    num = c * b.E(+1) + 1j * sn * b.E(-1)
    den = c * b.E(+1, -1) - 1j * sn * b.E(-1, -1)
    bad = np.abs(den) < 1e-10
    if bad.any():
        raise DenominatorVanished("phi_alpha denominator vanished", t=float(b.t[bad][0]))
    value = -1j * zl * num / den
    num_d = c * b.Edot(+1) + 1j * sn * b.Edot(-1)
    den_d = -(c * b.Edot(+1, -1) - 1j * sn * b.Edot(-1, -1))  # d/dt of E(-t)
    return value, 1j * ell * omega * value - 1j * zl * (num_d * den - num * den_d) / den**2


def phi_alpha(hb: HeunBasisPath, alpha: float) -> CircleFunction:
    """The one-parameter family of unimodular solutions built on E+-.

    alpha = pi/2 reproduces the original Phi identically.
    """
    require_real_basis(hb.at(0.0))
    return CircleFunction(
        f"PhiAlpha[{alpha}]", hb.path, lambda t: phi_alpha_values(hb.at(t), alpha)[0]
    )


# ---------------------------------------------------------------------------
# Radial continuation of the linear equation
# ---------------------------------------------------------------------------


def continue_dche_ray(
    params: ModelParams,
    ell: int,
    theta: float,
    rho: float,
    E0: complex,
    Ep0: complex,
    tol: float = 1e-12,
) -> tuple[complex, complex]:
    """Continue one solution (value, derivative) of the linear equation
    radially from the circle point e^{i theta} to rho e^{i theta}."""
    if rho == 1.0:
        return E0, Ep0
    eith = complex(math.cos(theta), math.sin(theta))
    lam, mu = params.lam, params.mu

    def rhs(s, y):
        z = s * eith
        E = complex(y[0], y[1])
        Ep = complex(y[2], y[3])
        Epp = -(((ell + 1) * z + mu * (1 - z * z)) * Ep + (lam - mu * (ell + 1) * z) * E) / (z * z)
        dE = Ep * eith
        dEp = Epp * eith
        return (dE.real, dE.imag, dEp.real, dEp.imag)

    rtol = max(tol, 1e-13)
    y = dop853(rhs, 1.0, (E0.real, E0.imag, Ep0.real, Ep0.imag), float(rho), rtol, rtol * 1e-2).y
    return complex(y[0], y[1]), complex(y[2], y[3])


def radial_continue_E(
    hb: HeunBasisPath,
    theta: float,
    rho_grid,
    tol: float = 1e-12,
) -> dict[int, np.ndarray]:
    """Continue E+- radially from the circle along theta.

    Returns {+1: values, -1: values} on the rho grid (values of E only).
    The second-order equation is integrated as a first-order system with the
    exact circle data as initial conditions.
    """
    p = hb.params
    rho_grid = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    if np.any(rho_grid < 0.2) or np.any(rho_grid > 5.0):
        raise ValueError("rho grid outside the guarded annulus [0.2, 5]")
    t0 = theta / p.omega
    out: dict[int, np.ndarray] = {}
    b = hb.at(t0)
    for s in (+1, -1):
        E0 = complex(b.E(s)[0])
        Ep0 = complex(b.Eprime(s)[0])
        vals = np.empty(rho_grid.shape, dtype=complex)
        for i, rho in enumerate(rho_grid):
            vals[i], _ = continue_dche_ray(p, hb.ell, theta, float(rho), E0, Ep0, tol)
        out[s] = vals
    return out


def phi_from_basis(hb: HeunBasisPath, theta: float, rho: float, tol: float = 1e-12) -> complex:
    """Phi(rho e^{i theta}) reconstructed through the linear basis.

    Uses the identity-map member of the alpha family, which requires the
    basis at both the target point and its reciprocal.
    """
    Ez = radial_continue_E(hb, theta, [rho], tol)
    Erec = radial_continue_E(hb, -theta, [1.0 / rho], tol)
    c = np.cos(np.pi / 4.0)
    z = rho * complex(np.cos(theta), np.sin(theta))
    num = c * Ez[+1][0] + 1j * c * Ez[-1][0]
    den = c * Erec[+1][0] - 1j * c * Erec[-1][0]
    if abs(den) < 1e-12:
        raise DenominatorVanished("basis reconstruction denominator vanished")
    return -1j * z**hb.ell * num / den


# ---------------------------------------------------------------------------
# The symmetry operator
# ---------------------------------------------------------------------------


def _lift_shift(params: ModelParams, lift_sign: float = _LIFT_SIGN) -> float:
    return lift_sign * params.T / 2.0


def apply_B_and_dot(
    hb: HeunBasisPath,
    nq: NumericQuad,
    t,
    coeffs: tuple = (1.0, 0.0),
    lift_sign: float = _LIFT_SIGN,
) -> tuple[np.ndarray, np.ndarray]:
    """L_B applied to c+ E+ + c- E- on the lifted circle grid t, and its
    analytic d/dt, from one basis evaluation.

    ``coeffs`` may hold arrays of shape (k, 1): the result then has one row
    per combination.
    """
    if not nq.generic:
        from .errors import GenericityViolated

        raise GenericityViolated("operator is singular at this parameter point")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    p = hb.params
    ell = hb.ell
    ts = t + _lift_shift(p, lift_sign)
    if np.any(ts < hb.path.t_min) or np.any(ts > hb.path.t_max) or np.any(
        -ts < hb.path.t_min
    ) or np.any(-ts > hb.path.t_max):
        raise WindowTooSmall("window does not cover the shifted arguments of L_B")
    b = hb.at(ts)
    cp, cm = coeffs
    E = cp * b.E(+1) + cm * b.E(-1)
    Ep = cp * b.Eprime(+1) + cm * b.Eprime(-1)
    Epp = cp * b.Esecond(+1) + cm * b.Esecond(-1)

    z = np.exp(1j * p.omega * t)
    zdot = 1j * p.omega * z
    zs = np.exp(1j * p.omega * ts)
    zsdot = 1j * p.omega * zs
    pref = (-1.0) ** ell * 2.0 * p.omega * np.exp(1j * (1 - ell) * p.omega * t) * np.exp(
        2.0 * p.mu * np.cos(p.omega * t)
    )
    pref_dot = pref * (1j * (1 - ell) * p.omega - 2.0 * p.mu * p.omega * np.sin(p.omega * t))
    G = z**2 * nq("r", -z) * Ep + nq("s", -z) * E
    G_dot = (
        (2.0 * z * nq("r", -z) - z**2 * nq("r'", -z)) * zdot * Ep
        + z**2 * nq("r", -z) * Epp * zsdot
        - nq("s'", -z) * zdot * E
        + nq("s", -z) * Ep * zsdot
    )
    return pref * G, pref_dot * G + pref * G_dot


def apply_B(hb: HeunBasisPath, nq: NumericQuad, t, coeffs=(1.0, 0.0), lift_sign=_LIFT_SIGN):
    """L_B applied to c+ E+ + c- E- on the lifted circle grid t."""
    return apply_B_and_dot(hb, nq, t, coeffs, lift_sign)[0]


def apply_B_dot(hb: HeunBasisPath, nq: NumericQuad, t, coeffs=(1.0, 0.0), lift_sign=_LIFT_SIGN):
    """Analytic d/dt of apply_B (needed for the composition law)."""
    return apply_B_and_dot(hb, nq, t, coeffs, lift_sign)[1]


def _lb_from_values(hb: HeunBasisPath, nq: NumericQuad, t, Ev, Epv) -> np.ndarray:
    p = hb.params
    ell = hb.ell
    z = np.exp(1j * p.omega * t)
    pref = (-1.0) ** ell * 2.0 * p.omega * np.exp(1j * (1 - ell) * p.omega * t) * np.exp(
        2.0 * p.mu * np.cos(p.omega * t)
    )
    return pref * (z**2 * nq("r", -z) * Epv + nq("s", -z) * Ev)


def check_B_squared(
    hb: HeunBasisPath,
    nq: NumericQuad,
    grid_size: int = 401,
    lift_sign: float = _LIFT_SIGN,
    rng: np.random.Generator | None = None,
) -> dict:
    """Certify the composition law L_B(L_B(E)) = D * E(t + T).

    Evaluated for both basis elements and one random combination on a grid
    over [-T/2, T/2]; reports sup relative residuals plus the lift convention.
    """
    p = hb.params
    T = p.T
    margin = 0.01 * T
    if hb.path.t_min > -1.5 * T - margin or hb.path.t_max < 1.5 * T + margin:
        raise WindowTooSmall(
            "composition check needs the window to cover [-3T/2, 3T/2] plus margin"
        )
    t = np.linspace(-T / 2, T / 2, grid_size)
    shift = _lift_shift(p, lift_sign)
    rng = rng or np.random.default_rng(20270101)
    c_rand = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
    # rows: E+, E-, one random combination
    cp = np.array([1.0 + 0.0j, 0.0j, c_rand[0]])[:, None]
    cm = np.array([0.0j, 1.0 + 0.0j, c_rand[1]])[:, None]

    u = t + shift
    F, F_dot = apply_B_and_dot(hb, nq, u, coeffs=(cp, cm), lift_sign=lift_sign)
    FF = _lb_from_values(hb, nq, t, F, F_dot / (1j * p.omega * np.exp(1j * p.omega * u)))
    b = hb.at(t + T)
    target = nq.D * (cp * b.E(+1) + cm * b.E(-1))
    scale = np.maximum(np.max(np.abs(target), axis=1), 1e-300)
    results = (np.max(np.abs(FF - target), axis=1) / scale).tolist()
    return {
        "residual_e_plus": results[0],
        "residual_e_minus": results[1],
        "residual_random_combo": results[2],
        "lift_convention": MINUS_Z_LIFT if lift_sign > 0 else "t-T/2",
        "grid_size": grid_size,
        "D": nq.D,
    }


# ---------------------------------------------------------------------------
# Matrix form
# ---------------------------------------------------------------------------


@dataclass
class BMatrix:
    """Matrix of L_B in the (E+, E-) basis (columns are the images),
    assembled from boundary values at z = 1 and validated against the action
    of L_B."""

    matrix: np.ndarray
    lift_convention: str

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.matrix))

    def det_relation_residual(self, D: float) -> float:
        """|det(B)^2 - D^2| / D^2 (the composition-law determinant identity)."""
        return float(abs(self.det**2 - D**2) / D**2)


class _BoundaryEAlgebra:
    """E+- and derivatives at the three special lifts, from boundary data only."""

    def __init__(self, bv: BoundaryValues, params: ModelParams, ell: int):
        self.bv = bv
        self.p = params
        self.ell = ell
        mu = params.mu
        self._gp = 0.5 * np.exp(-2.0 * mu) * (-1j) ** ell   # prefactor at t = +T/2
        self._gm = 0.5 * np.exp(-2.0 * mu) * (1j) ** ell    # prefactor at t = -T/2
        self._pp = bv.Psi_plus_sqrt
        self._pm = bv.Psi_minus_sqrt
        self._ep = complex(np.exp(0.5j * bv.phi_plus))
        self._em = complex(np.exp(0.5j * bv.phi_minus))

    def E(self, where: str, s: int) -> complex:
        if where == "0":
            return complex(np.cos(0.5 * self.bv.phi_at_0 + s * np.pi / 4.0))
        if where == "+":
            a = self._pp * self._ep
            b = self._pm / self._em
            return self._gp * (_quarter(s) * a + _quarter(-s) * b)
        a = self._pm * self._em
        b = self._pp / self._ep
        return self._gm * (_quarter(s) * a + _quarter(-s) * b)

    def Eprime(self, where: str, s: int) -> complex:
        p = self.p
        if where == "0":
            return (s / (2.0 * p.omega) + p.mu) * self.E("0", s)
        sign = (-1.0) ** (self.ell + 1)  # e^{-+ i (ell+1) pi}
        if where == "+":
            return s / (2.0 * p.omega) * sign * self.E("-", s) + p.mu * self.E("+", s)
        return s / (2.0 * p.omega) * sign * self.E("+", s) + p.mu * self.E("-", s)

    def Esecond(self, where: str, s: int) -> complex:
        p, ell = self.p, self.ell
        if where == "+":
            zk = lambda k: (-1.0) ** k  # z = e^{i pi}
            rec = "-"
        elif where == "-":
            zk = lambda k: (-1.0) ** k  # z = e^{-i pi}: integer powers agree
            rec = "+"
        else:
            zk = lambda k: 1.0
            rec = "0"
        return (s / (2.0 * p.omega)) * (
            -(ell + 1) * zk(-ell - 2) * self.E(rec, s)
            - zk(-ell - 3) * self.Eprime(rec, s)
        ) + p.mu * self.Eprime(where, s)


def build_matrix_B(bv: BoundaryValues, nq: NumericQuad, params: ModelParams) -> BMatrix:
    """Assemble the matrix of L_B from boundary values at z = 1.

    The two columns are obtained by expressing L_B[E+-] through the basis
    values and first derivatives at z = 1; every ingredient is closed-form
    boundary data (no grids, no fits).
    """
    if not nq.generic:
        from .errors import GenericityViolated

        raise GenericityViolated("operator is singular at this parameter point")
    c0 = np.cos(bv.phi_at_0)
    if abs(c0) < COS_PHI0_FLOOR:
        raise DegenerateAtOne(f"cos(phi(0)) = {c0:.2e}: basis degenerates at z = 1")
    ell = params.require_integer_order()
    alg = _BoundaryEAlgebra(bv, params, ell)
    omega, mu = params.omega, params.mu

    # values of L_B[E_s] and its z-derivative at z = 1 (lift of -z: t = +T/2)
    sgn = (-1.0) ** ell
    r_m1 = complex(nq("r", np.array([-1.0 + 0j]))[0])
    s_m1 = complex(nq("s", np.array([-1.0 + 0j]))[0])
    rp_m1 = complex(nq("r'", np.array([-1.0 + 0j]))[0])
    sp_m1 = complex(nq("s'", np.array([-1.0 + 0j]))[0])
    pref = sgn * 2.0 * omega * np.exp(2.0 * mu)
    pref_dot = pref * 1j * (1 - ell) * omega  # mu(1 - z^-2) vanishes at z = 1

    cols = []
    for s in (+1, -1):
        E_s = alg.E("+", s)
        Ep_s = alg.Eprime("+", s)
        Epp_s = alg.Esecond("+", s)
        G = r_m1 * Ep_s + s_m1 * E_s
        # d/dt at t=0 of z^2 r(-z) E'(ts) + s(-z) E(ts); z(0)=1, z_s(0)=-1
        zdot = 1j * omega
        zsdot = -1j * omega
        G_dot = (
            (2.0 * r_m1 - rp_m1) * zdot * Ep_s
            + r_m1 * Epp_s * zsdot
            - sp_m1 * zdot * E_s
            + s_m1 * Ep_s * zsdot
        )
        lb_val = pref * G
        lb_prime = (pref_dot * G + pref * G_dot) / (1j * omega)
        V = np.array(
            [
                [alg.E("0", +1), alg.E("0", -1)],
                [alg.Eprime("0", +1), alg.Eprime("0", -1)],
            ],
            dtype=complex,
        )
        cols.append(np.linalg.solve(V, np.array([lb_val, lb_prime], dtype=complex)))

    return BMatrix(matrix=np.stack(cols, axis=1), lift_convention=MINUS_Z_LIFT)


def operation_report(
    check: str, params: ModelParams, grid: int, sup_residual: float
) -> dict:
    """Per-operation verification record in the fixed report shape."""
    return {
        "check": check,
        "params": {"ell": params.ell, "mu": params.mu, "omega": params.omega},
        "grid": grid,
        "sup_residual": sup_residual,
        "convention_used": MINUS_Z_LIFT,
    }


def matrix_action_residual(
    hb: HeunBasisPath, nq: NumericQuad, bmat: BMatrix, grid_size: int = 201
) -> float:
    """sup relative deviation between L_B and its matrix on a circle grid."""
    T = hb.params.T
    t = np.linspace(-0.3 * T, 0.3 * T, grid_size)
    direct = apply_B(hb, nq, t, coeffs=(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])))
    b = hb.at(t)
    res = []
    for col in (0, 1):
        via_matrix = bmat.matrix[0, col] * b.E(+1) + bmat.matrix[1, col] * b.E(-1)
        scale = float(np.max(np.abs(direct[col])))
        res.append(float(np.max(np.abs(direct[col] - via_matrix))) / max(scale, 1e-300))
    return float(np.max(res))
