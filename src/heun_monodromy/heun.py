"""Basis functions of the associated linear second-order equation.

Two distinguished solutions E+ and E- are assembled from the circle pair
(Phi, Psi).  On the lifted circle they satisfy the coupled first-order pair

    E'(z) = +-(2 omega)^-1 z^(-ell-1) E(1/z) + mu E(z)

and hence the double confluent Heun equation

    z^2 E'' + ((ell+1) z + mu (1 - z^2)) E' + (lam - mu (ell+1) z) E = 0.

All derivatives used below are closed-form (the pair's are its linear
system's, ``CirclePair``): E+- is the circle solution (q+-, q-+) on the
basis {y, Ry}, times a gauge.  The one finite difference left is the second
derivative of the L_B image in the ``lb_maps_solutions`` check of
``verify.check_heun``.
E, E' and E'' of a combination c+ E+ + c- E- come from one
``BasisValues.combination``, and the alpha family on E+- is the circle's one
Moebius quotient, of the solution (c + s, -i (c - s)) (``phi_alpha_values``).
Every certificate here is on the circle; the one continuation off it is the
Riccati path of ``circle``.

For positive integer order the operator L_B maps solutions to solutions and
its square reproduces the counterclockwise monodromy times the scalar first
integral; the lift of the argument reflection -z is t -> t + T/2 (the sign is
pinned by that composition law and recorded in every report).  Its formula is
written once (``_lb_formula``); its matrix in the (E+, E-) basis is read off
its action at z = 1, so the matrix, the grid action and the composition law
share one code path.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .circle import CircleFunction, CirclePair, PairValues, quotient
from .errors import DegenerateAtOne
from .heunpoly import NumericQuad
from .params import ModelParams
from .phase import PhasePath

#: cos(phi(0)) threshold below which E+ and E- degenerate at z = 1 and the
#: transform formulas of ``sqrtmono`` are singular there (``cos_phi_at_one``).
COS_PHI0_FLOOR = 1e-8

#: Lift convention for the argument reflection in the symmetry operator:
#: -z on the cover is taken as t -> t + T/2.  With this choice the double
#: application reproduces the counterclockwise monodromy E(t + T).
MINUS_Z_LIFT = "t+T/2"

#: Coefficients (c+, c-) of E+ and E- as (2, 1) columns: with them a
#: combination of the basis (``BasisValues.combination``, ``apply_B_and_dot``)
#: has one row per basis element.
BASIS_COEFFS = (np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))

#: Grid size of the comparison of L_B with its matrix (``matrix_action_residual``).
MATRIX_ACTION_GRID = 201


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
        self.pair = CirclePair(self.path)

    def at(self, t) -> "BasisValues":
        """E+-(+-t) and their t-derivatives at t from one pair evaluation."""
        return BasisValues(self, np.atleast_1d(np.asarray(t, dtype=float)))


class BasisValues:
    """E+- at t and at -t and dE+-/dt at t, built from one ``CirclePair`` call.

    E_s = g (q_s S + q_-s R), q+- = (1 +- i)/sqrt(2): g times the v-component
    of the circle solution (q_s, q_-s).  E runs over u = (t, -t); ``side`` +1
    selects t and -1 selects -t.  ``z`` is e^{i omega t}.
    """

    def __init__(self, hb: HeunBasisPath, t: np.ndarray):
        p = hb.params
        self.t, self.ell, self.params, self.phi0 = t, hb.ell, p, hb.path.phi0
        self.z = np.exp(1j * p.omega * t)
        self._n = n = t.shape[0]
        values = hb.pair(t)
        u = np.concatenate((t, -t))
        g = 0.5 * np.exp(p.mu * (np.cos(p.omega * u) - 1.0)) * np.exp(-0.5j * hb.ell * p.omega * u)
        gd_over_g = -p.mu * p.omega * np.sin(p.omega * t) - 0.5j * hb.ell * p.omega
        self._E, self._Edot = {}, {}
        ((_, v), (_, rv)), ((_, dv), (_, drv)) = values.basis, values.dots
        for s in (+1, -1):
            comb = _quarter(s) * v + _quarter(-s) * rv
            self._E[s] = g * comb
            self._Edot[s] = g[:n] * (gd_over_g * comb[:n] + _quarter(s) * dv + _quarter(-s) * drv)
        self._zpow = np.exp(-1j * (hb.ell + 1) * p.omega * u)

    def _side(self, a: np.ndarray, side: int) -> np.ndarray:
        return a[: self._n] if side > 0 else a[self._n :]

    def E(self, s: int, side: int = +1) -> np.ndarray:
        return self._side(self._E[s], side)

    def Eprime_chain(self, s: int) -> np.ndarray:
        """E'(z) from the t-derivative via d/dz = (i omega z)^-1 d/dt."""
        return self._Edot[s] / (1j * self.params.omega * self.z)

    def Eprime(self, s: int, side: int = +1) -> np.ndarray:
        """E'(z) from the first-order pair (the reciprocal-point form)."""
        p = self.params
        zpow = self._side(self._zpow, side)  # z^-(ell+1)
        return s / (2.0 * p.omega) * zpow * self.E(s, -side) + p.mu * self.E(s, side)

    def Esecond(self, s: int) -> np.ndarray:
        """E''(z) at t, from differentiating the first-order pair once more."""
        p, ell, z = self.params, self.ell, self.z
        return (s / (2.0 * p.omega)) * (
            -(ell + 1) * z ** (-ell - 2) * self.E(s, -1)
            - z ** (-ell - 3) * self.Eprime(s, -1)
        ) + p.mu * self.Eprime(s)

    def combination(self, coeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(E, E', E'') at t of c+ E+ + c- E-, for ``coeffs`` = (c+, c-);
        coefficients of shape (k, 1) give one row per combination."""
        cp, cm = coeffs
        return tuple(cp * f(+1) + cm * f(-1) for f in (self.E, self.Eprime, self.Esecond))


def cos_phi_at_one(S0: complex) -> float:
    """cos(phi(0)) = Re(S0^2) / |S0|^2 of a circle pair, from its S(0): the
    one decision on the z = 1 edge, where the basis E+- and the transform
    formulas divide by it.  Below COS_PHI0_FLOOR in modulus it raises
    DegenerateAtOne."""
    c = (S0 * S0).real / abs(S0) ** 2
    if abs(c) < COS_PHI0_FLOOR:
        raise DegenerateAtOne(f"cos(phi(0)) = {c:.2e}: basis and transform degenerate at z = 1")
    return c


def build_E(phi_fn: CircleFunction, psi_fn: CircleFunction) -> HeunBasisPath:
    """Assemble the basis from the circle pair; gates the degenerate point."""
    path = phi_fn.path
    if psi_fn.path is not path:
        raise ValueError("phi and psi must come from the same PhasePath")
    cos_phi_at_one(cmath.exp(0.5j * path.phi0))  # S(0) = v(0), bit for bit
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


def residual_grid(hb: HeunBasisPath) -> np.ndarray:
    """The 2001-point grid of the pair and second-order residuals: +-1.4T."""
    T = hb.params.T
    return np.linspace(-1.4 * T, 1.4 * T, 2001)


def pair_ode_residual(b: BasisValues) -> float:
    """sup over the grid of ``b`` of the first-order-pair residual for both signs."""
    p = b.params
    zpow = b._side(b._zpow, +1)  # z^-(ell+1)
    res = [
        b.Eprime_chain(s) - s / (2.0 * p.omega) * zpow * b.E(s, -1) - p.mu * b.E(s)
        for s in (+1, -1)
    ]
    return float(np.max(np.abs(res)))


def dche_operator(params: ModelParams, ell: int, z, E, Ep, Epp):
    """z^2 E'' + ((ell+1) z + mu (1 - z^2)) E' + (lam - mu (ell+1) z) E at
    the points z, from the values E, E' and E'' there."""
    lam, mu = params.lam, params.mu
    return z**2 * Epp + ((ell + 1) * z + mu * (1 - z**2)) * Ep + (lam - mu * (ell + 1) * z) * E


def dche_residual(b: BasisValues, coeffs=BASIS_COEFFS) -> float:
    """sup residual of the second-order equation on the grid of ``b``
    (analytic derivatives), for the combinations ``coeffs`` = (c+, c-) of
    E+ and E-; the default is the two basis elements, one row each."""
    E, Ep, Epp = b.combination(coeffs)
    return float(np.max(np.abs(dche_operator(b.params, b.ell, b.z, E, Ep, Epp))))


def phi_alpha_values(values: PairValues, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """phi_alpha at the times of ``values`` (one ``CirclePair`` call) and its
    analytic d/dt.

    With E+- = g(u) (q+- S + q-+ R), q+- = (1 +- i)/sqrt(2) and
    g(t)/g(-t) = e^{-i ell omega t}, the paper's
    -i z^ell (c E+ + i s E-) / (c E+(1/z) - i s E-(1/z)), c = cos(alpha/2),
    s = sin(alpha/2), is the circle quotient of the solution
    (c + s, -i (c - s)).
    """
    c, s = np.cos(alpha / 2.0), np.sin(alpha / 2.0)
    return quotient(values, (c + s, -1j * (c - s)), "phi_alpha")[2]


# ---------------------------------------------------------------------------
# The symmetry operator
# ---------------------------------------------------------------------------


def _lb_formula(hb: HeunBasisPath, nq: NumericQuad, t, E, Ep):
    """L_B at z = e^{i omega t} from the values E and E' at the lift of -z:

        pref(t) * (z^2 r(-z) E' + s(-z) E).

    Returns the value, pref, the bracket and (z, r(-z), s(-z)): the
    t-derivative reuses them all.
    """
    p = hb.params
    z = np.exp(1j * p.omega * t)
    pref = (-1.0) ** hb.ell * 2.0 * p.omega * np.exp(1j * (1 - hb.ell) * p.omega * t) * np.exp(
        2.0 * p.mu * np.cos(p.omega * t)
    )
    r, s = nq("r", -z), nq("s", -z)
    G = z**2 * r * Ep + s * E
    return pref * G, pref, G, (z, r, s)


def apply_B_and_dot(
    hb: HeunBasisPath,
    nq: NumericQuad,
    t,
    coeffs: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """L_B applied to c+ E+ + c- E- on the lifted circle grid t, and its
    analytic d/dt, from one basis evaluation.

    ``coeffs`` may hold arrays of shape (k, 1): the result then has one row
    per combination.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    p = hb.params
    b = hb.at(t + p.T / 2)  # the lift of -z (MINUS_Z_LIFT)
    E, Ep, Epp = b.combination(coeffs)

    F, pref, G, (z, r, s) = _lb_formula(hb, nq, t, E, Ep)
    zdot = 1j * p.omega * z
    zsdot = 1j * p.omega * b.z
    pref_dot = pref * (1j * (1 - hb.ell) * p.omega - 2.0 * p.mu * p.omega * np.sin(p.omega * t))
    G_dot = (
        (2.0 * z * r - z**2 * nq("r'", -z)) * zdot * Ep
        + z**2 * r * Epp * zsdot
        - nq("s'", -z) * zdot * E
        + s * Ep * zsdot
    )
    return F, pref_dot * G + pref * G_dot


def apply_B(hb: HeunBasisPath, nq: NumericQuad, t, coeffs):
    """L_B applied to c+ E+ + c- E- on the lifted circle grid t."""
    return apply_B_and_dot(hb, nq, t, coeffs)[0]


def check_B_squared(hb: HeunBasisPath, nq: NumericQuad) -> dict:
    """Certify the composition law L_B(L_B(E)) = D * E(t + T).

    Evaluated for both basis elements and one random combination on a grid
    over [-T/2, T/2]; reports sup relative residuals plus the lift convention.
    """
    p = hb.params
    T = p.T
    t = np.linspace(-T / 2, T / 2, 401)
    rng = np.random.default_rng(20270101)
    c_rand = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
    # rows: E+, E-, one random combination
    cp = np.array([1.0 + 0.0j, 0.0j, c_rand[0]])[:, None]
    cm = np.array([0.0j, 1.0 + 0.0j, c_rand[1]])[:, None]

    u = t + T / 2
    F, F_dot = apply_B_and_dot(hb, nq, u, coeffs=(cp, cm))
    FF = _lb_formula(hb, nq, t, F, F_dot / (1j * p.omega * np.exp(1j * p.omega * u)))[0]
    b = hb.at(t + T)
    target = nq.D * (cp * b.E(+1) + cm * b.E(-1))
    scale = np.maximum(np.max(np.abs(target), axis=1), 1e-300)
    results = (np.max(np.abs(FF - target), axis=1) / scale).tolist()
    return {
        "residual_e_plus": results[0],
        "residual_e_minus": results[1],
        "residual_random_combo": results[2],
        "lift_convention": MINUS_Z_LIFT,
        "grid_size": t.size,
        "D": nq.D,
    }


# ---------------------------------------------------------------------------
# Matrix form
# ---------------------------------------------------------------------------


def build_matrix_B(hb: HeunBasisPath, nq: NumericQuad) -> np.ndarray:
    """The 2x2 matrix of L_B in the (E+, E-) basis (columns are the images),
    read off from its action at z = 1.

    A solution is fixed by its value and z-derivative at z = 1, so column s
    solves V = [[E+, E-], [E+', E-']] = [[a, b], [c, d]] (at z = 1) against
    L_B[E_s] and its z-derivative there, both from one ``apply_B_and_dot``
    call at t = 0 (d/dz = (i omega)^-1 d/dt at z = 1), through the closed
    form V^-1 = [[d, -b], [-c, a]] / (ad - bc).
    """
    images, images_dot = apply_B_and_dot(hb, nq, 0.0, coeffs=BASIS_COEFFS)
    b0 = hb.at(0.0)
    (a, b), (c, d) = (b0.E(+1)[0], b0.E(-1)[0]), (b0.Eprime(+1)[0], b0.Eprime(-1)[0])
    value, slope = images[:, 0], images_dot[:, 0] / (1j * hb.params.omega)
    return np.array((d * value - b * slope, a * slope - c * value)) / (a * d - b * c)


def det_relation_residual(matrix: np.ndarray, D: float) -> float:
    """|det(B)^2 - D^2| / D^2 (the composition-law determinant identity),
    with det B = ad - bc."""
    (a, b), (c, d) = matrix
    return float(abs(complex(a * d - b * c) ** 2 - D**2) / D**2)


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


def matrix_action_residual(hb: HeunBasisPath, nq: NumericQuad, matrix: np.ndarray) -> float:
    """sup relative deviation between L_B and its matrix on a circle grid."""
    T = hb.params.T
    t = np.linspace(-0.3 * T, 0.3 * T, MATRIX_ACTION_GRID)
    direct = apply_B(hb, nq, t, coeffs=BASIS_COEFFS)
    b = hb.at(t)
    via_matrix = matrix[0][:, None] * b.E(+1) + matrix[1][:, None] * b.E(-1)
    scale = np.maximum(np.max(np.abs(direct), axis=1), 1e-300)
    return float(np.max(np.max(np.abs(direct - via_matrix), axis=1) / scale))
