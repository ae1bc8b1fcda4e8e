"""Recurrence polynomials and their exact identity checks.

The four sequences p_k, q_k, r_k, s_k start from

    p0 = 0,  q0 = 1,  r0 = z**-2,  s0 = -mu

and advance by formal Laurent-polynomial rules (the index factors use the
output level k).  At level k = ell the quadruple becomes a genuine polynomial
quadruple of degrees (2*ell-2, 2*ell, 2*ell-2, 2*ell); those "diagonal"
polynomials carry the symmetry operator of the Heun layer.

Everything here is exact integer arithmetic; floating point appears only in
the numeric evaluation helpers at the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegreeClaimViolated, GenericityViolated, NotConstant
from .exactpoly import LAM_PLUS_MUSQ, BivariateCoeff, LaurentPoly
from .params import ModelParams

#: Hard guard on the order.  At the limit, ``poly --ell 32 --check`` takes
#: about 4.4 s on a 2-vCPU Xeon, most of it in the two products of
#: ``first_integral``.
MAX_ELL = 32

#: Relative threshold below which a D factor counts as degenerate.
GENERICITY_RTOL = 1e-8


@dataclass(frozen=True)
class PolyQuadruple:
    """Level-k members (p, q, r, s) of the recurrence for a given ell."""

    k: int
    ell: int
    p: LaurentPoly
    q: LaurentPoly
    r: LaurentPoly
    s: LaurentPoly

    def as_tuple(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return self.p, self.q, self.r, self.s


def initial_quadruple(ell: int) -> PolyQuadruple:
    return PolyQuadruple(
        k=0,
        ell=ell,
        p=LaurentPoly.zero(),
        q=LaurentPoly.monomial(1),
        r=LaurentPoly.monomial(1, z_pow=-2),
        s=LaurentPoly.monomial(-1, mu_pow=1),
    )


def recurrence_step(quad: PolyQuadruple) -> PolyQuadruple:
    """Advance the quadruple one level (output index k = quad.k + 1)."""
    ell, k = quad.ell, quad.k + 1
    p, q, r, s = quad.as_tuple()

    p_new = p.scaled(1 - ell, dz=1) + q + p.diff_z().scaled(1, dz=2)
    q_new = (
        p.scaled(-1, dz=2, dlam=1)
        + p.scaled(ell + 1, dz=3, dmu=1)
        + q.scaled(1, dmu=1)
        + q.scaled(-1, dz=2, dmu=1)
        + q.diff_z().scaled(1, dz=2)
    )
    r_new = r.scaled(2 * (k - 2), dz=1) - s - r.diff_z().scaled(1, dz=2)
    s_new = (
        r.scaled(1, dz=2, dlam=1)
        + r.scaled(-(ell + 1), dz=3, dmu=1)
        + s.scaled(2 * k - ell - 3, dz=1)
        + s.scaled(1, dz=2, dmu=1)
        + s.scaled(-1, dmu=1)
        - s.diff_z().scaled(1, dz=2)
    )
    return PolyQuadruple(k=k, ell=ell, p=p_new, q=q_new, r=r_new, s=s_new)


def diagonal(ell: int) -> PolyQuadruple:
    """Iterate the recurrence to level ell and assert the degree claim."""
    if not (1 <= ell <= MAX_ELL):
        raise ValueError(f"ell must be in 1..{MAX_ELL}, got {ell}")
    quad = initial_quadruple(ell)
    for _ in range(ell):
        quad = recurrence_step(quad)
    expected = (2 * ell - 2, 2 * ell, 2 * ell - 2, 2 * ell)
    for poly, deg, name in zip(quad.as_tuple(), expected, "pqrs"):
        if poly.min_degree is None or poly.min_degree < 0:
            raise DegreeClaimViolated(f"{name} at level {ell} has negative powers: {poly!r}")
        if poly.max_degree != deg:
            raise DegreeClaimViolated(
                f"{name} at level {ell} has degree {poly.max_degree}, expected {deg}"
            )
    return quad


def _first_nonzero_monomial(poly: LaurentPoly) -> str:
    z_pow = min(poly.coeffs)
    (a, b), c = sorted(poly.coeffs[z_pow].terms.items())[0]
    return f"{c}*lam^{a}*mu^{b}*z^{z_pow}"


def check_parity(quad: PolyQuadruple) -> tuple[bool, str | None]:
    """Exact reflection identities of the diagonal quadruple.

    The relations involving 1/(lam + mu^2) are verified multiplied through by
    (lam + mu^2); nothing is ever divided.
    Returns (ok, witness) with witness naming a failing monomial.
    """
    ell = quad.ell
    p, q, r, s = quad.as_tuple()
    sgn = (-1) ** (ell + 1)
    mu_z2_r_plus_s = r.scaled(1, dz=2, dmu=1) + s

    residuals = {
        "p": p.substitute_neg_z().mul_bivar(LAM_PLUS_MUSQ) - mu_z2_r_plus_s.scaled(sgn),
        "q": q.substitute_neg_z().mul_bivar(LAM_PLUS_MUSQ)
        - (p.scaled(1, dz=2, dmu=1) + q).mul_bivar(LAM_PLUS_MUSQ)
        - mu_z2_r_plus_s.scaled(-sgn, dz=2, dmu=1),
        "r": r.substitute_neg_z() - r,
        "s": s.substitute_neg_z() - p.mul_bivar(LAM_PLUS_MUSQ).scaled(sgn) + r.scaled(1, dz=2, dmu=1),
    }
    for name, res in residuals.items():
        if not res.is_zero():
            return False, f"{name}-relation fails at {_first_nonzero_monomial(res)}"
    return True, None


def check_ode_system(quad: PolyQuadruple) -> tuple[bool, str | None]:
    """Exact first-order differential system satisfied by (p, q, r, s)."""
    ell = quad.ell
    p, q, r, s = quad.as_tuple()
    sgn_l = (-1) ** ell
    sgn_l1 = (-1) ** (ell + 1)

    res1 = (
        p.diff_z().scaled(1, dz=2)
        - p.scaled(1, dmu=1)
        - p.scaled(ell - 1, dz=1)
        + q
        - r.scaled(sgn_l, dz=2)
    )
    res2 = (
        q.diff_z()
        - p.scaled(1, dlam=1)
        + p.scaled(ell + 1, dz=1, dmu=1)
        - q.scaled(1, dmu=1)
        - s.scaled(sgn_l)
    )
    res3 = (
        r.diff_z().scaled(1, dz=2)
        - p.mul_bivar(LAM_PLUS_MUSQ).scaled(sgn_l1)
        - r.scaled(2 * (ell - 1), dz=1)
        + r.scaled(1, dz=2, dmu=1)
        + s
    )
    res4 = (
        s.diff_z().scaled(1, dz=2)
        - q.mul_bivar(LAM_PLUS_MUSQ).scaled(sgn_l1)
        - r.scaled(1, dz=2, dlam=1)
        + r.scaled(ell + 1, dz=3, dmu=1)
        - s.scaled(ell - 1, dz=1)
        + s.scaled(1, dmu=1)
    )
    for name, res in zip(("p", "q", "r", "s"), (res1, res2, res3, res4)):
        if not res.is_zero():
            return False, f"{name}-equation fails at {_first_nonzero_monomial(res)}"
    return True, None


def first_integral(quad: PolyQuadruple) -> BivariateCoeff:
    """The z-independent combination z**(2(1-ell)) * (p*s - q*r).

    Asserts exact z-independence, then verifies the boundary form
    D = (lam + mu^2) * p(1)**2 - r(1)**2 as an exact bivariate identity.
    """
    ell = quad.ell
    combo = (quad.p * quad.s - quad.q * quad.r).scaled(1, dz=2 * (1 - ell))
    powers = set(combo.coeffs)
    if powers - {0}:
        raise NotConstant(f"first integral carries z-powers {sorted(powers - {0})}")
    D = combo.coeffs.get(0, BivariateCoeff())

    p1 = quad.p.at_one()
    r1 = quad.r.at_one()
    boundary_form = LAM_PLUS_MUSQ * p1 * p1 - r1 * r1
    if not (D - boundary_form).is_zero():
        raise NotConstant("first integral disagrees with its z=1 boundary form")
    return D


def d_plus_minus(
    quad: PolyQuadruple, params: ModelParams, check: bool = True
) -> tuple[float, float, bool]:
    """Numeric (D+, D-) = p(1) +- 2*omega*r(1) and the genericity flag.

    With ``check`` (the default) a degenerate point raises GenericityViolated;
    pass ``check=False`` to inspect the flag instead.
    """
    lam, mu, omega = params.lam, params.mu, params.omega
    p1 = float(quad.p.at_one().evaluate(lam, mu))
    r1 = float(quad.r.at_one().evaluate(lam, mu))
    d_plus = p1 + 2.0 * omega * r1
    d_minus = p1 - 2.0 * omega * r1
    scale = max(1.0, abs(p1))
    generic = abs(d_plus) > GENERICITY_RTOL * scale and abs(d_minus) > GENERICITY_RTOL * scale
    if check and not generic:
        raise GenericityViolated(
            f"D+={d_plus:.3e}, D-={d_minus:.3e} at (ell={quad.ell}, mu={mu}, omega={omega}); "
            "the symmetry operator is not invertible here"
        )
    return d_plus, d_minus, generic


def first_integral_numeric_residual(
    quad: PolyQuadruple, rng: np.random.Generator, n_points: int = 20, n_z: int = 5
) -> float:
    """Cross-check D against p*s - q*r at random numeric points.

    Returns the max relative disagreement over ``n_points`` random (lam, mu)
    and ``n_z`` random complex z.
    """
    D = first_integral(quad)
    worst = 0.0
    for _ in range(n_points):
        lam = float(rng.uniform(-2, 2))
        mu = float(rng.uniform(-2, 2))
        d_val = complex(D.evaluate(lam, mu))
        for _ in range(n_z):
            z = complex(rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            combo = z ** (2 * (1 - quad.ell)) * (
                quad.p.evaluate(z, lam, mu) * quad.s.evaluate(z, lam, mu)
                - quad.q.evaluate(z, lam, mu) * quad.r.evaluate(z, lam, mu)
            )
            denom = max(1.0, abs(d_val))
            worst = max(worst, abs(combo - d_val) / denom)
    return worst


class NumericQuad:
    """Float-coefficient view of a diagonal quadruple at a parameter point."""

    def __init__(self, quad: PolyQuadruple, params: ModelParams):
        lam, mu = params.lam, params.mu
        self.ell = quad.ell
        self.params = params
        self._polys = {}
        for name, poly in zip("pqrs", quad.as_tuple()):
            lo, dense = poly.coeff_arrays(lam, mu)
            self._polys[name] = (lo, np.asarray(dense))
            dlo, ddense = poly.diff_z().coeff_arrays(lam, mu)
            self._polys[name + "'"] = (dlo, np.asarray(ddense))
        self.d_plus, self.d_minus, self.generic = d_plus_minus(quad, params, check=False)
        # exact at the float point, rounded once: independent of the term order
        self.D = float(first_integral(quad).evaluate(Fraction(lam), Fraction(mu)))

    def __call__(self, name: str, z):
        """Evaluate p, q, r, s or a primed variant at complex z (vectorized)."""
        lo, dense = self._polys[name]
        z = np.asarray(z)
        acc = np.zeros_like(z, dtype=complex)
        for c in dense[::-1]:
            acc = acc * z + c
        return acc * z**lo

