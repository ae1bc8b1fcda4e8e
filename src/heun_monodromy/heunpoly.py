"""Recurrence polynomials and their exact identity checks.

The four sequences p_k, q_k, r_k, s_k start from

    p0 = 0,  q0 = 1,  r0 = z**-2,  s0 = -mu

and advance by formal Laurent-polynomial rules (the index factors use the
output level k).  At level k = ell the quadruple becomes a genuine polynomial
quadruple of degrees (2*ell-2, 2*ell, 2*ell-2, 2*ell); those "diagonal"
polynomials carry the symmetry operator of the Heun layer.

Everything here is exact integer arithmetic, on the int64 limbs of
``exactpoly``; floating point appears only in ``NumericQuad`` at the bottom.  Each recurrence step, the four residuals of
each identity check and the values at z = 1 are each one ``combine_rows`` of
monomial multiples, one row per polynomial (multiplying by lam + mu^2 is two
of them, from ``exactpoly.times``).  Only
``first_integral`` multiplies two polynomials, and only values at z = 1, that
is polynomials in (lam, mu) whose terms all have z-power 0: the verified ODE
system already fixes the z-dependence of p*s - q*r.  Its products are
``times`` pieces too, so ``combine_rows`` is the one exact kernel.

A quadruple carries its proof: the ODE verdict, the values at z = 1 and D
(only once the verdict holds) are formed on first use and kept, so the exact
suite, ``poly`` and the float view share one proof of an order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegreeClaimViolated, GenericityViolated, NotConstant
from .exactpoly import (
    AT_ONE, LAM_PLUS_MUSQ, PRIME, REFLECT, LaurentPoly, Piece, combine_rows, theta, times,
)
from .params import ModelParams

#: Hard guard on the order.  At the limit, ``poly --ell 32 --check`` takes
#: about 0.1 s in process on a shared 2-vCPU Xeon: about half of it is
#: ``diagonal``'s recurrence (42 ms), a fifth the text and JSON output, and
#: the proof (14 ms) multiplies only values at z = 1, in one ``combine_rows``
#: call; ``NumericQuad`` adds 12 ms of exact sums.  The coefficients reach 113
#: bits, five int64 limbs.  The largest exponents (z-power 64) are far inside
#: the 16-bit key fields, and ``combine_rows``' shift guard refuses any
#: product that would not fit.
MAX_ELL = 32

#: Relative threshold below which a D factor counts as degenerate.
GENERICITY_RTOL = 1e-8


@dataclass(frozen=True)
class PolyQuadruple:
    """Level-k members (p, q, r, s) of the recurrence for a given ell, with its proof."""

    k: int
    ell: int
    p: LaurentPoly
    q: LaurentPoly
    r: LaurentPoly
    s: LaurentPoly

    def as_tuple(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return self.p, self.q, self.r, self.s

    @cached_property
    def ode(self) -> tuple[bool, str | None]:
        """The verdict of ``check_ode_system``."""
        return check_ode_system(self)

    @cached_property
    def at_one(self) -> list[LaurentPoly]:
        """p(1), q(1), r(1), s(1) and (lam + mu^2) p(1), in one accumulation."""
        return combine_rows([*([Piece(1, x, op=AT_ONE)] for x in self.as_tuple()),
                             times(1, LAM_PLUS_MUSQ, self.p, op=AT_ONE)])

    @cached_property
    def D(self) -> LaurentPoly:
        """The first integral (see ``first_integral``)."""
        return first_integral(self)


#: (p0, q0, r0, s0) = (0, 1, z**-2, -mu), the same for every order.
_LEVEL_ZERO = (
    LaurentPoly(),
    LaurentPoly.monomial(1),
    LaurentPoly.monomial(1, z_pow=-2),
    LaurentPoly.monomial(-1, mu_pow=1),
)


def initial_quadruple(ell: int) -> PolyQuadruple:
    return PolyQuadruple(0, ell, *_LEVEL_ZERO)


def recurrence_step(quad: PolyQuadruple) -> PolyQuadruple:
    """Advance the quadruple one level (output index k = quad.k + 1).

    ``Piece(c, x, dz, dlam, dmu)`` is ``c * z**dz * lam**dlam * mu**dmu * x``.
    A term ``a z x + z^2 x'`` is one piece, ``z (theta + a) x`` with
    theta = z d/dz.
    """
    ell, k = quad.ell, quad.k + 1
    p, q, r, s = quad.as_tuple()
    p_new, q_new, r_new, s_new = combine_rows([
        # (1 - ell) z p + q + z^2 p'
        [Piece(1, p, 1, op=theta(1 - ell)), Piece(1, q)],
        # -lam z^2 p + (ell + 1) mu z^3 p + mu q - mu z^2 q + z^2 q'
        [Piece(-1, p, 2, 1), Piece(ell + 1, p, 3, 0, 1), Piece(1, q, 0, 0, 1),
         Piece(-1, q, 2, 0, 1), Piece(1, q, 2, op=PRIME)],
        # 2 (k - 2) z r - s - z^2 r'
        [Piece(-1, r, 1, op=theta(4 - 2 * k)), Piece(-1, s)],
        # lam z^2 r - (ell + 1) mu z^3 r + (2k - ell - 3) z s + mu z^2 s - mu s - z^2 s'
        [Piece(1, r, 2, 1), Piece(-(ell + 1), r, 3, 0, 1),
         Piece(-1, s, 1, op=theta(ell + 3 - 2 * k)), Piece(1, s, 2, 0, 1), Piece(-1, s, 0, 0, 1)],
    ])
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


def _verdict(residuals: list[LaurentPoly], what: str) -> tuple[bool, str | None]:
    """(ok, witness) of the residuals of p, q, r, s: the witness names the
    least monomial of the first nonzero one."""
    for name, res in zip("pqrs", residuals):
        if not res.is_zero():
            (z_pow, a, b), c = min(res.terms.items())
            return False, f"{name}-{what} fails at {c}*lam^{a}*mu^{b}*z^{z_pow}"
    return True, None


def check_parity(quad: PolyQuadruple) -> tuple[bool, str | None]:
    """Exact reflection identities of the diagonal quadruple.

    The relations involving 1/(lam + mu^2) are verified multiplied through by
    (lam + mu^2); nothing is ever divided.
    Returns (ok, witness) with witness naming a failing monomial.
    """
    ell = quad.ell
    p, q, r, s = quad.as_tuple()
    sgn = (-1) ** (ell + 1)
    residuals = combine_rows([
        # (lam + mu^2) p(-z) - sgn (mu z^2 r + s)
        [*times(1, LAM_PLUS_MUSQ, p, op=REFLECT), Piece(-sgn, r, 2, 0, 1), Piece(-sgn, s)],
        # (lam + mu^2) (q(-z) - mu z^2 p - q) + sgn mu z^2 (mu z^2 r + s)
        [*times(1, LAM_PLUS_MUSQ, q, op=REFLECT), *times(-1, LAM_PLUS_MUSQ, p, 2, 1),
         *times(-1, LAM_PLUS_MUSQ, q), Piece(sgn, r, 4, 0, 2), Piece(sgn, s, 2, 0, 1)],
        # r(-z) - r
        [Piece(1, r, op=REFLECT), Piece(-1, r)],
        # s(-z) - sgn (lam + mu^2) p + mu z^2 r
        [Piece(1, s, op=REFLECT), *times(-sgn, LAM_PLUS_MUSQ, p), Piece(1, r, 2, 0, 1)],
    ])
    return _verdict(residuals, "relation")


def check_ode_system(quad: PolyQuadruple) -> tuple[bool, str | None]:
    """Exact first-order differential system satisfied by (p, q, r, s)."""
    ell = quad.ell
    p, q, r, s = quad.as_tuple()
    sgn_l = (-1) ** ell
    residuals = combine_rows([
        # z^2 p' - mu p - (ell - 1) z p + q - sgn_l z^2 r
        [Piece(1, p, 2, op=PRIME), Piece(-1, p, 0, 0, 1), Piece(1 - ell, p, 1), Piece(1, q),
         Piece(-sgn_l, r, 2)],
        # q' - lam p + (ell + 1) mu z p - mu q - sgn_l s
        [Piece(1, q, op=PRIME), Piece(-1, p, 0, 1), Piece(ell + 1, p, 1, 0, 1),
         Piece(-1, q, 0, 0, 1), Piece(-sgn_l, s)],
        # z^2 r' + sgn_l (lam + mu^2) p - 2 (ell - 1) z r + mu z^2 r + s
        [Piece(1, r, 2, op=PRIME), *times(sgn_l, LAM_PLUS_MUSQ, p), Piece(2 - 2 * ell, r, 1),
         Piece(1, r, 2, 0, 1), Piece(1, s)],
        # z^2 s' + sgn_l (lam + mu^2) q - lam z^2 r + (ell + 1) mu z^3 r - (ell - 1) z s + mu s
        [Piece(1, s, 2, op=PRIME), *times(sgn_l, LAM_PLUS_MUSQ, q), Piece(-1, r, 2, 1),
         Piece(ell + 1, r, 3, 0, 1), Piece(1 - ell, s, 1), Piece(1, s, 0, 0, 1)],
    ])
    return _verdict(residuals, "equation")


def first_integral(quad: PolyQuadruple) -> LaurentPoly:
    """The z-independent combination D = z**(2(1-ell)) * (p*s - q*r), read at z = 1.

    With sgn = (-1)**ell and W = p*s - q*r, the four rows of
    ``check_ode_system`` put into z^2 W' = (z^2 p') s + p (z^2 s') - (z^2 q') r
    - q (z^2 r') cancel to z^2 W' = 2 (ell - 1) z W.  So W = D z**(2(ell-1))
    as a Laurent polynomial and D = W(1) = p(1) s(1) - q(1) r(1).

    It reads the verdict and the values at z = 1 that the quadruple keeps;
    ``quad.D`` keeps D.  Raises NotConstant if the ODE system fails (W is then
    not proven a monomial) or if D disagrees with the boundary form
    (lam + mu^2) * p(1)**2 - r(1)**2.  D is a polynomial in (lam, mu): a
    ``LaurentPoly`` whose terms all have z-power 0.
    """
    ok, witness = quad.ode
    if not ok:
        raise NotConstant(f"first integral unproven: {witness}")
    p1, q1, r1, s1, lp1 = quad.at_one
    # D and its boundary form as two rows of products, each piece taken from
    # the factor with fewer terms
    D, boundary = combine_rows([times(1, p1, s1) + times(-1, r1, q1),
                                times(1, p1, lp1) + times(-1, r1, r1)])
    if D != boundary:
        raise NotConstant("first integral disagrees with its z=1 boundary form")
    return D


class NumericQuad:
    """Float view of a diagonal quadruple at a parameter point: r, s, r' and
    s' as coefficient arrays (what L_B reads), the first integral D, and
    D+- = p(1) +- 2*omega*r(1).

    It is the one genericity gate: it raises GenericityViolated where either
    D factor vanishes relative to max(1, |p(1)|), since the symmetry operator
    is not invertible there.  Every value is read from the quadruple's proof,
    exact at the float point and rounded once, so none depends on the order
    of the terms.
    """

    def __init__(self, quad: PolyQuadruple, params: ModelParams):
        lam, mu = params.lam, params.mu
        self.ell = quad.ell
        self.params = params
        # D first, so that an unproven quadruple raises before any float work
        self.D, p1, r1 = (x.coeff_arrays(lam, mu)[0][1][0]  # each a z**0 coefficient
                          for x in (quad.D, quad.at_one[0], quad.at_one[2]))
        self._polys = dict(zip(("r", "r'", "s", "s'"),
                               (*quad.r.coeff_arrays(lam, mu), *quad.s.coeff_arrays(lam, mu))))
        self.d_plus = p1 + 2.0 * params.omega * r1
        self.d_minus = p1 - 2.0 * params.omega * r1
        floor = GENERICITY_RTOL * max(1.0, abs(p1))
        if not (abs(self.d_plus) > floor and abs(self.d_minus) > floor):  # a NaN fails too
            raise GenericityViolated(
                f"D+={self.d_plus:.3e}, D-={self.d_minus:.3e} at (ell={self.ell}, "
                f"mu={mu}, omega={params.omega}); the symmetry operator is not invertible here"
            )

    def __call__(self, name: str, z):
        """Evaluate r, s, r' or s' at complex z (vectorized)."""
        lo, dense = self._polys[name]
        z = np.asarray(z)
        acc = np.zeros_like(z, dtype=complex)
        for c in dense[::-1]:
            acc = acc * z + c
        return acc * z**lo

