"""Exact Laurent polynomials in z with integer-coefficient bivariate entries.

A coefficient is a polynomial in the two parameters (lam, mu) with arbitrary
precision integer coefficients, stored as ``{(lam_pow, mu_pow): int}``.  A
Laurent polynomial maps z-powers (possibly negative) to such coefficients.
Canonical form keeps no zero entries anywhere.

These are the only number types used by the recurrence layer; every identity
check there is performed with this exact arithmetic, never in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

#: The dense product box is used while it holds at most this many slots per
#: term pair; sparser operands number their distinct exponent sums instead.
_BOX_SLOTS_PER_PAIR = 32


def _trim_bivar(d: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    return {k: v for k, v in d.items() if v != 0}


def _flat_terms(coeffs: dict[int, "BivariateCoeff"]) -> tuple[np.ndarray, np.ndarray]:
    """Exponent triples (n, 3) and object-dtype coefficients of a Laurent dict."""
    bivs = coeffs.values()
    counts = [len(v.terms) for v in bivs]
    n = sum(counts)
    exps = np.empty((n, 3), dtype=np.int64)
    exps[:, 0] = np.repeat(list(coeffs), counts)
    lam_mu = chain.from_iterable(chain.from_iterable(v.terms for v in bivs))
    exps[:, 1:] = np.fromiter(lam_mu, dtype=np.int64, count=2 * n).reshape(n, 2)
    values = np.fromiter(chain.from_iterable(v.terms.values() for v in bivs), object, n)
    return exps, values


def _product(
    x: dict[int, "BivariateCoeff"], y: dict[int, "BivariateCoeff"]
) -> dict[int, "BivariateCoeff"]:
    """Exact product of two Laurent coefficient dicts, in canonical form.

    Every exponent triple (z, lam, mu) of the product gets a slot in one
    accumulator.  The coefficients sit in numpy object arrays, so they stay
    Python ints (exact at any size).  The products ``c_i * y`` of one term of
    the shorter operand land on distinct slots, so one fancy-index ``+=`` per
    term is exact.  Only the nonzero slots are decoded, ascending in
    (z, lam, mu).
    """
    (xe, xc), (ye, yc) = _flat_terms(x), _flat_terms(y)
    if not len(xc) or not len(yc):
        return {}
    if len(xc) > len(yc):
        xe, xc, ye, yc = ye, yc, xe, xc
    lo = xe.min(0) + ye.min(0)
    span = tuple((xe.max(0) + ye.max(0) - lo + 1).tolist())
    size = math.prod(span)
    if size <= _BOX_SLOTS_PER_PAIR * len(xc) * len(yc):
        # Flat index in the dense box of the product's span.
        kx = np.ravel_multi_index(tuple((xe - xe.min(0)).T), span)
        ky = np.ravel_multi_index(tuple((ye - ye.min(0)).T), span)
        rows = (ky + k for k in kx.tolist())
        acc = np.zeros(size, dtype=object)

        def decode(nz):
            return np.column_stack(np.unravel_index(nz, span)) + lo

    else:
        # Sparse operands: number the distinct exponent sums instead.
        keys, inverse = np.unique((xe[:, None] + ye).reshape(-1, 3), axis=0, return_inverse=True)
        rows = inverse.reshape(len(xc), len(yc))
        acc = np.zeros(len(keys), dtype=object)

        def decode(nz):
            return keys[nz]

    for row, c in zip(rows, xc.tolist()):
        acc[row] += c * yc
    nz = np.flatnonzero(acc)
    z, lam, mu = decode(nz).T
    starts = np.flatnonzero(np.diff(z, prepend=z[:1] - 1)).tolist()
    z_pows = z.tolist()
    lam_mu = list(zip(lam.tolist(), mu.tolist()))
    values = acc[nz].tolist()
    return {
        z_pows[i]: BivariateCoeff(dict(zip(lam_mu[i:j], values[i:j])))
        for i, j in zip(starts, starts[1:] + [len(nz)])
    }


@dataclass(frozen=True)
class BivariateCoeff:
    """Exact polynomial in (lam, mu) over the integers."""

    terms: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", _trim_bivar(dict(self.terms)))

    @classmethod
    def monomial(cls, c: int, lam_pow: int = 0, mu_pow: int = 0) -> "BivariateCoeff":
        return cls({(lam_pow, mu_pow): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "BivariateCoeff") -> "BivariateCoeff":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return BivariateCoeff(out)

    def __neg__(self) -> "BivariateCoeff":
        return BivariateCoeff({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "BivariateCoeff") -> "BivariateCoeff":
        return self + (-other)

    def __mul__(self, other: "BivariateCoeff") -> "BivariateCoeff":
        return _product({0: self}, {0: other}).get(0, BivariateCoeff())

    def scaled(self, c: int, dlam: int = 0, dmu: int = 0) -> "BivariateCoeff":
        """Multiply by the monomial c * lam**dlam * mu**dmu."""
        if c == 0:
            return BivariateCoeff()
        return BivariateCoeff({(a + dlam, b + dmu): c * v for (a, b), v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariateCoeff):
            return NotImplemented
        return self.terms == other.terms

    def evaluate(self, lam, mu):
        """Numeric (or Fraction) value at the given parameter point."""
        return sum(c * lam**a * mu**b for (a, b), c in self.terms.items())

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        # lam-power descending, then mu-power ascending; see canonical_text.
        return sorted(self.terms.items(), key=lambda kv: (-kv[0][0], kv[0][1]))

    def __repr__(self) -> str:
        return f"BivariateCoeff({self.terms!r})"


def _monomial_text(coeff: int, lam_pow: int, mu_pow: int, z_pow: int) -> tuple[str, str]:
    """Return (sign, magnitude-text) for one monomial."""
    sign = "-" if coeff < 0 else "+"
    factors = []
    mag = abs(coeff)
    for name, p in (("lam", lam_pow), ("mu", mu_pow), ("z", z_pow)):
        if p == 1:
            factors.append(name)
        elif p != 0:
            factors.append(f"{name}^{p}")
    if mag != 1 or not factors:
        factors.insert(0, str(mag))
    return sign, "*".join(factors)


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial in z with BivariateCoeff coefficients."""

    coeffs: dict[int, BivariateCoeff] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {k: v for k, v in self.coeffs.items() if not v.is_zero()}
        )

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def monomial(cls, c: int, z_pow: int = 0, lam_pow: int = 0, mu_pow: int = 0) -> "LaurentPoly":
        return cls({z_pow: BivariateCoeff.monomial(c, lam_pow, mu_pow)})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_degree(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    @property
    def max_degree(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(_product(self.coeffs, other.coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def scaled(self, c: int, dz: int = 0, dlam: int = 0, dmu: int = 0) -> "LaurentPoly":
        """Multiply by the monomial c * z**dz * lam**dlam * mu**dmu."""
        if c == 0:
            return LaurentPoly.zero()
        return LaurentPoly({k + dz: v.scaled(c, dlam, dmu) for k, v in self.coeffs.items()})

    def mul_bivar(self, b: BivariateCoeff) -> "LaurentPoly":
        return self * LaurentPoly({0: b})

    def diff_z(self) -> "LaurentPoly":
        """Formal d/dz (exact on Laurent monomials)."""
        return LaurentPoly({k - 1: v.scaled(k) for k, v in self.coeffs.items() if k != 0})

    def substitute_neg_z(self) -> "LaurentPoly":
        """z -> -z."""
        return LaurentPoly({k: v.scaled(1 if k % 2 == 0 else -1) for k, v in self.coeffs.items()})

    def at_one(self) -> BivariateCoeff:
        """Exact value at z = 1 (a bivariate polynomial in lam, mu)."""
        out = BivariateCoeff()
        for v in self.coeffs.values():
            out = out + v
        return out

    def evaluate(self, z, lam, mu):
        """Numeric value; z may be complex or a numpy array."""
        return sum(c.evaluate(lam, mu) * z**k for k, c in self.coeffs.items())

    def evaluate_exact(self, z: Fraction, lam: Fraction, mu: Fraction) -> Fraction:
        return sum(
            Fraction(0)
            if c.is_zero()
            else Fraction(sum(v * lam**a * mu**b for (a, b), v in c.terms.items())) * z**k
            for k, c in self.coeffs.items()
        )

    def coeff_arrays(self, lam: float, mu: float) -> tuple[int, list[float]]:
        """(min_degree, dense ascending coefficient list) at numeric (lam, mu)."""
        if not self.coeffs:
            return 0, [0.0]
        lo, hi = min(self.coeffs), max(self.coeffs)
        dense = [0.0] * (hi - lo + 1)
        for k, c in self.coeffs.items():
            dense[k - lo] = float(c.evaluate(lam, mu))
        return lo, dense

    def canonical_text(self) -> str:
        """Deterministic text form.

        Monomials are ordered by z-power ascending, then lam-power descending,
        then mu-power ascending, so that e.g. ``lam + mu^2 - mu^2*z^2`` prints
        in the conventional order.
        """
        if self.is_zero():
            return "0"
        items: list[tuple[tuple[int, int, int], int]] = []
        for z_pow in sorted(self.coeffs):
            for (a, b), c in self.coeffs[z_pow].sorted_terms():
                items.append(((z_pow, a, b), c))
        pieces: list[str] = []
        for (z_pow, a, b), c in items:
            sign, text = _monomial_text(c, a, b, z_pow)
            if not pieces:
                pieces.append(text if sign == "+" else "-" + text)
            else:
                pieces.append(f"{sign} {text}")
        return " ".join(pieces)

    def to_json_obj(self) -> list[list]:
        """Lossless JSON form: [[z_pow, lam_pow, mu_pow, coeff], ...] sorted."""
        out = []
        for z_pow in sorted(self.coeffs):
            for (a, b), c in self.coeffs[z_pow].sorted_terms():
                out.append([z_pow, a, b, c])
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly<{self.canonical_text()}>"


#: lam + mu^2, the combination cleared out of the parity identities.
LAM_PLUS_MUSQ = BivariateCoeff({(1, 0): 1, (0, 2): 1})
