"""Exact Laurent polynomials in z with coefficients in Z[lam, mu].

A Laurent polynomial is one flat dict ``{(z_pow, lam_pow, mu_pow): int}`` with
no zero entries; a ``BivariateCoeff`` is one ``{(lam_pow, mu_pow): int}``.
Two kernels do all the arithmetic: ``combine`` sums monomial multiples of
polynomials (or of their z-derivatives, reflections z -> -z and values at
z = 1) in one dict pass, and ``_product`` sums products of bivariate
coefficients in one numpy object-array accumulator.  No z-dependent
polynomial is ever multiplied: the recurrence layer's only products are of
values at z = 1, in ``heunpoly.first_integral``.  Every identity check of the
recurrence layer uses this exact arithmetic, never floating point.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

#: The dense product box is used while it holds at most this many slots per
#: term pair; sparser operands number their distinct exponent sums instead.
_BOX_SLOTS_PER_PAIR = 32


def _product(pairs) -> dict[tuple[int, ...], int]:
    """Exact sum of ``c * x * y`` over ``(c, x, y)``, in canonical form.

    ``x`` and ``y`` are term dicts keyed by exponent tuples of one length.
    Every exponent tuple of the sum gets a slot in one accumulator.  The
    coefficients sit in numpy object arrays, so they stay Python ints (exact
    at any size).  The products ``c * x_i * y`` of one term of the shorter
    operand land on distinct slots, so one fancy-index ``+=`` per term is
    exact.  Only the nonzero slots are decoded, ascending in the exponents.
    """
    ops = []
    for c, x, y in pairs:
        if len(x) > len(y):
            x, y = y, x
        if x:
            xe, ye = np.array(list(x), dtype=np.int64), np.array(list(y), dtype=np.int64)
            yc = np.fromiter(y.values(), object, len(y))
            ops.append((xe, [c * v for v in x.values()], ye, yc))
    if not ops:
        return {}
    lo = np.min([xe.min(0) + ye.min(0) for xe, _, ye, _ in ops], axis=0)
    hi = np.max([xe.max(0) + ye.max(0) for xe, _, ye, _ in ops], axis=0)
    span = tuple((hi - lo + 1).tolist())
    size = math.prod(span)
    if size <= _BOX_SLOTS_PER_PAIR * sum(len(xc) * len(yc) for _, xc, _, yc in ops):
        # Flat index in the dense box of the sum's span: the x part counts
        # from x's least exponents, the y part from the rest of lo.
        rows = []
        for xe, _, ye, _ in ops:
            kx = np.ravel_multi_index(tuple((xe - xe.min(0)).T), span)
            ky = np.ravel_multi_index(tuple((ye + xe.min(0) - lo).T), span)
            rows.append(map(ky.__add__, kx.tolist()))
        acc = np.zeros(size, dtype=object)

        def decode(nz):
            return np.column_stack(np.unravel_index(nz, span)) + lo

    else:
        # Sparse operands: number the distinct exponent sums instead.
        sums = [(xe[:, None] + ye).reshape(-1, len(span)) for xe, _, ye, _ in ops]
        keys, inverse = np.unique(np.concatenate(sums), axis=0, return_inverse=True)
        rows = np.split(inverse.reshape(-1), np.cumsum([len(s) for s in sums])[:-1])
        rows = [r.reshape(len(xc), -1) for r, (_, xc, _, _) in zip(rows, ops)]
        acc = np.zeros(len(keys), dtype=object)

        def decode(nz):
            return keys[nz]

    for (_, xc, _, yc), op_rows in zip(ops, rows):
        for row, c in zip(op_rows, xc):
            acc[row] += c * yc
    nz = np.flatnonzero(acc)
    return dict(zip(zip(*decode(nz).T.tolist()), acc[nz].tolist()))


@dataclass(frozen=True)
class BivariateCoeff:
    """Exact polynomial in (lam, mu) over the integers, with nonnegative powers."""

    terms: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", {k: v for k, v in self.terms.items() if v})

    @classmethod
    def monomial(cls, c: int, lam_pow: int = 0, mu_pow: int = 0) -> "BivariateCoeff":
        return cls({(lam_pow, mu_pow): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "BivariateCoeff") -> "BivariateCoeff":
        return product_sum([(1, self, other)])

    def value_at(self, lam: float, mu: float) -> float:
        """Value at a float point, exact and rounded once: free of the term order."""
        if not self.terms:
            return 0.0
        (nl, dl), (nm, dm) = lam.as_integer_ratio(), mu.as_integer_ratio()
        top_a, top_b = max(a for a, _ in self.terms), max(b for _, b in self.terms)
        # every term over the common denominator dl**top_a * dm**top_b
        lam_pows = [nl**a * dl ** (top_a - a) for a in range(top_a + 1)]
        mu_pows = [nm**b * dm ** (top_b - b) for b in range(top_b + 1)]
        num = sum(c * lam_pows[a] * mu_pows[b] for (a, b), c in self.terms.items())
        return num / (dl**top_a * dm**top_b)  # int / int rounds correctly

    def __repr__(self) -> str:
        return f"BivariateCoeff({self.terms!r})"


def product_sum(pairs: Iterable[tuple[int, BivariateCoeff, BivariateCoeff]]) -> BivariateCoeff:
    """Exact sum of ``c * x * y`` over ``(c, x, y)``, in one product accumulator."""
    return BivariateCoeff(_product([(c, x.terms, y.terms) for c, x, y in pairs]))


def _monomial_text(coeff: int, lam_pow: int, mu_pow: int, z_pow: int) -> str:
    """Sign and magnitude text of one monomial, as in ``- 3*lam*z^2``."""
    factors = []
    mag = abs(coeff)
    for name, p in (("lam", lam_pow), ("mu", mu_pow), ("z", z_pow)):
        if p == 1:
            factors.append(name)
        elif p != 0:
            factors.append(f"{name}^{p}")
    if mag != 1 or not factors:
        factors.insert(0, str(mag))
    return ("- " if coeff < 0 else "+ ") + "*".join(factors)


#: Operators a piece may apply to its polynomial (d/dz, z -> -z, z -> 1): each
#: maps a term's z-power and the piece's factor c to its new z-power and weight.
PRIME, REFLECT, AT_ONE = (
    lambda z, c: (z - 1, c * z),
    lambda z, c: (z, -c if z & 1 else c),
    lambda z, c: (0, c),
)


class Piece(NamedTuple):
    """The summand ``c * z**dz * lam**dlam * mu**dmu * op(x)`` of ``combine``."""

    c: int
    x: "LaurentPoly"
    dz: int = 0
    dlam: int = 0
    dmu: int = 0
    op: Callable[[int, int], tuple[int, int]] | None = None


def combine(pieces: Iterable[Piece]) -> "LaurentPoly":
    """Exact sum of the pieces, accumulated in one dict (trimmed once, by the constructor)."""
    out: dict[tuple[int, int, int], int] = {}
    get = out.get
    for c, x, dz, dlam, dmu, op in pieces:
        if op is None:
            for (z, a, b), v in x.terms.items():
                key = (z + dz, a + dlam, b + dmu)
                out[key] = get(key, 0) + c * v
            continue
        moves = {z: op(z, c) for z in {z for z, _, _ in x.terms}}
        for (z, a, b), v in x.terms.items():
            z, w = moves[z]
            key = (z + dz, a + dlam, b + dmu)
            out[key] = get(key, 0) + w * v
    return LaurentPoly(out)


class LaurentPoly:
    """Laurent polynomial in z over Z[lam, mu]: nonzero ``terms[z, lam, mu]``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int], int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def monomial(cls, c: int, z_pow: int = 0, lam_pow: int = 0, mu_pow: int = 0) -> "LaurentPoly":
        return cls({(z_pow, lam_pow, mu_pow): c})

    @classmethod
    def constant(cls, b: BivariateCoeff) -> "LaurentPoly":
        """``b`` as a polynomial of z-degree 0."""
        return cls({(0, lam, mu): v for (lam, mu), v in b.terms.items()})

    @property
    def coeffs(self) -> Mapping[int, BivariateCoeff]:
        """Read-only view of the terms by z-power: z -> BivariateCoeff."""
        by_z: dict[int, dict[tuple[int, int], int]] = {}
        for (z, a, b), v in self.terms.items():
            by_z.setdefault(z, {})[a, b] = v
        return MappingProxyType({z: BivariateCoeff(t) for z, t in by_z.items()})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_degree(self) -> int | None:
        return min(z for z, _, _ in self.terms) if self.terms else None

    @property
    def max_degree(self) -> int | None:
        return max(z for z, _, _ in self.terms) if self.terms else None

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return combine([Piece(1, self), Piece(1, other)])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return combine([Piece(1, self), Piece(-1, other)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def diff_z(self) -> "LaurentPoly":
        """Formal d/dz (exact on Laurent monomials)."""
        return combine([Piece(1, self, op=PRIME)])

    def at_one(self) -> BivariateCoeff:
        """Exact value at z = 1 (a bivariate polynomial in lam, mu)."""
        return combine([Piece(1, self, op=AT_ONE)]).coeffs.get(0, BivariateCoeff())

    def coeff_arrays(self, lam: float, mu: float) -> tuple[int, list[float]]:
        """(min_degree, dense ascending coefficient list) at numeric (lam, mu).

        Each coefficient is exact at the float point and rounded once.
        """
        if not self.terms:
            return 0, [0.0]
        coeffs = self.coeffs
        lo, hi = min(coeffs), max(coeffs)
        dense = [0.0] * (hi - lo + 1)
        for k, c in coeffs.items():
            dense[k - lo] = c.value_at(lam, mu)
        return lo, dense

    def _sorted_terms(self) -> list[tuple[tuple[int, int, int], int]]:
        # z-power ascending, then lam-power descending, then mu-power ascending
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], -kv[0][1], kv[0][2]))

    def canonical_text(self) -> str:
        """Deterministic text form.

        Monomials are ordered by z-power ascending, then lam-power descending,
        then mu-power ascending, so that e.g. ``lam + mu^2 - mu^2*z^2`` prints
        in the conventional order.
        """
        if self.is_zero():
            return "0"
        text = " ".join(_monomial_text(c, a, b, z) for (z, a, b), c in self._sorted_terms())
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def to_json_obj(self) -> list[list]:
        """Lossless JSON form: [[z_pow, lam_pow, mu_pow, coeff], ...] sorted."""
        return [[z_pow, a, b, c] for (z_pow, a, b), c in self._sorted_terms()]

    def __repr__(self) -> str:
        return f"LaurentPoly<{self.canonical_text()}>"


#: lam + mu^2, the combination cleared out of the parity identities.
LAM_PLUS_MUSQ = BivariateCoeff({(1, 0): 1, (0, 2): 1})
