"""Exact Laurent polynomials in z with coefficients in Z[lam, mu].

A Laurent polynomial is two parallel arrays sorted by key: int64 keys that
pack the exponents ``(z, lam, mu)``, and the nonzero coefficients as Python
ints in an object array, so they stay exact at any size.  A polynomial in
(lam, mu) alone is a ``LaurentPoly`` whose terms all have z-power 0.  One
accumulator, ``_collect``, does every sum by key: a stable sort, then one
``np.add.reduceat`` over the runs of equal keys, then the zero sums dropped.
``combine_rows`` sums monomial multiples of polynomials (or of their
z-derivatives, reflections z -> -z and values at z = 1) for several rows at
once, with the row in the key, so one accumulation builds a whole recurrence
step or all residuals of an identity check.  It is also the one product:
``times`` writes ``y * x`` as one monomial multiple of ``x`` per term of
``y``.  No z-dependent polynomial is ever multiplied: the recurrence layer's
only products are of values at z = 1, in ``heunpoly.first_integral``.  Every
identity check of the recurrence layer uses this exact arithmetic, never
floating point.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import groupby
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .errors import ExponentOutOfRange

# A key packs (row, z, lam, mu) into bit fields of one int64, most
# significant first: keys sort by row, then z ascending, lam descending and mu
# ascending, which is the canonical term order.  Each exponent e is stored as
# e + _BIAS (lam as ~(lam + _BIAS) in the field), so the packing is affine
# and a monomial shift is the addition of one packed difference.
_FIELD = 16
_MASK = (1 << _FIELD) - 1
_BIAS = 1 << (_FIELD - 1)
_Z, _LAM, _ROW = 2 * _FIELD, _FIELD, 3 * _FIELD
_FIELDS = np.array([[_Z], [_LAM], [0]])  # the z, lam and mu shifts, as a column
_MAX_ROWS = 1 << (63 - _ROW)
_IN_ROW = (1 << _ROW) - 1  # the exponent fields of a key
_INT64 = 1 << 63


def _fit(lo: tuple[int, int, int], hi: tuple[int, int, int]) -> int:
    """How far the (z, lam, mu) exponents ``lo..hi`` stay inside their key
    fields: each can move that far and still fit.  Raises ExponentOutOfRange
    unless they fit."""
    for name, a, b in zip(("z", "lam", "mu"), lo, hi):
        if a < -_BIAS or b >= _BIAS:
            raise ExponentOutOfRange(
                f"{name} exponents {a}..{b} do not fit the key field {-_BIAS}..{_BIAS - 1}"
            )
    return min(min(lo) + _BIAS, _BIAS - 1 - max(hi))


def _shift(dz, dlam, dmu):
    """The packed difference of a multiplication by z**dz * lam**dlam * mu**dmu
    (ints or int64 arrays); ``_ORIGIN + _shift(z, lam, mu)`` is the key of a term."""
    return (dz << _Z) - (dlam << _LAM) + dmu


#: The key of the exponents (0, 0, 0) in row 0.
_ORIGIN = (_BIAS << _Z) + ((_MASK - _BIAS) << _LAM) + _BIAS


def _collect(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``vals`` over equal ``keys``: (ascending distinct keys, nonzero sums).

    The one accumulator of the package: a stable sort, one ``np.add.reduceat``
    over the runs of equal keys, and the zero sums dropped.
    """
    if not len(keys):
        return keys, vals
    order = keys.argsort(kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.empty(len(keys), dtype=bool)  # each run's first key
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = first.nonzero()[0]
    sums = np.add.reduceat(vals, starts)
    keep = sums != 0
    return keys[starts[keep]], sums[keep]


def _values_at(polys: list[list[tuple[int, int, int]]], lam: float, mu: float) -> list[float]:
    """Value at a float point of each polynomial in (lam, mu), given as
    ``(lam_pow, mu_pow, coeff)`` terms: exact and rounded once, so free of the
    term order and of which polynomials are evaluated together."""
    (nl, dl), (nm, dm) = lam.as_integer_ratio(), mu.as_integer_ratio()
    top_a = max(a for terms in polys for a, _, _ in terms)
    top_b = max(b for terms in polys for _, b, _ in terms)
    # every term over the common denominator dl**top_a * dm**top_b
    lam_pows = [nl**a * dl ** (top_a - a) for a in range(top_a + 1)]
    mu_pows = [nm**b * dm ** (top_b - b) for b in range(top_b + 1)]
    den = dl**top_a * dm**top_b
    # int / int rounds correctly
    return [sum(c * lam_pows[a] * mu_pows[b] for a, b, c in terms) / den for terms in polys]


#: Operators a piece may apply to its polynomial (d/dz, z -> -z, z -> 1): each
#: maps the int64 array of a polynomial's z-powers to the change of each
#: z-power and the integer multiplier of each term (each an int or an array).
PRIME, REFLECT, AT_ONE = (
    lambda z: (-1, z),
    lambda z: (0, 1 - 2 * (z & 1)),
    lambda z: (-z, 1),
)


class Piece(NamedTuple):
    """The summand ``c * z**dz * lam**dlam * mu**dmu * op(x)`` of a row of ``combine_rows``."""

    c: int
    x: "LaurentPoly"
    dz: int = 0
    dlam: int = 0
    dmu: int = 0
    op: Callable[[np.ndarray], tuple] | None = None


def combine_rows(rows: Sequence[Iterable[Piece]]) -> list["LaurentPoly"]:
    """Exact sum of the pieces of each row, all rows in one ``_collect``.

    Every piece's keys move by one packed shift, with the row index in the
    top field, so the numpy work is a few calls over all pieces at once.  The
    sorted sums split into the rows at their first keys.  No exponent is
    packed before it is known to fit.
    """
    if len(rows) > _MAX_ROWS:
        raise ExponentOutOfRange(f"{len(rows)} rows do not fit the key's row field")
    keys, vals, shifts, factors, slack, spread = [], [], [], [], _BIAS, False
    for row, pieces in enumerate(rows):
        for c, x, dz, dlam, dmu, op in pieces:
            k, v = x._keys, x._vals
            if not len(k):
                continue
            s, step = x._slack - abs(dlam) - abs(dmu), 0
            if op is not None:
                step, m = op(x._z())
                if isinstance(step, int):
                    dz, step = dz + step, 0
                else:  # each term's z-power moves by its own step
                    s -= int(abs(step).max())
                    k, spread = k + (step << _Z), True
                if isinstance(m, int):
                    c *= m
                else:  # |m| <= 2**_FIELD, so an int64 multiplier is exact
                    v = v * m
            s -= abs(dz)
            if s < 0:  # the slack may be loose: move the exact range
                (zlo, llo, mlo), (zhi, lhi, mhi) = x._range(step)
                s = _fit((zlo + dz, llo + dlam, mlo + dmu), (zhi + dz, lhi + dlam, mhi + dmu))
            if s < slack:
                slack = s
            keys.append(k)
            vals.append(v)
            shifts.append((row << _ROW) + _shift(dz, dlam, dmu))
            factors.append(c)
    if not keys:
        return [LaurentPoly() for _ in rows]
    keys, vals = _shifted_weighted(keys, vals, shifts, factors)
    if len(shifts) > 1 or spread:
        keys, vals = _collect(keys, vals)
    else:  # one piece moved as a whole: its keys stay sorted and distinct
        keep = vals != 0
        keys, vals = keys[keep], vals[keep]
    if len(rows) == 1:
        return [LaurentPoly._from_arrays(keys, vals, slack)]
    cuts = [0, *keys.searchsorted([row << _ROW for row in range(1, len(rows))]).tolist(), len(keys)]
    keys = keys & _IN_ROW
    return [LaurentPoly._from_arrays(keys[a:b], vals[a:b], slack) for a, b in zip(cuts, cuts[1:])]


def _shifted_weighted(keys: list, vals: list, shifts: list[int], factors: list[int]):
    """All pieces' keys plus their shifts and coefficients times their factors,
    each concatenated.  The factors are int64 while they fit, and then a
    coefficient with factor 1 is kept, not multiplied; past int64 they are
    Python ints, all multiplied, as a mask would cost more than it saves."""
    if len(keys) == 1:
        return keys[0] + shifts[0], vals[0] * factors[0] if factors[0] != 1 else vals[0]
    sizes = [len(k) for k in keys]
    keys, vals = np.concatenate(keys), np.concatenate(vals)
    if -_INT64 <= min(factors) and max(factors) < _INT64:
        shifts, factors = np.repeat(np.array([shifts, factors], dtype=np.int64), sizes, axis=1)
        return keys + shifts, np.multiply(vals, factors, out=vals, where=factors != 1)
    shifts = np.repeat(np.array(shifts, dtype=np.int64), sizes)
    factors = np.repeat(np.array(factors, dtype=object), sizes)
    return keys + shifts, np.multiply(vals, factors, out=vals)


def combine(pieces: Iterable[Piece]) -> "LaurentPoly":
    """Exact sum of the pieces: the one-row form of ``combine_rows``."""
    return combine_rows([pieces])[0]


def times(c: int, y: "LaurentPoly", x: "LaurentPoly", dz: int = 0, dmu: int = 0,
          op: Callable | None = None) -> list[Piece]:
    """The pieces of ``c * y * z**dz * mu**dmu * op(x)``, one per term of ``y``.

    The one form of a product: ``combine_rows`` sums the pieces, and its shift
    guard refuses a product whose exponents do not fit their key fields.
    Take ``y`` as the factor with fewer terms.
    """
    return [Piece(c * v, x, dz + k, a, dmu + b, op) for k, a, b, v in y._rows()]


class LaurentPoly:
    """Laurent polynomial in z over Z[lam, mu]: nonzero ``terms[z, lam, mu]``,
    stored as ascending packed keys and their Python-int coefficients."""

    __slots__ = ("_keys", "_vals", "_zs", "_slack")

    def __init__(self, terms: Mapping[tuple[int, int, int], int] | None = None):
        terms = terms or {}
        self._zs, self._slack = None, _BIAS
        if terms:
            powers = list(zip(*terms))
            self._slack = _fit(tuple(map(min, powers)), tuple(map(max, powers)))
        z, lam, mu = np.array(list(terms), dtype=np.int64).reshape(-1, 3).T
        keys = _ORIGIN + _shift(z, lam, mu)
        vals = np.fromiter(terms.values(), dtype=object, count=len(terms))
        self._keys, self._vals = _collect(keys, vals)

    @classmethod
    def _from_arrays(cls, keys: np.ndarray, vals: np.ndarray, slack: int) -> "LaurentPoly":
        """Wrap sorted distinct row-0 keys and their nonzero coefficients.

        ``slack`` is at most how far every exponent stays inside its key
        field (a sum's is the least of its pieces', so it may be loose).
        """
        poly = cls.__new__(cls)
        poly._keys, poly._vals, poly._zs, poly._slack = keys, vals, None, slack
        return poly

    def _exponents(self) -> np.ndarray:
        """The (3, n) array of the z, lam and mu exponents, in key order."""
        exps = ((self._keys >> _FIELDS) & _MASK) - _BIAS
        np.invert(exps[1], out=exps[1])  # lam is stored as ~lam
        return exps

    def _z(self) -> np.ndarray:
        """The z exponents, in key order, so ascending (computed once)."""
        if self._zs is None:
            self._zs = (self._keys >> _Z) - _BIAS  # the row field of a stored key is 0
        return self._zs

    def _range(self, step) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """The least and greatest (z, lam, mu) exponents once each z-power
        moves by ``step`` (an int, or one per term)."""
        z, lam, mu = self._exponents()
        z = z + step
        return ((int(z.min()), int(lam.min()), int(mu.min())),
                (int(z.max()), int(lam.max()), int(mu.max())))

    @property
    def terms(self) -> dict[tuple[int, int, int], int]:
        """The terms as a ``{(z, lam, mu): int}`` dict, in canonical order."""
        return {(z, a, b): c for z, a, b, c in self._rows()}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def monomial(cls, c: int, z_pow: int = 0, lam_pow: int = 0, mu_pow: int = 0) -> "LaurentPoly":
        return cls({(z_pow, lam_pow, mu_pow): c})

    @property
    def coeffs(self) -> Mapping[int, "LaurentPoly"]:
        """Read-only view of the terms by z-power: z -> the coefficient, a
        polynomial in (lam, mu) whose terms all have z-power 0.  Each is a
        slice of the arrays with its z-power taken off the keys."""
        zs = self._z()
        # the index of each z-power's first term
        starts = np.flatnonzero(np.diff(zs, prepend=zs[:1] - 1)).tolist()
        return MappingProxyType({
            int(zs[a]): LaurentPoly._from_arrays(
                self._keys[a:b] - (int(zs[a]) << _Z), self._vals[a:b], self._slack)
            for a, b in zip(starts, starts[1:] + [len(zs)])
        })

    def is_zero(self) -> bool:
        return not len(self._keys)

    @property
    def min_degree(self) -> int | None:
        return int(self._z()[0]) if len(self._keys) else None

    @property
    def max_degree(self) -> int | None:
        return int(self._z()[-1]) if len(self._keys) else None

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return combine([Piece(1, self), Piece(1, other)])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return combine([Piece(1, self), Piece(-1, other)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return np.array_equal(self._keys, other._keys) and bool((self._vals == other._vals).all())

    def coeff_arrays(self, lam: float, mu: float) -> tuple[int, list[float]]:
        """(min_degree, dense ascending coefficient list) at numeric (lam, mu).

        Each coefficient is exact at the float point and rounded once.
        """
        if self.is_zero():
            return 0, [0.0]
        by_z = [(z, [(a, b, c) for _, a, b, c in terms])
                for z, terms in groupby(self._rows(), key=itemgetter(0))]
        lo, hi = by_z[0][0], by_z[-1][0]
        dense = [0.0] * (hi - lo + 1)
        for (z, _), value in zip(by_z, _values_at([terms for _, terms in by_z], lam, mu)):
            dense[z - lo] = value
        return lo, dense

    def _rows(self) -> Iterable[tuple[int, int, int, int]]:
        """(z, lam, mu, coeff) of each term, in canonical order: z-power
        ascending, then lam-power descending, then mu-power ascending."""
        return zip(*self._exponents().tolist(), self._vals.tolist())

    def _decode(self) -> tuple[list[int], list[int], list[int], list[str]]:
        """The z, lam and mu exponents and the coefficients' decimal texts, in
        canonical order: the one decode of both output forms."""
        z, lam, mu = self._exponents().tolist()
        return z, lam, mu, list(map(str, self._vals.tolist()))

    def canonical_text(self) -> str:
        """Deterministic text form.

        Monomials are ordered by z-power ascending, then lam-power descending,
        then mu-power ascending, so that e.g. ``lam + mu^2 - mu^2*z^2`` prints
        in the conventional order.  A unit coefficient is written only alone."""
        if self.is_zero():
            return "0"
        zs, lams, mus, coeffs = self._decode()
        # each power's factor text, with its leading "*" ("" for power 0)
        lam_t, mu_t, z_t = (
            {p: "" if p == 0 else f"*{name}" if p == 1 else f"*{name}^{p}"
             for p in range(min(ps), max(ps) + 1)}
            for name, ps in (("lam", lams), ("mu", mus), ("z", zs))
        )
        parts = []
        for c, a, b, k in zip(coeffs, lams, mus, zs):
            f = lam_t[a] + mu_t[b] + z_t[k]
            sign, mag = ("- ", c[1:]) if c[0] == "-" else ("+ ", c)
            parts.append(sign + (f[1:] if mag == "1" and f else mag + f))
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def json_text(self) -> str:
        """Lossless JSON text ``[[z_pow, lam_pow, mu_pow, coeff], ...]`` in
        canonical order, with the canonical ``", "`` separators."""
        return "[" + ", ".join(f"[{k}, {a}, {b}, {c}]" for k, a, b, c in zip(*self._decode())) + "]"

    def __repr__(self) -> str:
        return f"LaurentPoly<{self.canonical_text()}>"


#: lam + mu^2, the combination cleared out of the parity identities.
LAM_PLUS_MUSQ = LaurentPoly({(0, 1, 0): 1, (0, 0, 2): 1})
