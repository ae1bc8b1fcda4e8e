"""Exact Laurent polynomials in z with coefficients in Z[lam, mu].

A Laurent polynomial is two parallel arrays sorted by key: int64 keys that
pack the exponents ``(z, lam, mu)``, and the nonzero coefficients as int64
limb rows in radix 2**24, an ``(m, n)`` array whose column j holds the
coefficient sum_i limbs[i, j] * 2**(24 i) of key j.  Every limb but the top
one is in [0, 2**24), the top one is signed and below 2**23 in size, and
``m`` is the fewest limbs that hold every coefficient, so equal polynomials
have equal arrays.  A polynomial in (lam, mu) alone is a ``LaurentPoly``
whose terms all have z-power 0.  One accumulator, ``_collect``, does every
sum by key: a stable sort, then one ``np.add.reduceat`` over the runs of
equal keys on every limb row, then one carry pass and the zero sums dropped.
``combine_rows`` sums monomial multiples of polynomials (or of their
z-derivatives, reflections z -> -z and values at z = 1) for several rows at
once, with the row in the key, so one accumulation builds a whole recurrence
step or all residuals of an identity check.  It is also the one product:
``times`` writes ``y * x`` as one monomial multiple of ``x`` per term of
``y``; a factor past one limb is split into limbs and applied as a short
convolution of limb rows.  Every multiply and sum is on int64 under a bound
that ``_shifted_weighted`` checks before it forms a product, so no value
wraps; Python ints appear only where coefficients come in (``LaurentPoly``
from a dict, a piece's factor) and go out (``terms``, the text forms and
``coeff_arrays``).  No z-dependent polynomial is ever multiplied: the
recurrence layer's only products are of values at z = 1, in
``heunpoly.first_integral``.  Every identity check of the recurrence layer
uses this exact arithmetic, never floating point.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import groupby
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .errors import ExponentOutOfRange, LimbOverflow

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

# A coefficient is a column of int64 limbs in radix 2**_RADIX: the low limbs
# in [0, 2**_RADIX), the top limb signed in [-_HALF, _HALF).  A limb times a
# limb is below 2**48, so a 24-bit radix leaves 2**14 of int64 headroom for
# the sums of a convolution and of a run of equal keys; _LIMIT, with a factor
# 2 to spare for the carry pass, bounds every int64 formed before the carry
# (the derivation is in CHANGES.md).
_RADIX = 24
_DIGIT = (1 << _RADIX) - 1
_HALF = 1 << (_RADIX - 1)
_LIMIT = 1 << 62
#: The largest size of an operator's per-term multiplier: a z-power, which
#: the key field holds, plus at most as much again (``theta``).
_MULT = 2 * _BIAS


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


def _limbs(ints: Sequence[int]) -> np.ndarray:
    """The canonical ``(m, n)`` limb rows of Python ints."""
    if not ints:
        return np.zeros((1, 0), dtype=np.int64)
    bits = max(max(ints), ~min(ints)).bit_length() + 1  # two's complement width
    m, width = -(-bits // _RADIX), _RADIX // 8
    # each int as m limbs of little-endian two's complement bytes
    raw = b"".join(c.to_bytes(width * m, "little", signed=True) for c in ints)
    u = np.frombuffer(raw, dtype=np.uint8).reshape(-1, m, width).astype(np.int64)
    limbs = sum(u[..., i] << (8 * i) for i in range(width)).T
    return np.vstack((limbs[:-1], ((limbs[-1] + _HALF) & _DIGIT) - _HALF))


def _ints(limbs: np.ndarray) -> list[int]:
    """The Python ints of normalised limb rows.

    Two limbs join in int64 (48 bits).  Above that, the value is the signed
    high part (the limbs from the third up) times 2**48 plus the low 48
    bits: in int64 where the high part is below 2**14 in size, and in Python
    for the rest.
    """
    if len(limbs) <= 2:
        return (limbs[0] if len(limbs) == 1 else limbs[0] | limbs[1] << _RADIX).tolist()
    lo, shift = limbs[0] | limbs[1] << _RADIX, 2 * _RADIX
    if len(limbs) > 4:  # the high part passes int64: join every value in Python
        return [hi << shift | low for hi, low in zip(_ints(limbs[2:]), lo.tolist())]
    hi = limbs[2] if len(limbs) == 3 else limbs[2] | limbs[3] << _RADIX
    fits = abs(hi) < 1 << (63 - shift)
    out = ((hi * fits) << shift | lo).tolist()
    wide = (~fits).nonzero()[0]
    for i, high, low in zip(wide.tolist(), hi[wide].tolist(), lo[wide].tolist()):
        out[i] = high << shift | low
    return out


def _trim(limbs: np.ndarray) -> np.ndarray:
    """Normalised limb rows without the top limbs that only repeat the sign
    of the limb below them."""
    if len(limbs) == 1:
        return limbs
    rows = _trimmed(list(limbs))
    return limbs if len(rows) == len(limbs) else np.array(rows)


def _trimmed(rows: list) -> list:
    """``_trim`` on a list of limb rows, in place: each top row dropped while
    it only repeats the sign of the row below, which becomes the signed top."""
    while len(rows) > 1 and not (rows[-1] + (rows[-2] >> (_RADIX - 1))).any():
        rows.pop()
        rows[-1] = ((rows[-1] + _HALF) & _DIGIT) - _HALF
    return rows


def _carry(limbs: np.ndarray) -> np.ndarray:
    """The canonical limb rows of the same values, from limbs of any size
    below ``_LIMIT``: one pass up the list of limb rows, each keeping its low
    24 bits and carrying the rest up."""
    rows, carry = [], 0
    for row in limbs:
        row = row + carry
        rows.append(row & _DIGIT)
        carry = row >> _RADIX
    while (((carry >> (_RADIX - 1)) + 1) >> 1).any():  # a carry past one signed limb
        rows.append(carry & _DIGIT)
        carry = carry >> _RADIX
    rows.append(carry)
    return np.array(_trimmed(rows))


def _nonzero(keys: np.ndarray, limbs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys and canonical limbs of the nonzero sums among ``limbs``."""
    if len(limbs) == 1:
        top = np.abs(limbs[0]).max()
        if not top:  # all sums cancel, as in an identity check
            return keys[:0], limbs[:, :0]
        if top < _HALF:  # every sum is one signed limb already
            keep = limbs[0] != 0
            return keys[keep], limbs.compress(keep, axis=1)
    limbs = _carry(limbs)
    keep = limbs.any(axis=0)
    return keys[keep], limbs.compress(keep, axis=1)


def _collect(keys: np.ndarray, limbs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the limb columns over equal ``keys``: (ascending distinct keys,
    canonical limbs of the nonzero sums).

    The one accumulator of the package: a stable sort, one ``np.add.reduceat``
    over the runs of equal keys on every limb row, one carry pass, and the
    zero sums dropped.  Every limb sum must stay below ``_LIMIT``.
    """
    if not len(keys):
        return keys, limbs
    order = keys.argsort(kind="stable")
    keys, limbs = keys[order], limbs.take(order, axis=1)
    first = np.empty(len(keys), dtype=bool)  # each run's first key
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return _nonzero(keys[starts], np.add.reduceat(limbs, starts, axis=1))


#: Operators a piece may apply to its polynomial (d/dz, z -> -z, z -> 1): each
#: maps the int64 array of a polynomial's z-powers to the change of each
#: z-power and the integer multiplier of each term (each an int or an array).
PRIME, REFLECT, AT_ONE = (
    lambda z: (-1, z),
    lambda z: (0, 1 - 2 * (z & 1)),
    lambda z: (-z, 1),
)


def theta(c: int) -> Callable[[np.ndarray], tuple]:
    """The operator z d/dz + c: each term keeps its z-power k and is
    multiplied by k + c (|c| <= _BIAS, so the multiplier stays within _MULT)."""
    if abs(c) > _BIAS:
        raise ExponentOutOfRange(f"theta shift {c} is past the key field")
    return lambda z: (0, z + c)


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
    keys, limbs, shifts, factors, slack, spread = [], [], [], [], _BIAS, False
    mult, merged = 1, 0  # the largest multiplier size; terms that merge within a piece
    for row, pieces in enumerate(rows):
        base = row << _ROW
        for c, x, dz, dlam, dmu, op in pieces:
            k, v = x._keys, x._vals
            if not len(k):
                continue
            s, step = x._slack - abs(dlam) - abs(dmu), 0
            if op is not None:
                step, m = op(x._z())
                if isinstance(step, int):
                    dz, step = dz + step, 0
                else:  # each term's z-power moves by its own step, so terms may merge
                    s -= int(abs(step).max())
                    k, spread, merged = k + (step << _Z), True, merged + len(k) - 1
                if isinstance(m, int):
                    c *= m
                else:  # |m| <= _MULT, so the limbs stay far inside int64
                    v, mult = v * m, _MULT
            s -= abs(dz)
            if s < 0:  # the slack may be loose: move the exact range
                (zlo, llo, mlo), (zhi, lhi, mhi) = x._range(step)
                s = _fit((zlo + dz, llo + dlam, mlo + dmu), (zhi + dz, lhi + dlam, mhi + dmu))
            if s < slack:
                slack = s
            keys.append(k)
            limbs.append(v)
            shifts.append(base + _shift(dz, dlam, dmu))
            factors.append(c)
    if not keys:
        return [LaurentPoly() for _ in rows]
    # one key sums at most one term of each piece, or all of a piece's merged terms
    keys, limbs = _shifted_weighted(keys, limbs, shifts, factors, mult, len(factors) + merged)
    if len(shifts) > 1 or spread:
        keys, limbs = _collect(keys, limbs)
    else:  # one piece moved as a whole: its keys stay sorted and distinct
        keys, limbs = _nonzero(keys, limbs)
    if len(rows) == 1:
        return [LaurentPoly._from_arrays(keys, limbs, slack)]
    cuts = [0, *keys.searchsorted([row << _ROW for row in range(1, len(rows))]).tolist(), len(keys)]
    keys = keys & _IN_ROW
    return [LaurentPoly._from_arrays(keys[a:b], _trim(limbs[:, a:b]), slack)
            for a, b in zip(cuts, cuts[1:])]


def _shifted_weighted(keys: list, limbs: list, shifts: list[int], factors: list[int],
                      mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """All pieces' keys plus their shifts, and their limbs times their
    factors, each concatenated.

    The limbs are below ``_DIGIT * mult`` in size.  A factor of one limb
    multiplies them once; past that, every factor is split into limbs and
    the product is their convolution with the piece's limbs.  Before a
    product is formed, its limbs times ``count``, the most summands that
    ``_collect`` adds for one key, are bounded below ``_LIMIT``; where a
    bound fails, the operand or the products are carried first, and where
    even that cannot hold it, LimbOverflow is raised.
    """
    sizes = [len(k) for k in keys]
    try:
        x = np.concatenate(limbs, axis=1)
    except ValueError:  # pieces of different widths: zero limbs on the narrower
        width = max(map(len, limbs))
        x = np.concatenate([v if len(v) == width else np.vstack(
            (v, np.zeros((width - len(v), v.shape[1]), dtype=np.int64))) for v in limbs], axis=1)
    width = len(x)
    lo, hi = min(factors), max(factors)
    if -_DIGIT <= lo and hi <= _DIGIT:
        shift, digits = np.repeat(np.array([shifts, factors], dtype=np.int64), sizes, axis=1)
        digits, size = digits[None], max(-lo, hi)
    else:
        shift = np.repeat(np.array(shifts, dtype=np.int64), sizes)
        digits, size = np.repeat(_limbs(factors), sizes, axis=1), _DIGIT
    limb = _DIGIT * mult
    if limb * size * min(width, len(digits)) >= _LIMIT:
        x, limb = _carry(x), _DIGIT
        width = len(x)
    bound = limb * size * min(width, len(digits))
    if bound >= _LIMIT:
        raise LimbOverflow(f"a product of {width} by {len(digits)} limbs does not fit int64")
    if len(digits) == 1:
        product = x if lo == hi == 1 else np.multiply(x, digits[0], out=x)
    else:  # the convolution of each term's limbs with its factor's
        product = np.array([
            sum(x[i] * digits[k - i] for i in range(max(0, k - len(digits) + 1), min(width, k + 1)))
            for k in range(width + len(digits) - 1)
        ])
    if bound * count >= _LIMIT:
        product, bound = _carry(product), _DIGIT
        if bound * count >= _LIMIT:
            raise LimbOverflow(f"{count} summands of one key do not fit int64")
    keys = np.concatenate(keys)
    return np.add(keys, shift, out=keys), product


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
    stored as ascending packed keys and the canonical limb rows of their
    coefficients."""

    __slots__ = ("_keys", "_vals", "_zs", "_slack", "_decoded")

    def __init__(self, terms: Mapping[tuple[int, int, int], int] | None = None):
        terms = terms or {}
        self._zs, self._slack, self._decoded = None, _BIAS, None
        if terms:
            powers = list(zip(*terms))
            self._slack = _fit(tuple(map(min, powers)), tuple(map(max, powers)))
        z, lam, mu = np.array(list(terms), dtype=np.int64).reshape(-1, 3).T
        keys = _ORIGIN + _shift(z, lam, mu)
        self._keys, self._vals = _collect(keys, _limbs(list(terms.values())))

    @classmethod
    def _from_arrays(cls, keys: np.ndarray, vals: np.ndarray, slack: int) -> "LaurentPoly":
        """Wrap sorted distinct row-0 keys and the canonical limbs of their
        nonzero coefficients.

        ``slack`` is at most how far every exponent stays inside its key
        field (a sum's is the least of its pieces', so it may be loose).
        """
        poly = cls.__new__(cls)
        poly._keys, poly._vals, poly._zs, poly._slack, poly._decoded = keys, vals, None, slack, None
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
                self._keys[a:b] - (int(zs[a]) << _Z), _trim(self._vals[:, a:b]), self._slack)
            for a, b in zip(starts, starts[1:] + [len(zs)])
        })

    def is_zero(self) -> bool:
        return not len(self._keys)

    @property
    def min_degree(self) -> int | None:
        return (int(self._keys[0]) >> _Z) - _BIAS if len(self._keys) else None

    @property
    def max_degree(self) -> int | None:
        return (int(self._keys[-1]) >> _Z) - _BIAS if len(self._keys) else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return np.array_equal(self._keys, other._keys) and np.array_equal(self._vals, other._vals)

    def coeff_arrays(self, lam: float, mu: float
                     ) -> tuple[tuple[int, list[float]], tuple[int, list[float]]]:
        """(min_degree, dense ascending coefficient list) at numeric (lam, mu)
        of the polynomial and of its z-derivative.

        Each z-power's coefficient is summed exactly once, as an integer over
        one common denominator, and serves both: the z**(k-1) coefficient of
        the derivative is k times the z**k one.  Each value is then rounded
        once (int / int rounds correctly), so none depends on the term order.
        """
        (nl, dl), (nm, dm) = lam.as_integer_ratio(), mu.as_integer_ratio()
        _, lams, mus, _ = self._decode()
        top_a, top_b = max(lams, default=0), max(mus, default=0)
        # every term over the common denominator dl**top_a * dm**top_b
        lam_pows = [nl**a * dl ** (top_a - a) for a in range(top_a + 1)]
        mu_pows = [nm**b * dm ** (top_b - b) for b in range(top_b + 1)]
        den = dl**top_a * dm**top_b
        # each run of one lam-power in a z-power (the canonical order keeps
        # them together) is one product by that power
        nums = {z: sum(lam_pows[a] * sum(c * mu_pows[b] for _, _, b, c in run)
                       for a, run in groupby(terms, key=itemgetter(1)))
                for z, terms in groupby(self._rows(), key=itemgetter(0))}
        arrays = []
        # a z**0 row has no derivative, so the derivative's lowest power is
        # the lowest nonzero one less one
        for values in (nums, {z - 1: z * n for z, n in nums.items() if z}):
            lo, hi = min(values, default=0), max(values, default=0)
            arrays.append((lo, [values.get(z, 0) / den for z in range(lo, hi + 1)]))
        return tuple(arrays)

    def _rows(self) -> Iterable[tuple[int, int, int, int]]:
        """(z, lam, mu, coeff) of each term, in canonical order: z-power
        ascending, then lam-power descending, then mu-power ascending."""
        return zip(*self._decode())

    def _decode(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The z, lam and mu exponents and the coefficients as Python ints, in
        canonical order: the one decode of every read-out, done once, as a
        polynomial never changes."""
        if self._decoded is None:
            self._decoded = (*self._exponents().tolist(), _ints(self._vals))
        return self._decoded

    def canonical_text(self) -> str:
        """Deterministic text form.

        Monomials are ordered by z-power ascending, then lam-power descending,
        then mu-power ascending, so that e.g. ``lam + mu^2 - mu^2*z^2`` prints
        in the conventional order.  A unit coefficient is written only alone."""
        if self.is_zero():
            return "0"
        zs, lams, mus, coeffs = self._decode()
        coeffs = list(map(str, coeffs))
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
