"""The 10-point Gauss-Legendre rule on [-1, 1], its Legendre helpers,
10-node Gauss collocation of linear systems y' = M(t) y, and the one type of
dense output, ``Rows``.

The program has three linear systems: the phase path's (``phase``), the
Riccati continuation off the circle (``circle``), and the P_B panel table
(``sqrtmono``).  Each enters through one entry point, ``collocate``, which
keeps the chained rows of a linear pair as ``Rows``, the one dense output;
the three differ only in the matrices they give it.
Behind it, one table serves the one collocation kernel,
``row_propagators``, and one chain, ``chain``, carries a linear pair across
a block of row propagators, rescaled by an exact power of two: the one
place of the program that rescales.  No other module calls either.

A *conjugate pair* is a solution (u, conj u) of y' = M y with
M = [[alpha, beta], [conj beta, conj alpha]].  Such a system also solves
(conj v, conj u) with (u, v), and every rounding of the kernel and the
chain commutes with conjugation, so v = conj u holds bit for bit and u
alone carries the pair: from M's first row the kernel forms the first rows
of the propagators, the chain steps u <- r00 u + r01 conj u, and the rows
store u.  The phase path (alpha = -i b/2, beta = 1/2) is a conjugate pair;
the continuation off the circle and the panel table give the whole M.  One
Picard loop, one chain and one collocation serve both:
only the node product (``_node_product``) and the chain step differ,
selected by the number of rows of M.  With the whole M, one collocation
carries any number of pairs of the one system, y = (u1, v1, u2, v2, ...):
the row propagators are collocated once, and the chain steps every pair
with them under one shared exponent (the continuation's two routes).

Only this module knows the row format, y' in powers of the row fraction,
and which components are stored: ``Rows`` reads it pointwise (``values``,
``slopes``) or a block of rows at fixed fractions (``at_fractions``), and a
call gives y, conj u included, or integrates the phase rows' conj(u)^2
into the circle's theta pair (``conj_square_quadrature``).  One row rule,
``uniform_rows``, sizes the phase rows, the panel table and the one leg of
each continuation: each caller states its own bound on ||M||_inf, the rule
takes the fewest rows with |h| * rate <= ROW_RATE, and it is the one place
that refuses a span with StepCeilingExceeded.  The nodes and weights are
literals rather than Golub-Welsch, and every product over nodes or
coefficients is a two-operand einsum: the program makes no BLAS or LAPACK
call, whose first call keeps about 1 MB for the whole run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import ceil, comb, frexp, ldexp

import numpy as np

from .errors import NotConverged, StepCeilingExceeded

EPS = sys.float_info.epsilon

#: Positive nodes and their weights (Abramowitz & Stegun, table 25.4).
_POSITIVE = np.array([
    (0.1488743389816312108848260, 0.2955242247147528701738930),
    (0.4333953941292471907992659, 0.2692667193099963550912269),
    (0.6794095682990244062343274, 0.2190863625159820439955349),
    (0.8650633666889845107320967, 0.1494513491505805931457763),
    (0.9739065285171717200779640, 0.0666713443086881375935688),
])
X = np.concatenate((-_POSITIVE[::-1, 0], _POSITIVE[:, 0]))
W = np.concatenate((_POSITIVE[::-1, 1], _POSITIVE[:, 1]))
NODES = len(X)


def legendre(x: np.ndarray, n: int) -> np.ndarray:
    """(n + 1, len(x)) values P_0..P_n from the three-term recurrence."""
    P = np.empty((n + 1,) + x.shape)
    P[0] = 1.0
    P[1] = x
    for k in range(1, n):
        P[k + 1] = ((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1)
    return P


def legendre_integrals(x: np.ndarray) -> np.ndarray:
    """(NODES, len(x)) integrals int_{-1}^x P_k for k < NODES: with P_-1 = -1,
    (P_{k+1}(x) - P_{k-1}(x)) / (2k + 1), exactly 0 at x = -1 (Trefethen,
    *ATAP*, ch. 19)."""
    P = np.concatenate((-np.ones((1,) + x.shape), legendre(x, NODES)))
    return (P[2:] - P[:-2]) / (2.0 * np.arange(NODES) + 1.0)[:, None]


#: (node, k): the Legendre coefficients c_k = (2k + 1)/2 sum_j w_j f(x_j) P_k(x_j)
#: of the interpolant of node values f(x_j), exact for that interpolant.
PROJECTION = (W * legendre(X, NODES - 1)).T * (np.arange(NODES) + 0.5)

#: (node j, node i): int_{-1}^{x_i} of the interpolant of node values f(x_j)
#: is sum_j f(x_j) * CUMULATIVE[j, i].  einsum, not @: a BLAS call at import
#: would raise the peak memory of every run, poly-only runs too.
CUMULATIVE = np.einsum("jk,ki->ji", PROJECTION, legendre_integrals(X))

#: (k, i): P_k(2s - 1) = sum_i SHIFTED[k, i] s^i in the fraction
#: s = (x + 1)/2 of the interval, SHIFTED[k, i] = (-1)^(k + i) C(k, i) C(k + i, i),
#: exact integers.  Legendre coefficients that decay convert to powers of s
#: without cancellation; node values, through a rounded product of this
#: with PROJECTION, would not.
SHIFTED = np.array([[(-1) ** (k + i) * comb(k, i) * comb(k + i, i) for i in range(NODES)]
                    for k in range(NODES)], dtype=float)


# ---------------------------------------------------------------------------
# Gauss collocation of y' = M(t) y (Hairer, Norsett & Wanner, *Solving ODEs
# I*, Sec. II.7)
# ---------------------------------------------------------------------------

#: The largest |h| * rate a row may take, where rate bounds ||M||_inf (in the
#: row's own variable) over the row: each Picard sweep then contracts by
#: q <= 0.24 * 0.98695 = 0.2369 (||a_ij||_inf = 0.98695), and the local
#: error, about (h rate)^21 times 5.7e-31 = 5.5e-44 at the row end, stays far
#: below rounding.  Picard sweeps per unit of time go like
#: ln(1/(4 eps)) / (q ln(1/q)), least at q = 1/e; this q is within 8% of
#: that least cost, and its worst case, 25 sweeps, stays well under
#: PICARD_MAX_SWEEPS (derived in CHANGES.md).
ROW_RATE = 0.24
#: Row ceiling of one span: a span that needs more rows than this is refused
#: before anything is allocated (``uniform_rows``).
MAX_STEPS = 100_000
#: Rows collocated together, so a block's node arrays stay at 82 kB however
#: long the window (the phase's forward side at omega = 0.004 has 14.7k).
BLOCK_ROWS = 128
#: Picard sweeps per block before the collocation gives up.  Each sweep
#: contracts by at most q = 0.2369, so a sweep moves no entry by more than
#: q^k after k of them, and 25 always settle (CHANGES.md); 2 to 12 is usual.
PICARD_MAX_SWEEPS = 40

#: The nodes as fractions of a row [t_old, t_old + h]; the stage matrix a_ij
#: and the weights b_j in units of h.
NODE_FRACTIONS = 0.5 * (X + 1.0)
_A = 0.5 * CUMULATIVE.T
_B = 0.5 * W[None]
_EYE = np.eye(2)[:, :, None]


def uniform_rows(span: float, rate: float, what: str) -> tuple[int, float]:
    """The row rule of every collocation: the fewest uniform rows n over a
    signed span, and their signed width h = span / n, with |h| * rate <=
    ROW_RATE, where rate > 0 bounds ||M||_inf (in the span's own variable)
    over the span.  A span that needs more than MAX_STEPS rows raises
    StepCeilingExceeded, naming ``what``; the product is compared before any
    division, so a rate of inf or NaN is refused too."""
    if not abs(span) * rate <= MAX_STEPS * ROW_RATE:
        raise StepCeilingExceeded(f"{what} needs more than {MAX_STEPS} rows "
                                  f"of at most {ROW_RATE / rate:.3g}")
    n = max(1, ceil(abs(span) * rate / ROW_RATE))
    return n, span / n


def node_sum(C: np.ndarray, G: np.ndarray) -> np.ndarray:
    """sum_j C[i, j] G[j] over the leading (node) axis of a complex array, as
    one real 2-D einsum: numpy's fast path, and no BLAS call."""
    out = np.einsum("ij,jk->ik", C, G.view(float).reshape(len(G), -1))
    return out.reshape((len(C),) + G.shape[1:-1] + (2 * G.shape[-1],)).view(complex)


def _node_product(M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """M Y at the nodes, for M (..., m, 2, n) and Y (..., m, c, n), row by
    row.  With m = 2 both are whole.  With m = 1 they are the first rows of a
    conjugate pair's: M = [[alpha, beta], [conj beta, conj alpha]], and Y's
    second row is the conjugate of its first in reverse column order, conj u
    for a solution (u, conj u) and (conj U_01, conj U_00) for its
    propagators."""
    second = Y[:, 1] if len(Y[0]) == 2 else Y[:, 0, ::-1].conj()
    return M[:, :, 0, None] * Y[:, None, 0] + M[:, :, 1, None] * second[:, None]


def row_propagators(M: np.ndarray, h):
    """Collocate y' = M y on n rows of signed widths h, with M (NODES, m, 2, n)
    at the nodes: the whole matrix (m = 2) or a conjugate pair's first row
    (m = 1, see ``_node_product``).  Returns the same rows of M U at the
    nodes (NODES, m, 2, n), for the node propagators U from the row start,
    and of the row propagators (m, 2, n).  U solves
    U_i = I + h sum_j a_ij M_j U_j by Picard sweeps from U = I, stopped when
    a sweep moves no entry by more than 4 ulps of 1, or after
    PICARD_MAX_SWEEPS sweeps with NotConverged."""
    eye = _EYE[:len(M[0])]
    U = np.broadcast_to(eye, M.shape)
    for _ in range(PICARD_MAX_SWEEPS):
        G = _node_product(M, U)
        U_next = eye + h * node_sum(_A, G)
        change = np.max(np.abs(U_next - U))
        U = U_next
        if change <= 4 * EPS:  # a NaN never settles
            return G, eye + h * node_sum(_B, G)[0]
    raise NotConverged(f"Gauss collocation: Picard sweeps still moved by {change:.3e} "
                       f"after {PICARD_MAX_SWEEPS}")


def chain(R: np.ndarray, y: tuple[complex, ...], e: int):
    """Carry 2^e y across one block's row propagators R (m, 2, n): with the
    whole R, y = (u1, v1, u2, v2, ...) holds one or more pairs of the one
    system, each stepped by the same R; with R's first row, y = (u,) is the
    conjugate pair (u, conj u).

    The components are first rescaled together by one exact power of two,
    so that their largest modulus lies in [1/2, 1) (``frexp``), and then
    carried as y_{k+1} = R_k y_k in Python floats.  Returns the n row starts
    as mantissas (n, len(y)), the end and their one exponent e': row k
    starts from 2^e' starts[k].  Scaling by 2^e' commutes with every rounding
    that neither under- nor overflows, so a ratio of two components, or a
    value formed from the mantissas and then scaled, keeps every bit, and a
    pair carried beside others keeps the bits it has alone.
    """
    shift = frexp(max(abs(c) for c in y))[1]
    y = tuple(complex(ldexp(c.real, -shift), ldexp(c.imag, -shift)) for c in y)
    starts = []
    if len(R) == 1:
        (a,) = y
        for r00, r01 in R[0].T.tolist():
            starts.append(a)
            a = r00 * a + r01 * a.conjugate()
        y = (a,)
    else:
        pairs = list(zip(y[::2], y[1::2]))
        for (r00, r01), (r10, r11) in R.transpose(2, 0, 1).tolist():
            starts.append(pairs)
            pairs = [(r00 * a + r01 * b, r10 * a + r11 * b) for a, b in pairs]
        y = tuple(c for pair in pairs for c in pair)
    return np.array(starts).reshape(-1, len(y)), y, e + shift


def collocate(matrices, ts: np.ndarray, h: float, y: tuple[complex, ...]) -> "Rows":
    """The rows of a linear system y' = M y from y at ts[0], on the rows of
    signed width h with edges ts, collocated block by block: ``matrices(blk)``
    gives M at the nodes of the rows ``blk`` (a slice) as (NODES, m, 2, rows).
    With the whole M (m = 2), y = (u1, v1, u2, v2, ...) holds one or more
    pairs, solved together from their starts; with M's first row (m = 1),
    y = (u,) is a conjugate pair.  Each block's row propagators, collocated
    once, carry every pair through ``chain``, and the rows keep the
    mantissas and the one exponent per row of every component, of u alone
    for a conjugate pair."""
    n = len(ts) - 1
    e, starts, exponents, coefs = 0, [], [], []
    for lo in range(0, n, BLOCK_ROWS):
        G, R = row_propagators(matrices(slice(lo, min(lo + BLOCK_ROWS, n))), h)
        y0, y, e = chain(R, y, e)
        starts.append(y0)
        exponents.append(np.full(len(y0), e))
        m, rows = len(R), len(y0)
        # G y0, one column per pair, back to the order of y
        dy = _node_product(G, y0.T.reshape(-1, m, rows).transpose(1, 0, 2)[None])
        coefs.append(power_coefficients(dy.transpose(0, 2, 1, 3).reshape(NODES, -1, rows))
                     .transpose(0, 2, 1))
    return Rows(ts=ts, h=h, y0=np.concatenate(starts), coef=np.concatenate(coefs, 1),
                exponent=np.concatenate(exponents))


def power_coefficients(dy: np.ndarray) -> np.ndarray:
    """Coefficients c_i (NODES, ...) of y' = sum_i c_i s^i on each row, in
    powers of the row fraction s, from the values dy (NODES, ...) of y' at the
    row's nodes; by way of the Legendre coefficients (see SHIFTED)."""
    return node_sum(SHIFTED.T, node_sum(PROJECTION.T, dy))


def horner(C: np.ndarray, k: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_i C[i, k] s^i for a real (terms, n, m) coefficient array, the rows
    k and fractions s (len(k), 1), by Horner's rule elementwise, so a value
    does not depend on how many are evaluated together."""
    C = np.take(C, k, axis=1)
    acc = C[-1] * s
    for i in range(len(C) - 2, 0, -1):
        acc += C[i]
        acc *= s
    acc += C[0]
    return acc


@dataclass
class Rows:
    """Uniform rows of a dense output y from t = 0 in one direction, with m
    stored complex components: every one of y = (u1, v1, u2, v2, ...), or u
    alone for a conjugate pair (u, conj u).

    Row k spans ``ts[k]..ts[k + 1]`` (in the order of integration, signed
    width ``h``) and starts from ``y0[k]``; ``coef[:, k]`` holds y' in powers
    of the row fraction s = (t - ts[k]) / h, so
    y = y0[k] + h sum_i coef[i, k] s^(i + 1) / (i + 1).  A time on a row edge
    belongs to the row that ends there, counted in the direction of
    integration; times beyond the ends use the end rows.  The rows of
    ``collocate`` keep y0 and coef as mantissas and their power-of-two
    ``exponent`` per row: ``values``, ``slopes`` and ``at_fractions`` give
    the stored mantissas, and a call scales them by 2^exponent[k] and gives
    y, conj u included.
    """

    ts: np.ndarray  # (n + 1,)
    h: float
    y0: np.ndarray  # (n, m) complex
    coef: np.ndarray  # (terms, n, m) complex: NODES from ``collocate``
    exponent: np.ndarray  # (n,) int

    def __post_init__(self):
        self.n = self.coef.shape[1]
        # (terms, n, 2m) real coefficients for the evaluation, of y' and of
        # (y - y0) / s
        self._dy = np.ascontiguousarray(self.coef).view(float)
        self._rise = np.ascontiguousarray(
            self.coef * (self.h / np.arange(1.0, len(self.coef) + 1.0))[:, None, None]).view(float)

    def locate(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows k that hold the times t, and the fractions s there."""
        ascending = self.h > 0
        edges = self.ts if ascending else self.ts[::-1]
        k = np.searchsorted(edges, t, side="left" if ascending else "right") - 1
        np.clip(k, 0, self.n - 1, out=k)
        if not ascending:
            k = self.n - 1 - k
        return k, (t - self.ts[k]) / self.h

    def values(self, k: np.ndarray, s: np.ndarray) -> np.ndarray:
        """(len(k), m) mantissas of y on the rows k at the fractions s."""
        s = s[:, None]
        return self.y0[k] + (horner(self._rise, k, s) * s).view(complex)

    def slopes(self, k: np.ndarray, s: np.ndarray) -> np.ndarray:
        """(len(k), m) mantissas of y' on the rows k at the fractions s."""
        return horner(self._dy, k, s[:, None]).view(complex)

    def at_fractions(self, blk: slice, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(len(s), rows, m) mantissas of y and of y' on the rows ``blk`` at
        the same fractions s on every row: one node sum each, with the
        powers s^i that give y' and s^(i + 1) / (i + 1) that give
        (y - y0[k]) / h."""
        powers = s[:, None] ** np.arange(len(self.coef))
        rises = powers * s[:, None] / np.arange(1.0, len(self.coef) + 1.0)
        coef = np.ascontiguousarray(self.coef[:, blk])
        return self.h * node_sum(rises, coef) + self.y0[blk], node_sum(powers, coef)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """(components, len(t)) values of y at the times t: the mantissas
        times 2^exponent[k], and conj u beside a conjugate pair's u."""
        k, s = self.locate(t)
        y = np.ldexp(self.values(k, s).view(float), self.exponent[k][:, None]).view(complex).T
        return y if len(y) == 2 else np.concatenate((y, y.conj()))


#: (i + j, (i, j)): the 0/1 table that gathers the products m_i m_j of the
#: coefficients of a row polynomial of degree NODES into its square's.
_SQUARE = (np.arange(2 * NODES + 1)[:, None]
           == (np.arange(NODES + 1)[:, None] + np.arange(NODES + 1)).ravel()).astype(float)


def conj_square_quadrature(rows: Rows, count: int, start: complex) -> Rows:
    """The rows of y = start + i int_0^t conj(u)^2 on the first ``count``
    rows of a conjugate pair's ``rows``, exactly.  On row k, u's mantissa
    m(s) = y0[k] + h sum_i coef[i, k] s^(i + 1)/(i + 1) has degree NODES, so
    y' = i conj(m)^2 times 2^(2 exponent[k]): the rows store its 2 NODES + 1
    coefficients at that exponent, and each row starts where the one before
    ends, carried to its exponent by an exact power of two."""
    m = np.concatenate((rows.y0[None, :count, 0], rows._rise.view(complex)[:, :count, 0]))
    dy = 1j * node_sum(_SQUARE, (m[:, None] * m).reshape(-1, count)).conj()
    exponent = 2 * rows.exponent[:count]
    scales = np.ldexp(1.0, np.append(exponent[:-1] - exponent[1:], 0)).tolist()
    rises = rows.h * node_sum(1.0 / np.arange(1.0, len(dy) + 1.0)[None], dy)[0]
    y, starts = complex(start) * ldexp(1.0, -int(exponent[0])), []
    for rise, scale in zip(rises.tolist(), scales):
        starts.append(y)
        y = (y + rise) * scale
    return Rows(ts=rows.ts[:count + 1], h=rows.h, y0=np.array(starts)[:, None],
                coef=dy[:, :, None], exponent=exponent)


def two_sided(t: np.ndarray, fwd, bwd, out: np.ndarray) -> np.ndarray:
    """A dense output kept as rows each way from t = 0: out[..., i] is
    fwd(t_i) where t_i >= 0 and bwd(t_i) elsewhere (NaN included).  fwd and
    bwd take a 1-d array of times and return values along their last axis."""
    ahead = t >= 0
    if ahead.any():
        out[..., ahead] = fwd(t[ahead])
    if not ahead.all():
        out[..., ~ahead] = bwd(t[~ahead])
    return out
