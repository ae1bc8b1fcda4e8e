"""The 10-point Gauss-Legendre rule on [-1, 1] and its Legendre helpers.

One table serves the P_B panel table of ``sqrtmono`` and the defect sampler
of ``phase``.  The nodes and weights are literals rather than Golub-Welsch:
the first LAPACK call keeps about 1 MB for the whole run.
"""

from __future__ import annotations

import numpy as np

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
