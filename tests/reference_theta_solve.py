"""The scalar theta-pair solve that ``circle.theta_pair_solve`` used before
its Gauss collocation, kept as a test reference.

The four real components of (Theta, ThetaTilde) are integrated with DOP853 at
rtol 1e-12 over the whole window, forward and backward from t = 0, and phi
comes from one ``PhasePath.at`` call per stage.
"""

from __future__ import annotations

import cmath

import numpy as np

from heun_monodromy.phase import PhasePath
from heun_monodromy.rk import DenseTable, dop853

RTOL = 1e-12


def reference_theta_pair(path: PhasePath):
    """(Theta(t), ThetaTilde(t)) as a function of an array of times."""

    def rhs(t, y):
        Phi = cmath.exp(1j * path.at(t)[0])
        d = complex(y[0], y[1]) - complex(y[2], y[3])
        dth = 0.5 * Phi * d
        dtht = -0.5 * d / Phi
        return (dth.real, dth.imag, dtht.real, dtht.imag)

    fwd, bwd = (
        DenseTable(dop853(rhs, 0.0, (0.0, 1.0, 0.0, -1.0), t_bound, RTOL, RTOL * 1e-2, dense=True))
        for t_bound in (path.t_max, path.t_min)
    )

    def values(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        Y = np.empty((4,) + t.shape)
        m = t >= 0
        Y[:, m] = fwd(t[m])
        Y[:, ~m] = bwd(t[~m])
        return Y[0] + 1j * Y[1], Y[2] + 1j * Y[3]

    return values
