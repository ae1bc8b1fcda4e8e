"""DOP853 dense output as numpy arrays, for the test references that still
integrate the phase or the theta pair with ``tests.dop853``.

``DenseTable`` evaluates the rows a dense ``dop853`` run leaves behind: the
nested x / (1 - x) recurrence of every row for an array of times at once.
``phase_rhs`` is the augmented phase system

    dphi/dt = B + A*cos(omega*t) - sin(phi),    dP/dt = cos(phi)

that ``solve_phase`` integrated with DOP853 before its Gauss collocation.
"""

from __future__ import annotations

import math

import numpy as np

from heun_monodromy.params import ModelParams
from tests.dop853 import Solution


def phase_rhs(params: ModelParams):
    A, Bd, omega = params.A, params.Bdrive, params.omega
    cos, sin = math.cos, math.sin

    def rhs(t, y):
        return (Bd + A * cos(omega * t) - sin(y[0]), cos(y[0]))

    return rhs


def _nested(F: np.ndarray, x: np.ndarray, derivative: bool):
    """The nested x / (1 - x) recurrence over F6..F0 (the last axis of F) at
    the fractions x, which broadcast against F's other axes, without y_old;
    with ``derivative`` also its d/dx, else None."""
    y = np.zeros(np.broadcast_shapes(F.shape[:-1], x.shape))
    dy = np.zeros_like(y) if derivative else None
    for i in range(F.shape[-1]):
        y += F[..., i]
        m, dm = (x, 1.0) if i % 2 == 0 else (1 - x, -1.0)
        if derivative:
            dy = dy * m + dm * y
        y *= m
    return y, dy


class DenseTable:
    """The dense output of one integration, evaluated from its rows.

    A time on a step boundary belongs to the step that ends there, counted
    in the direction of integration; times beyond the ends use the end steps.
    """

    def __init__(self, sol: Solution):
        rows = sol.rows
        self.n = len(rows)
        self.ts = np.asarray(sol.ts)  # in the order of integration
        self.ascending = sol.ts[-1] >= sol.ts[0]
        self.side = "left" if self.ascending else "right"
        self.ts_sorted = self.ts if self.ascending else self.ts[::-1]
        t_old, h, y_old, F = zip(*rows)
        self.t_old = np.array(t_old)
        self.h = np.array(h)
        self.y_old = np.array(y_old)  # (n, ny)
        self.F = np.array(F)  # (n, ny, 7), F6 first

    def _segments(self, t: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self.ts_sorted, t, side=self.side) - 1
        np.clip(k, 0, self.n - 1, out=k)
        return k if self.ascending else self.n - 1 - k

    def __call__(self, t: np.ndarray, derivative: bool = False) -> np.ndarray:
        """(ny, n) values at the times t, or their d/dt with ``derivative``."""
        k = self._segments(t)
        h = self.h[k][:, None]
        y, dy = _nested(self.F[k], (t - self.t_old[k])[:, None] / h, derivative)
        if derivative:
            return (dy / h).T
        y += self.y_old[k]
        return y.T
