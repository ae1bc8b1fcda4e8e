"""How often the circle, heun and theorem2 checks evaluate the phase path at G1.

Each check evaluates every grid once: the heun and theorem-2 checks through
one ``CirclePair`` call on t and -t together, giving one values bundle per
grid, and theorem 2 integrates P_B on one Gauss-Legendre panel table.
Before that, ``check_heun`` made 577 array evaluations over 416k points, and
``check_theorem2`` made 151 array evaluations plus 6186 one-point
``PhasePath.at`` calls from a scalar DOP853 quadrature; later, with one
evaluation per residual call, 19 and 20, and ``check_circle`` 7 evaluations
and 1 derivative of its one grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from heun_monodromy.phase import PhasePath
from heun_monodromy.verify import check_circle, check_heun, check_theorem2


@pytest.fixture()
def counts(monkeypatch):
    tally = {"eval": 0, "points": 0, "derivative": 0, "at": 0}
    evaluate, derivative, at = PhasePath.eval, PhasePath.derivative, PhasePath.at

    def counting_eval(self, t):
        tally["eval"] += 1
        tally["points"] += np.size(t)
        return evaluate(self, t)

    def counting_derivative(self, t):
        tally["derivative"] += 1
        tally["points"] += np.size(t)
        return derivative(self, t)

    def counting_at(self, t):
        tally["at"] += 1
        return at(self, t)

    monkeypatch.setattr(PhasePath, "eval", counting_eval)
    monkeypatch.setattr(PhasePath, "derivative", counting_derivative)
    monkeypatch.setattr(PhasePath, "at", counting_at)
    return tally


def test_check_circle_evaluations(golden_path, counts):
    check_circle(golden_path, 1001)
    # route_equivalence collocates the theta pair on the path's own rows and
    # evaluates the path nowhere (the scalar solve it replaced made 3226
    # one-point "at" calls)
    assert counts == {"eval": 1, "points": 2002, "derivative": 1, "at": 0}


def test_check_heun_evaluations(golden_path, golden_quad, counts):
    check_heun(golden_path, golden_quad, 1001)
    # the L_B matrix evaluates the basis at t = +-T/2 and t = 0, two points
    # each; the boundary values it was built from before took two one-point
    # evaluations (each also one "at")
    assert counts == {"eval": 13, "points": 11825, "derivative": 0, "at": 0}


def test_check_theorem2_evaluations(golden_path, golden_quad, counts):
    check_theorem2(golden_path, golden_quad, 1001)
    assert counts == {"eval": 11, "points": 23025, "derivative": 0, "at": 2}
