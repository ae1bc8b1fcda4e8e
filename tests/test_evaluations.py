"""How often the circle, heun and theorem2 checks evaluate the phase path at G1.

Each check evaluates every grid once: the heun and theorem-2 checks through
one ``CirclePair`` call on t and -t together, one ``PhasePath.solution``
per grid, and theorem 2 integrates P_B on one Gauss-Legendre panel table.
Before that, ``check_heun`` made 577 array evaluations over 416k points, and
``check_theorem2`` made 151 array evaluations plus 6186 one-point
evaluations from a scalar DOP853 quadrature; later, with one
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
    tally = {"eval": 0, "solution": 0, "points": 0, "derivative": 0}

    def counting(name):
        method = getattr(PhasePath, name)

        def counted(self, t):
            tally[name] += 1
            tally["points"] += np.size(t)
            return method(self, t)

        monkeypatch.setattr(PhasePath, name, counted)

    for name in ("eval", "solution", "derivative"):
        counting(name)
    return tally


def test_check_circle_evaluations(golden_path, counts):
    check_circle(golden_path, 1001)
    # route_equivalence collocates the theta pair on the path's own rows and
    # evaluates the path nowhere (the scalar solve it replaced made 3226
    # one-point evaluations)
    assert counts == {"eval": 1, "solution": 0, "points": 2002, "derivative": 1}


def test_check_heun_evaluations(golden_path, golden_quad, counts):
    check_heun(golden_path, golden_quad, 1001)
    # the L_B matrix evaluates the basis at t = +-T/2 and t = 0, two points
    # each; the boundary values it was built from before took two one-point
    # evaluations.  Every circle pair reads the linear solution; the one
    # (phi, P) evaluation is phi_alpha_identity's reference e^{i phi}
    assert counts == {"eval": 1, "solution": 12, "points": 11825, "derivative": 0}


def test_check_theorem2_evaluations(golden_path, golden_quad, counts):
    check_theorem2(golden_path, golden_quad, 1001)
    # the boundary values are one 3-point evaluation at (T/2, -T/2, 0); they
    # were two one-point evaluations.  The panel table's nodes are 2 sides x
    # 52 rows x 10 nodes, each evaluated at t and -t: 2080 points.  The
    # second application reads the first's solution, which evaluates the
    # path's at t and -t; the one (phi, P) evaluation is the period shift
    assert counts == {"eval": 1, "solution": 9, "points": 9106, "derivative": 0}
