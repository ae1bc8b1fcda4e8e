"""How often the circle, heun and theorem2 checks evaluate the phase path at G1.

Each check evaluates every grid once: the heun and theorem-2 checks through
one ``CirclePair`` call on t and -t together, one ``PhasePath.solution``
per grid, which every circle solution reads as coordinates on the basis
{y, Ry}, and theorem 2 integrates P_B on one Gauss-Legendre panel table.
Every (phi, P) read is one ``PhasePath.jet``, which gives the values and
their derivatives from one row lookup: ``eval``, ``derivative``, ``phi`` and
``P`` are views of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from heun_monodromy.phase import PhasePath
from heun_monodromy.verify import check_circle, check_heun, check_theorem2


@pytest.fixture()
def counts(monkeypatch):
    tally = {"jet": 0, "solution": 0, "points": 0}

    def counting(name):
        method = getattr(PhasePath, name)

        def counted(self, t):
            tally[name] += 1
            tally["points"] += np.size(t)
            return method(self, t)

        monkeypatch.setattr(PhasePath, name, counted)

    for name in ("jet", "solution"):
        counting(name)
    return tally


def test_check_circle_evaluations(golden_path, counts):
    check_circle(golden_path, 1001)
    # one jet gives (phi, P) and dP/dt on the grid; route_equivalence
    # integrates the theta pair on the path's own rows and evaluates the path
    # nowhere (the scalar solve it replaced made 3226 one-point evaluations)
    assert counts == {"jet": 1, "solution": 0, "points": 1001}


def test_check_heun_evaluations(golden_path, golden_quad, counts):
    check_heun(golden_path, golden_quad, 1001)
    # the L_B matrix evaluates the basis at t = +-T/2 and t = 0, two points
    # each; the boundary values it was built from before took two one-point
    # evaluations.  Every circle pair reads the linear solution; the one
    # (phi, P) evaluation is phi_alpha_identity's reference e^{i phi}
    assert counts == {"jet": 1, "solution": 12, "points": 11825}


def test_check_theorem2_evaluations(golden_path, golden_quad, counts):
    check_theorem2(golden_path, golden_quad, 1001)
    # Both applications are coordinates on the same y: the pair reads it
    # once at the cut edges and z = 1 (3 points), once at t = +-0 (2), which
    # give both applications' constants and k, the panel table's start and
    # the residuals at t = 0, and once on the grid at t and -t (2002).  The
    # panel table's nodes are 2 sides x 52 rows x 10 nodes, each at t and
    # -t: 2080 points.  The one (phi, P) evaluation is the period shift
    assert counts == {"jet": 1, "solution": 4, "points": 5088}
