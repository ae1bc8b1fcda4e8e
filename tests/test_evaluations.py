"""How often the heun and theorem2 checks evaluate the phase path at G1.

Each check evaluates every grid once, through one ``CirclePair`` call on t
and -t together, and theorem 2 integrates P_B on one Gauss-Legendre panel
table.  Before that, ``check_heun`` made 577 array evaluations over 416k
points, and ``check_theorem2`` made 151 array evaluations plus 6186
one-point ``PhasePath.at`` calls from a scalar DOP853 quadrature.
"""

from __future__ import annotations

import numpy as np
import pytest

from heun_monodromy.phase import PhasePath
from heun_monodromy.verify import check_heun, check_theorem2


@pytest.fixture()
def counts(monkeypatch):
    tally = {"eval": 0, "points": 0, "at": 0}
    evaluate, at = PhasePath.eval, PhasePath.at

    def counting_eval(self, t):
        tally["eval"] += 1
        tally["points"] += np.size(t)
        return evaluate(self, t)

    def counting_at(self, t):
        tally["at"] += 1
        return at(self, t)

    monkeypatch.setattr(PhasePath, "eval", counting_eval)
    monkeypatch.setattr(PhasePath, "at", counting_at)
    return tally


def test_check_heun_evaluations(golden_path, golden_quad, counts):
    check_heun(golden_path, golden_quad, 1001)
    assert counts == {"eval": 19, "points": 19835, "at": 2}


def test_check_theorem2_evaluations(golden_path, golden_quad, counts):
    check_theorem2(golden_path, golden_quad, 1001)
    assert counts == {"eval": 20, "points": 39043, "at": 2}
