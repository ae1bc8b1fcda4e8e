"""The re-solve error estimate that ``solve_phase`` used before its defect
estimate, kept as a test reference: a DOP853 solve of the phase system.

The window is integrated again at tol/100 with the step cap scaled by
200/293, so the reference takes a different step sequence, and the two runs
are compared at 317 probes across the window.  The disagreement is what
``err_est`` used to report.
"""

from __future__ import annotations

import numpy as np

from heun_monodromy.phase import PhasePath, _max_step
from tests.dop853 import dop853
from tests.dense_table import DenseTable, phase_rhs

REFINE = 100.0
PROBES = 317


def resolve_disagreement(path: PhasePath) -> float:
    """max |path - reference| over the probes, both components."""
    rtol = max(path.tol / REFINE * 1e-2, 2.5e-14)
    max_step = _max_step(path.params) * 200.0 / 293.0
    rhs = phase_rhs(path.params)
    fwd, bwd = (
        DenseTable(dop853(rhs, 0.0, (path.phi0, 0.0), t_bound, rtol, rtol * 1e-2,
                          max_step=max_step, dense=True))
        for t_bound in (path.t_max, path.t_min)
    )
    probe = np.linspace(path.t_min, path.t_max, PROBES)
    reference = np.where(probe >= 0, fwd(probe), bwd(probe))
    return float(np.max(np.abs(path.eval(probe) - reference)))
