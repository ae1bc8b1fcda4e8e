"""``PhasePath.err_est``: the defect of the dense output, propagated along
the linearised equation, against an independent mpmath oracle and against
the re-solve estimate it replaced."""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest

import heun_monodromy.phase as phase_mod
from heun_monodromy import ModelParams, ToleranceNotMet, solve_phase
from tests.oracle_values import ORACLE
from tests.reference_resolve import resolve_disagreement

# perfbench's FIXED_SWEEP_POINTS, the two off-golden points of every sweep
FIXED_SWEEP_POINTS = ((3.0, 0.3, 1.0, 0.5), (2.0, 0.25, 1.1, 0.4))
GOLDENS = ((2.0, 0.3, 1.0, 0.5), (1.0, 0.2, 1.3, 1.0))


def _solve(point, tol=1e-12):
    ell, mu, omega, phi0 = point
    return solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=tol)


@pytest.mark.parametrize("point", sorted(ORACLE))
def test_err_est_covers_the_oracle(point):
    path = _solve(point)
    for k, reference in ORACLE[point].items():
        got = path.eval(k * path.params.T)[:, 0]
        for value, exact in zip(got, reference):
            # exact decimal difference: no rounding of the reference on the way
            assert abs(float(Decimal(float(value)) - Decimal(exact))) <= path.err_est, (k, exact)


@pytest.mark.parametrize("point", GOLDENS + FIXED_SWEEP_POINTS)
def test_err_est_is_not_vacuous(point):
    path = _solve(point)
    assert 0.0 < path.err_est <= 10.0 * resolve_disagreement(path)


def test_solve_integrates_each_direction_once(golden_params, monkeypatch):
    bounds = []
    dop853 = phase_mod.dop853

    def counting(fun, t0, y0, t_bound, *args, **kwargs):
        bounds.append(t_bound)
        return dop853(fun, t0, y0, t_bound, *args, **kwargs)

    monkeypatch.setattr(phase_mod, "dop853", counting)
    path = solve_phase(golden_params, 0.5, tol=1e-12)
    assert bounds == [path.t_max, path.t_min]


def test_perturbed_row_trips_the_gate(golden_params, monkeypatch):
    # one row's seven coefficients off by a relative 1e-6: its interpolant
    # drifts by about 1e-7 across the row, and the defect integrates to it
    dop853 = phase_mod.dop853

    def perturbed(*args, **kwargs):
        sol = dop853(*args, **kwargs)
        if sol.t > 0:
            k = len(sol.rows) // 2
            t_old, h, y_old, F = sol.rows[k]
            F = [tuple(c * (1 + 1e-6) for c in coeffs) for coeffs in F]
            sol.rows[k] = (t_old, h, y_old, F)
        return sol

    monkeypatch.setattr(phase_mod, "dop853", perturbed)
    with pytest.raises(ToleranceNotMet, match="propagated defect"):
        solve_phase(golden_params, 0.5, tol=1e-12)

