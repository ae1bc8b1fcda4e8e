"""``PhasePath.err_est``: the defect of the collocation polynomial,
propagated along the linearised equation, plus the rounding of the chained
row starts, against an independent mpmath oracle and against the re-solve
estimate it replaced."""

from __future__ import annotations

import dataclasses
from decimal import Decimal

import pytest

import heun_monodromy.phase as phase_mod
from heun_monodromy import ModelParams, ToleranceNotMet, solve_phase
from tests.conftest import FIXED_SWEEP_POINTS, GOLDENS
from tests.oracle_values import ORACLE
from tests.scipy_reference import resolve_disagreement


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
    # one collocation per direction
    bounds = []
    collocate = phase_mod._collocate

    def counting(params, phi0, t_bound):
        bounds.append(t_bound)
        return collocate(params, phi0, t_bound)

    monkeypatch.setattr(phase_mod, "_collocate", counting)
    path = solve_phase(golden_params, 0.5, tol=1e-12)
    assert bounds == [path.t_max, path.t_min]


def test_perturbed_row_trips_the_gate(golden_params, monkeypatch):
    # one forward row's coefficients off by a relative 1e-6: its polynomial
    # drifts by about 1e-8 across the row, and the defect integrates to it
    collocate = phase_mod._collocate

    def perturbed(params, phi0, t_bound):
        rows = collocate(params, phi0, t_bound)
        if t_bound > 0:
            coef = rows.coef.copy()
            coef[:, rows.n // 2] *= 1 + 1e-6
            rows = dataclasses.replace(rows, coef=coef)
        return rows

    monkeypatch.setattr(phase_mod, "_collocate", perturbed)
    with pytest.raises(ToleranceNotMet, match="propagated defect"):
        solve_phase(golden_params, 0.5, tol=1e-12)


@pytest.mark.parametrize("point", sorted(ORACLE))
def test_path_matches_the_oracle(point):
    # the DOP853 solve was 2.5e-14 off at G1 and 5.7e-14 at (3, 0.3, 1, 0.5),
    # from the rounding of its state updates
    path = _solve(point)
    for k, reference in ORACLE[point].items():
        got = path.eval(k * path.params.T)[:, 0]
        for value, exact in zip(got, reference):
            assert abs(float(Decimal(float(value)) - Decimal(exact))) <= 1e-14, (k, exact)
