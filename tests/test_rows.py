"""The one row rule, ``gauss.uniform_rows``, at every collocation.

Each caller states a rate, and the rule gives the fewest uniform rows with
|h| * rate <= ROW_RATE: the phase rows at |B| + |A| + 1, the P_B panel table
at the same rate over +-TABLE_SPAN*T, and each route of the continuation,
one straight leg in w = log z from 0 to w1, at
(|ell| + |mu| max(r + 1/r) + 1/omega) |w1| / 2 with the max over the leg's two
ends.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from heun_monodromy import ModelParams, gauss, solve_phase
from heun_monodromy.heunpoly import NumericQuad, diagonal
from heun_monodromy.monodromy import verify_monodromy
from heun_monodromy.sqrtmono import TABLE_SPAN, transform_from_path
from tests.conftest import GOLDENS

POINTS = GOLDENS + ((20.0, 0.3, 1.0, 0.5),)
RHOS = (0.2, 0.8, 1.25, 5.0)


def _assert_fewest(span, rate, n, h):
    """n uniform rows of width h over span keep |h| * rate <= ROW_RATE, and
    n - 1 would not."""
    assert h == span / n
    assert abs(h) * rate <= gauss.ROW_RATE
    assert n == 1 or abs(span) / (n - 1) * rate > gauss.ROW_RATE


def _leg_rate(params, w1):
    reach = max(abs(np.exp(w)) + 1 / abs(np.exp(w)) for w in (0.0, w1))
    return 0.5 * (abs(params.ell) + abs(params.mu) * reach + 1 / params.omega) * abs(w1)


@pytest.mark.parametrize("point", POINTS, ids=["G1", "G2", "ell20"])
def test_every_collocation_takes_the_fewest_rows_of_the_row_rule(point, monkeypatch):
    ell, mu, omega, phi0 = point
    params = ModelParams(ell=ell, mu=mu, omega=omega)
    rate = abs(params.Bdrive) + abs(params.A) + 1.0
    path = solve_phase(params, phi0, tol=1e-12)
    for rows, end in ((path._fwd, path.t_max), (path._bwd, path.t_min)):
        _assert_fewest(end, rate, rows.n, rows.h)

    tr = transform_from_path(path, NumericQuad(diagonal(int(ell)), params))
    for rows, sign in zip(tr.table, (1, -1)):
        _assert_fewest(sign * TABLE_SPAN * params.T, rate, rows.n, rows.h)

    # the one leg of each of the monodromy's routes, in the order collocated
    legs = [complex(np.log(rho), end) for rho in RHOS for end in (np.pi, -np.pi)]
    collocated = []
    kernel = gauss.row_propagators

    def counting(M, h):
        collocated.append(M.shape[-1])
        return kernel(M, h)

    monkeypatch.setattr(gauss, "row_propagators", counting)
    verify_monodromy(path, rhos=list(RHOS))
    expected = []
    for w1 in legs:
        leg_rate = _leg_rate(params, w1)
        n = math.ceil(leg_rate / gauss.ROW_RATE)
        _assert_fewest(1.0, leg_rate, n, 1.0 / n)
        expected.append(n)
    # the kernel takes each leg's rows in blocks of BLOCK_ROWS
    assert collocated == [min(gauss.BLOCK_ROWS, n - lo)
                          for n in expected for lo in range(0, n, gauss.BLOCK_ROWS)]
    if point == GOLDENS[0]:
        # the legs to log rho +- i pi take 68 rows at rho = 0.2 and 5 (the
        # ray and arc there took 31 + 60), and 48 at the default radii
        # (4 + 48): rho and 1/rho give one rate
        assert expected == [68, 68, 48, 48, 48, 48, 68, 68]
