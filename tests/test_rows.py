"""The one row rule, ``gauss.uniform_rows``, at every collocation, and the
row widths and Picard sweeps it leads to.

Each caller states a bound on ||M||_inf, and the rule gives the fewest
uniform rows with |h| * rate <= ROW_RATE: the phase rows at
max((|B| + |A| + 1)/2, 1), which the theta pair shares, the P_B panel table
at |B| + |A| + 1 over +-TABLE_SPAN*T, and the continuation, one straight leg
in w = log z from 0 to w1 per radius (route B rides on route A's rows), at
(|ell| + |mu| max(r + 1/r) + 1/omega) |w1| / 2 with the max over the leg's two
ends.  Each Picard sweep then contracts by q <= ROW_RATE ||a_ij||_inf, so a
block settles within ceil(ln(4 EPS) / ln q) sweeps.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from heun_monodromy import ModelParams, gauss, solve_phase
from heun_monodromy.circle import theta_pair_solve
from heun_monodromy.heunpoly import NumericQuad, diagonal
from heun_monodromy.monodromy import verify_monodromy
from heun_monodromy.sqrtmono import TABLE_SPAN, transform_from_path
from tests.conftest import GOLDENS

POINTS = GOLDENS + ((20.0, 0.3, 1.0, 0.5),)
RHOS = (0.2, 0.8, 1.25, 5.0)
#: The contraction of one Picard sweep, and the sweeps that take a change of
#: at most q^k below the kernel's stop at 4 ulps of 1: 25 at q = 0.2369.
Q = gauss.ROW_RATE * float(np.max(np.sum(np.abs(gauss._A), axis=1)))
WORST_SWEEPS = math.ceil(math.log(4 * gauss.EPS) / math.log(Q))


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
    turning = abs(params.Bdrive) + abs(params.A) + 1.0
    path = solve_phase(params, phi0, tol=1e-12)
    for rows, end in ((path._fwd, path.t_max), (path._bwd, path.t_min)):
        _assert_fewest(end, max(turning / 2, 1.0), rows.n, rows.h)

    tr = transform_from_path(path, NumericQuad(diagonal(int(ell)), params))
    for rows, sign in zip(tr.table, (1, -1)):
        _assert_fewest(sign * TABLE_SPAN * params.T, turning, rows.n, rows.h)

    # one leg per radius, route A's, in the order collocated: route B is its
    # reflection and rides on the same rows
    legs = [complex(np.log(rho), np.pi) for rho in RHOS]
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
        # the legs to log rho + i pi take 34 rows at rho = 0.2 and 5 and 24
        # at the default radii (68 and 48 at ROW_RATE = 0.12): rho and 1/rho
        # give one rate
        assert expected == [34, 24, 24, 34]


@pytest.fixture
def blocks(monkeypatch):
    """Every block the kernel collocates from now on, as (M at the nodes, h,
    Picard sweeps): one sweep is one stage sum against gauss._A."""
    recorded, sweeps = [], []
    kernel, node_sum = gauss.row_propagators, gauss.node_sum

    def counting_sum(C, G):
        if C is gauss._A:
            sweeps[-1] += 1
        return node_sum(C, G)

    def recording(M, h):
        sweeps.append(0)
        out = kernel(M, h)
        recorded.append((M, h, sweeps[-1]))
        return out

    monkeypatch.setattr(gauss, "node_sum", counting_sum)
    monkeypatch.setattr(gauss, "row_propagators", recording)
    return recorded


def _widest_step(M, h) -> float:
    """|h| times the largest ||M||_inf at the block's nodes; a conjugate
    pair's first row (m = 1) has the norm of the whole M."""
    return abs(h) * float(np.max(np.sum(np.abs(M), axis=2)))


@pytest.mark.parametrize("point", GOLDENS + ((6.0, 1.5, 0.4, 0.0), (20.0, 0.3, 1.0, 0.5)),
                         ids=["G1", "G2", "ell6", "ell20"])
def test_every_block_keeps_its_norm_bound_and_settles(point, blocks):
    # each system's stated rate bounds ||M||_inf on its rows, so |h| ||M||_inf
    # at the nodes stays within ROW_RATE (to the rounding of the node values,
    # where the theta pair's norm of exactly 1 is the bound), and every block
    # settles within the worst case of the contraction, well under the cap
    assert Q < 0.237 and WORST_SWEEPS == 25 < gauss.PICARD_MAX_SWEEPS
    ell, mu, omega, phi0 = point
    params = ModelParams(ell=ell, mu=mu, omega=omega)
    systems = {}
    path = solve_phase(params, phi0, tol=1e-12)
    systems["phase"], blocks[:] = blocks[:], []
    theta_pair_solve(path)
    systems["theta"], blocks[:] = blocks[:], []
    transform_from_path(path, NumericQuad(diagonal(int(ell)), params)).table
    systems["table"], blocks[:] = blocks[:], []
    verify_monodromy(path, rhos=list(RHOS))
    systems["continuation"] = blocks[:]
    for name, recorded in systems.items():
        assert recorded, name
        for M, h, sweeps in recorded:
            assert _widest_step(M, h) <= gauss.ROW_RATE * (1 + 4 * gauss.EPS), name
            assert 2 <= sweeps <= WORST_SWEEPS, name
    # the phase rows and the theta pair are conjugate pairs, the table and the
    # continuation whole systems
    assert [len(recorded[0][0][0]) for recorded in systems.values()] == [1, 1, 2, 2]
