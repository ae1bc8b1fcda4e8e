"""The continuation off the circle against scipy's DOP853, an integrator
the program does not use, and the ray certificate it feeds.

The reference integrates F itself, in the Phi chart, along the straight leg
in w = log z that ``verify_monodromy`` continues on, and along the route of
a radial ray and an arc that the leg stands in for; it shares no code with
the collocation it checks.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from heun_monodromy import ModelParams, StepCeilingExceeded, gauss, monodromy, solve_phase
from heun_monodromy.circle import CirclePair, continue_riccati_path
from heun_monodromy.monodromy import _algebraic_values, verify_monodromy
from tests.conftest import FIXED_SWEEP_POINTS, GOLDENS

POINTS = GOLDENS + FIXED_SWEEP_POINTS
RHOS = (0.2, 0.8, 1.25, 5.0)
RTOL = 1e-13


@pytest.fixture(scope="module", params=POINTS, ids=["G1", "G2", "sweep1", "sweep2"])
def point_path(request):
    ell, mu, omega, phi0 = request.param
    return solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=1e-12)


def _scipy_riccati(params, F0, route):
    """F at the end of the route, from dF/dz = (1 - F^2)/(2 i omega z) + c F
    along each leg z = exp(w0 + s (w1 - w0)), s in [0, 1]."""
    F = complex(F0)
    for w0, w1 in zip(route[:-1], route[1:]):
        dw = w1 - w0

        def rhs(s, y):
            z, F = np.exp(w0 + s * dw), y[0]
            c = params.ell / z + params.mu * (1.0 + z**-2)
            return [((1.0 - F * F) / (2j * params.omega * z) + c * F) * z * dw]

        F = solve_ivp(rhs, (0.0, 1.0), [F], method="DOP853", rtol=RTOL, atol=1e-15).y[0, -1]
    return F


def _starts_and_ends(path):
    """Each radius's two continuations of ``verify_monodromy``: route A from
    the period-shift Phi over the upper half plane, route B from the
    algebraic Phi_M over the lower one, as (F0, Im w at the end)."""
    pair = CirclePair(path)
    at_one = _algebraic_values(pair, np.array([0.0]))[0][0]
    return ((np.exp(1j * path.phi0), np.pi), (at_one, -np.pi))


def test_riccati_continuation_matches_scipy(point_path):
    params = point_path.params
    for rho in RHOS:
        for F0, end in _starts_and_ends(point_path):
            w1 = complex(np.log(rho), end)
            (value, pole), = continue_riccati_path(params, [F0], w1)
            reference = _scipy_riccati(params, F0, [0.0, w1])
            assert not pole
            assert abs(value - reference) <= 1e-10 * abs(reference), (rho, end)


def test_straight_leg_meets_the_ray_and_arc_route(point_path):
    # the straight leg to log rho +- i pi and the route out along the ray to
    # rho, then round the arc to the cut, lie in the strip |Im w| <= pi, so
    # they are homotopic in the annulus, where the system is analytic: the
    # leg ends at the value that DOP853 reaches along the route
    params = point_path.params
    for rho in RHOS:
        for F0, end in _starts_and_ends(point_path):
            (value, pole), = continue_riccati_path(params, [F0], complex(np.log(rho), end))
            reference = _scipy_riccati(params, F0, [0.0, np.log(rho), complex(np.log(rho), end)])
            assert not pole
            assert abs(value - reference) <= 1e-10 * abs(reference), (rho, end)


def test_ray_residuals_hold_to_1e_13(point_path):
    # the two routes meet at the cut to rounding level: 2.3e-14 at most here,
    # where the chart-switching DOP853 continuation left up to 5.4e-12
    report = verify_monodromy(point_path, rhos=list(RHOS))
    assert [rho for rho, _ in report["ray_residuals"]] == list(RHOS)
    for rho, residual in report["ray_residuals"]:
        assert residual <= 1e-13, rho


# sha256 of the four continuations of verify's ray routes (radii 0.8 and
# 1.25), in the order A, B per radius: the bytes of the values, then the
# pole flags, recorded with route B starting from the algebraic monodromy of
# the pair read off (u, conj u), each route one straight leg in w = log z
# through gauss.collocate on the rows of ROW_RATE = 0.24, and route B read
# off route A's rows by reflection (bit for bit its own leg).
RAY_SHA256 = {
    GOLDENS[0]: "7bb8d5750da7d55afb6dcfb77761b7312e71011a287c2b2b63e7178eee8c6314",
    GOLDENS[1]: "2b33e5ecc9e06126dbcb699a97b9651ffba6bf14548d5e9979daaf02a40715db",
}


@pytest.mark.parametrize("point", GOLDENS, ids=["G1", "G2"])
def test_ray_continuations_are_pinned_bit_for_bit(point, monkeypatch):
    ends = []

    def recording(*args):
        # one call per radius: route A's end and route B's by reflection,
        # v_B/u_B = -conj(v/u) with the same pole flag
        (a, reflected) = out = continue_riccati_path(*args)
        ends.extend((a, (-reflected[0].conjugate(), reflected[1])))
        return out

    monkeypatch.setattr(monodromy, "continue_riccati_path", recording)
    ell, mu, omega, phi0 = point
    path = solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=1e-12)
    verify_monodromy(path, rhos=[0.8, 1.25])
    assert len(ends) == 4
    digest = hashlib.sha256(np.array([value for value, _ in ends]).tobytes()
                            + bytes(pole for _, pole in ends))
    assert digest.hexdigest() == RAY_SHA256[point]


@pytest.mark.parametrize("rho", RHOS)
def test_route_b_by_reflection_is_route_b_collocated_on_its_own(point_path, rho):
    # route B's leg to log rho - i pi is route A's under z -> conj z: its end
    # from Phi_M(1) is -conj of the end of route A's system from
    # -conj Phi_M(1), bit for bit, and verify_monodromy collocates once
    params = point_path.params
    (_, at_one), _ = _starts_and_ends(point_path)
    log_rho = float(np.log(rho))
    own = continue_riccati_path(params, [at_one], complex(log_rho, -np.pi))
    _, (reflected, pole) = continue_riccati_path(
        params, [np.exp(1j * point_path.phi0), -complex(at_one).conjugate()],
        complex(log_rho, np.pi))
    by_reflection = -reflected.conjugate()
    assert np.array([by_reflection]).tobytes() == np.array([own[0][0]]).tobytes()
    assert pole == own[0][1]


def test_step_ceiling_is_checked_before_any_row(monkeypatch):
    # a leg that turns by 1e7 radians needs about 1.5e8 rows: it is refused
    # before any row is collocated
    def no_rows(*args):
        raise AssertionError("a row was collocated")

    monkeypatch.setattr(gauss, "row_propagators", no_rows)
    params = ModelParams(ell=2.0, mu=0.3, omega=1.0)
    with pytest.raises(StepCeilingExceeded, match="needs more than 100000 rows"):
        continue_riccati_path(params, [1j], complex(np.log(0.9), 1e7))
