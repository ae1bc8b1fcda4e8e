from __future__ import annotations

import ast
import cmath
import dataclasses
import hashlib
import inspect
import math
import textwrap
import warnings

import numpy as np
import pytest

from heun_monodromy import gauss, verify
from heun_monodromy import ModelParams, OutOfWindow, solve_phase
from heun_monodromy.circle import (
    IDENTITY,
    CirclePair,
    continue_riccati_path,
    half_power_factor_dots,
    half_power_factors,
    phi_on_circle,
    psi_on_circle,
    riccati_circle_residual,
    theta_pair_solve,
)
from tests.conftest import FIXED_SWEEP_POINTS, GOLDENS
from tests.oracle_values import ORACLE
from tests.scipy_reference import reference_theta_pair


def grid(path, n=501):
    T = path.params.T
    return np.linspace(-T / 2, T / 2, n)


def test_trivial_phi_and_psi(trivial_path):
    t = grid(trivial_path)
    assert np.max(np.abs(phi_on_circle(trivial_path)(t) - 1.0)) < 1e-12
    assert np.max(np.abs(np.exp(0.5j * trivial_path.phi(t)) - 1.0)) < 1e-12
    assert np.max(np.abs(psi_on_circle(trivial_path)(t) - np.exp(t))) < 1e-9


def test_branch_anchoring_at_pi():
    path = solve_phase(ModelParams(ell=0.0, mu=0.0, omega=1.0), np.pi, tol=1e-12)
    t = grid(path, 101)
    # phi == pi throughout, so the continuous half power is e^{i pi/2} = i
    assert np.max(np.abs(phi_on_circle(path)(t) + 1.0)) < 1e-9
    assert np.max(np.abs(np.exp(0.5j * path.phi(t)) - 1j)) < 1e-9


def test_unimodularity_and_branch_squares(golden_path):
    t = grid(golden_path, 1001)
    F = phi_on_circle(golden_path)(t)
    assert np.max(np.abs(np.abs(F) - 1.0)) < 1e-10
    assert np.max(np.abs(np.exp(0.5j * golden_path.phi(t)) ** 2 - F)) < 1e-12
    psi = psi_on_circle(golden_path)(t)
    assert np.max(np.abs(np.exp(0.5 * golden_path.P(t)) ** 2 - psi)) < 1e-12
    assert np.all(psi > 0)


def test_psi_normalized_at_one(golden_path):
    assert float(psi_on_circle(golden_path)(np.array([0.0]))[0]) == 1.0


def test_psi_ode_residual_on_circle(golden_path):
    t = grid(golden_path, 1001)
    F = phi_on_circle(golden_path)(t)
    psi = psi_on_circle(golden_path)(t)
    dP = golden_path.derivative(t)[1]
    res = 2.0 * dP * psi - (F + 1.0 / F) * psi
    assert np.max(np.abs(res)) < 1e-8


def test_riccati_residual_of_phi(golden_path):
    t = grid(golden_path, 1001)
    F = phi_on_circle(golden_path)(t)
    Fdot = 1j * golden_path.phidot(t, golden_path.phi(t)) * F
    assert np.max(np.abs(riccati_circle_residual(golden_path.params, t, F, Fdot))) < 1e-8


def test_boundary_values_trivial(trivial_path):
    # phi = 0 and P = t: S = e^{t/2} at the cut edges and 1 at t = 0
    S_plus, S_minus, S_at_0 = CirclePair(trivial_path).boundary(IDENTITY)
    T = trivial_path.params.T
    assert S_plus == pytest.approx(np.exp(T / 4), rel=1e-9)
    assert S_minus == pytest.approx(np.exp(-T / 4), rel=1e-9)
    assert S_at_0 == 1.0


def test_boundary_values_golden(golden_path):
    S_plus, S_minus, _ = CirclePair(golden_path).boundary(IDENTITY)
    # generic solution: the two cut edges carry different values
    Phi_plus, Phi_minus = (S_plus / abs(S_plus)) ** 2, (S_minus / abs(S_minus)) ** 2
    assert abs(Phi_plus - Phi_minus) > 1e-3
    assert abs(Phi_plus * np.conj(Phi_plus) - 1.0) < 1e-12
    T = golden_path.params.T
    assert Phi_plus == pytest.approx(np.exp(1j * golden_path.phi(T / 2)[0]), rel=1e-12)
    assert abs(S_plus) ** 2 == pytest.approx(np.exp(golden_path.P(T / 2)[0]), rel=1e-12)


@pytest.mark.parametrize("point", GOLDENS + ((3.0, 0.5, 0.8, 0.3),))
def test_boundary_is_the_one_point_eval(point):
    ell, mu, omega, phi0 = point
    path = solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=1e-12)
    edges = CirclePair(path).boundary(IDENTITY)
    T = path.params.T
    # S at the cut edges and at t = 0, one evaluation of the solution
    assert edges == tuple(path.solution(np.array([T / 2, -T / 2, 0.0]))[1])
    # the rows start at (e^{-i phi0/2}, e^{i phi0/2}), so S(0) is e^{i phi0/2} itself
    assert edges[2] == complex(math.cos(0.5 * phi0), math.sin(0.5 * phi0))


def _exp_of_the_lift(path, t):
    """(S, R, Rrec, Srec) as exp((P +- i phi)/2) from ``PhasePath.eval`` at t
    and -t, and their d/dt from the phase equation: the form ``CirclePair``
    had before it read the linear solution."""
    p = path.params
    u = np.concatenate((t, -t))
    phi, P = path.eval(u)
    dphi = p.Bdrive + p.A * np.cos(p.omega * u) - np.sin(phi)
    plus, minus = np.exp(0.5 * (P + 1j * phi)), np.exp(0.5 * (P - 1j * phi))
    dplus, dminus = 0.5 * (np.cos(phi) + 1j * dphi) * plus, 0.5 * (np.cos(phi) - 1j * dphi) * minus
    n = len(t)
    return ((plus[:n], minus[n:], minus[:n], plus[n:]),
            (dplus[:n], -dminus[n:], dminus[:n], -dplus[n:]))


@pytest.mark.parametrize("point", sorted(ORACLE))
def test_pair_products_are_the_exp_of_the_lift(point):
    # the four products are the solution (u, v) itself; they equal the exp
    # of the lifted (phi, P) to 8.9e-16 relative, and their derivatives, M y,
    # equal the phase equation's to 1.1e-15
    ell, mu, omega, phi0 = point
    path = solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=1e-12)
    t = grid(path, 1001)
    factors, dots = half_power_factors(path, t), half_power_factor_dots(path, t)
    ref_factors, ref_dots = _exp_of_the_lift(path, t)
    for got, ref in zip(factors, ref_factors):
        assert np.max(np.abs(got / ref - 1.0)) <= 2e-15
    for got, ref in zip(dots, ref_dots):
        assert np.max(np.abs(got - ref)) <= 4e-15


def test_half_power_factor_reciprocal_rule(golden_path):
    t = grid(golden_path, 101)
    S, R, Rrec, Srec = half_power_factors(golden_path, t)
    Sm, Rm, Rrecm, Srecm = half_power_factors(golden_path, -t)
    # evaluating at -t swaps the z and 1/z families
    assert np.max(np.abs(S - Srecm)) < 1e-12
    assert np.max(np.abs(Rrec - Rm)) < 1e-12


def test_half_power_dots_match_fd(golden_path):
    t = grid(golden_path, 51)
    h = 1e-6
    exact = half_power_factor_dots(golden_path, t)
    ahead = half_power_factors(golden_path, t + h)
    behind = half_power_factors(golden_path, t - h)
    for e, a, b in zip(exact, ahead, behind):
        assert np.max(np.abs(e - (a - b) / (2 * h))) < 1e-7


def test_theta_pair_trivial(trivial_path):
    pair = theta_pair_solve(trivial_path)
    t = np.linspace(0.0, trivial_path.params.T / 2, 51)
    # with Phi == 1 the difference grows like 2i e^t
    assert np.max(np.abs(pair.psi_route(t) - np.exp(t))) < 1e-10
    theta, theta_tilde = pair.values(np.array([0.0]))[:, 0]
    assert complex(theta) == pytest.approx(1j)
    assert complex(theta_tilde) == pytest.approx(-1j)


def test_theta_route_equivalence_golden(golden_path):
    pair = theta_pair_solve(golden_path)
    t = grid(golden_path, 1001)
    assert np.max(np.abs(pair.psi_route(t) - np.exp(golden_path.P(t)))) < 1e-9


@pytest.mark.parametrize("point", GOLDENS + FIXED_SWEEP_POINTS)
def test_theta_pair_matches_the_scalar_reference(point):
    ell, mu, omega, phi0 = point
    path = solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=1e-12)
    t = grid(path, 1001)
    pair = theta_pair_solve(path)
    theta, theta_tilde = pair.values(t)
    ref_theta, ref_theta_tilde = reference_theta_pair(path)(t)
    scale = np.max(np.abs(theta))
    assert np.max(np.abs(theta - ref_theta)) <= 1e-9 * scale
    assert np.max(np.abs(theta_tilde - ref_theta_tilde)) <= 1e-9 * scale


def test_theta_pair_outside_the_half_period_is_out_of_window(golden_path):
    pair = theta_pair_solve(golden_path)
    half = golden_path.params.T / 2
    pair.values(np.array([-half, half]))
    for t in (np.nextafter(half, np.inf), -np.nextafter(half, np.inf), np.nan):
        with pytest.raises(OutOfWindow):
            pair.values(np.array([0.0, t]))
        with pytest.raises(OutOfWindow):
            pair.psi_route(np.array([t]))


def test_theta_pair_one_point_is_bit_identical_to_the_array(golden_path):
    pair = theta_pair_solve(golden_path)
    half = golden_path.params.T / 2
    edges = np.concatenate((pair._fwd.ts, pair._bwd.ts))
    t = np.concatenate([np.random.default_rng(29).uniform(-half, half, 500),
                        edges[np.abs(edges) <= half], [0.0, -half, half]])
    one = np.array([pair.values(float(x))[:, 0] for x in t]).T
    assert np.array_equal(one, pair.values(t))


def test_theta_pair_row_edge_belongs_to_the_row_ending_there(golden_path):
    # the phase path's own edge rule: the value at path._fwd.ts[k + 1] is row
    # k's at its end, s = (ts[k + 1] - ts[k]) / h (1 up to rounding), not row
    # k + 1's start
    pair = theta_pair_solve(golden_path)
    half = golden_path.params.T / 2
    for rows, path_rows in ((pair._fwd, golden_path._fwd), (pair._bwd, golden_path._bwd)):
        k = np.flatnonzero(np.abs(path_rows.ts[1:rows.n + 1]) <= half)
        t = path_rows.ts[k + 1]
        mantissas = rows.values(k, (t - rows.ts[k]) / rows.h)
        scaled = np.ldexp(mantissas.view(float), rows.exponent[k][:, None]).view(complex)
        assert np.array_equal(pair.values(t), np.concatenate((scaled.T, scaled.T.conj())))


def test_theta_pair_collocates_nothing(golden_path, monkeypatch):
    # the pair is an exact integral of the phase rows: no Picard block runs,
    # so a kernel that refuses every block changes nothing
    expected = theta_pair_solve(golden_path).values(grid(golden_path, 1001))

    def refused(M, h):
        raise AssertionError("the theta pair collocated a block")

    monkeypatch.setattr(gauss, "row_propagators", refused)
    pair = theta_pair_solve(golden_path)
    assert np.array_equal(pair.values(grid(golden_path, 1001)), expected)


# sha256 of the bytes of ThetaPair.values(t), then of psi_route(t), on the
# 1001-point grid over [-T/2, T/2], recorded with Theta = i (1 + int conj(u)^2)
# integrated exactly on the phase rows' own polynomials, each row at twice
# their exponent (gauss.conj_square_quadrature), and psi_route read as
# Im Theta.
THETA_PAIR_SHA256 = {
    GOLDENS[0]: "07ea29f66654571befe8f99e5bc756afdb535e67e99a033b1c9f46b03c55eac3",
    GOLDENS[1]: "55ddc33e6b4462012871f844cc815baf7b57bc3149ab61b0b202870dbcb77dae",
    FIXED_SWEEP_POINTS[0]: "e867b36b1bd0b1ae02f38b6202bd4ce0b11b9479041af489d4a98e6e135fd82c",
}


@pytest.mark.parametrize("point", list(THETA_PAIR_SHA256))
def test_theta_pair_values_are_pinned_bit_for_bit(point):
    ell, mu, omega, phi0 = point
    path = solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=1e-12)
    t = grid(path, 1001)
    pair = theta_pair_solve(path)
    digest = hashlib.sha256(pair.values(t).tobytes() + pair.psi_route(t).tobytes())
    assert digest.hexdigest() == THETA_PAIR_SHA256[point]


def test_theta_pair_rows_stay_finite_where_e_P_overflows():
    # at omega = 0.004, P reaches 785 at t = +-T/2, past the float range of
    # e^P; each theta row keeps twice the exponent of the phase row it
    # integrates, and each row start is carried to the next row's exponent by
    # an exact power of two, so the quadrature warns of nothing and every
    # stored row start and coefficient is finite
    path = solve_phase(ModelParams(ell=1.0, mu=0.3, omega=0.004), 0.5, tol=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = theta_pair_solve(path)
    for rows in (pair._fwd, pair._bwd):
        assert np.isfinite(rows.y0).all() and np.isfinite(rows.coef).all()
        assert rows.exponent.max() > 1024  # the scale alone leaves the float range
    # where e^P fits, the route meets it to the rounding of some 1650 chained
    # rows (1.2e-13)
    t = grid(path, 1001)
    P = path.P(t)
    t, P = t[P < 700], P[P < 700]
    assert np.max(np.abs(pair.psi_route(t) / np.exp(P) - 1.0)) <= 1e-11


@pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
def test_theta_pair_nan_phase_fails_route_equivalence(golden_path):
    # a NaN phase row spoils the theta rows from there on: against the clean
    # path's e^P the route reads NaN, which its gate fails and never passes,
    # and so does the circle check on the spoiled path
    coef = golden_path._fwd.coef.copy()
    coef[:, 3] = np.nan
    spoiled = dataclasses.replace(golden_path,
                                  _fwd=dataclasses.replace(golden_path._fwd, coef=coef))
    t = grid(golden_path, 1001)
    route = np.max(np.abs(theta_pair_solve(spoiled).psi_route(t) - np.exp(golden_path.P(t))))
    failures = []
    assert verify._gate(failures, "route_equivalence", route, "route_equivalence") == "nan"
    assert failures == ["route_equivalence = nan > 1.0e-09"]
    report, failures = verify.check_circle(spoiled, 1001)
    assert report["route_equivalence"] == "nan"
    assert "route_equivalence = nan > 1.0e-09" in failures


def _mutant(drop: str):
    """gauss.conj_square_quadrature with every ``.conj()`` call (drop =
    "conj") or every factor 1j (drop = "i") taken out of its source."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(gauss.conj_square_quadrature)))
    dropped = []

    class Drop(ast.NodeTransformer):
        def visit_Call(self, node):
            self.generic_visit(node)
            if drop == "conj" and isinstance(node.func, ast.Attribute) and node.func.attr == "conj":
                dropped.append(node.lineno)
                return node.func.value
            return node

        def visit_BinOp(self, node):
            self.generic_visit(node)
            if drop == "i" and isinstance(node.op, ast.Mult) and isinstance(node.left, ast.Constant) \
                    and node.left.value == 1j:
                dropped.append(node.lineno)
                return node.right
            return node

    tree = ast.fix_missing_locations(Drop().visit(tree))
    assert len(dropped) == 1, dropped
    namespace = dict(vars(gauss))
    exec(compile(tree, "<mutant>", "exec"), namespace)
    return namespace["conj_square_quadrature"]


def test_dropping_the_conj_fails_the_pins_and_the_reference(monkeypatch):
    # Theta' = i conj(u)^2; with the conj dropped Re Theta changes sign, so
    # the pinned values and the scalar reference fail.  Im(i z) = Re z =
    # Im(i conj z), so Im Theta, the route to e^P, keeps every bit:
    # route_equivalence cannot see this mutant, only the one below
    point = GOLDENS[0]
    ell, mu, omega, phi0 = point
    path = solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=1e-12)
    t = grid(path, 1001)
    clean = theta_pair_solve(path)
    monkeypatch.setattr(gauss, "conj_square_quadrature", _mutant("conj"))
    pair = theta_pair_solve(path)
    digest = hashlib.sha256(pair.values(t).tobytes() + pair.psi_route(t).tobytes())
    assert digest.hexdigest() != THETA_PAIR_SHA256[point]
    ref_theta = reference_theta_pair(path)(t)[0]
    assert np.max(np.abs(pair.values(t)[0] - ref_theta)) > 0.1 * np.max(np.abs(ref_theta))
    assert np.array_equal(pair.psi_route(t), clean.psi_route(t))


def test_dropping_the_i_fails_route_equivalence(golden_path, monkeypatch):
    # Theta' = conj(u)^2 instead of i conj(u)^2: Im Theta becomes
    # -int e^P sin(phi), far from e^P
    report, failures = verify.check_circle(golden_path, 1001)
    assert failures == []
    monkeypatch.setattr(gauss, "conj_square_quadrature", _mutant("i"))
    report, failures = verify.check_circle(golden_path, 1001)
    assert report["route_equivalence"] > 0.1
    assert [f.split(" = ")[0] for f in failures] == ["route_equivalence"]


# --- pole handling: an exactly solvable continuation with a pole on the ray

# drive-free order-zero point started at phi0 = pi/2: along the ray from
# z = 1, w = log z real, the continued solution is tanh(i pi/4 - i w/2), with
# a pole at w = -pi/2, rho = e^{-pi/2} ~ 0.2079, inside the guarded annulus
POLE_PARAMS = ModelParams(ell=0.0, mu=0.0, omega=1.0)


def _continue_from_pole_start(w: float) -> tuple[complex, bool]:
    (end,) = continue_riccati_path(POLE_PARAMS, [cmath.exp(0.5j * np.pi)], w)
    return end


def _exact_pole_solution(w: float) -> complex:
    return cmath.tanh(1j * np.pi / 4 - 0.5j * w)


def test_continuation_through_pole():
    w = np.log(0.2)
    val, pole = _continue_from_pole_start(w)
    assert not pole
    # (u, v) passes the pole at e^{-pi/2} with no chart: 3.1e-15 relative
    assert abs(val - _exact_pole_solution(w)) < 1e-12 * abs(_exact_pole_solution(w))


def test_endpoint_on_pole_flagged():
    val, pole = _continue_from_pole_start(-np.pi / 2)
    assert pole


def test_exact_values_before_pole():
    for w in np.log((0.5, 0.25)):
        val, pole = _continue_from_pole_start(w)
        assert not pole
        # 2.2e-16 and 1.0e-15
        assert abs(val - _exact_pole_solution(w)) < 1e-12 * max(1, abs(_exact_pole_solution(w)))
