"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from heun_monodromy import ModelParams, solve_phase
from heun_monodromy.circle import phi_on_circle, psi_on_circle, theta_pair_solve
from heun_monodromy.cli import main as cli_main
from heun_monodromy.heun import (
    boundary_E_values,
    build_E,
    build_matrix_B,
    check_B_squared,
    dche_residual,
    matrix_action_residual,
    pair_ode_residual,
    phi_alpha_values,
    residual_grid,
)
from heun_monodromy.heunpoly import (
    NumericQuad,
    check_ode_system,
    check_parity,
    diagonal,
    first_integral,
)
from heun_monodromy.monodromy import monodromy_algebraic, monodromy_direct, verify_monodromy
from heun_monodromy.sqrtmono import verify_theorem2


def _report(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_exact_symbolic_suite():
    start = time.perf_counter()
    for ell in range(1, 7):
        quad = diagonal(ell)  # degree claim asserted inside
        ok, witness = check_parity(quad)
        assert ok, f"parity at ell={ell}: {witness}"
        ok, witness = check_ode_system(quad)
        assert ok, f"ode system at ell={ell}: {witness}"
        first_integral(quad)  # z-independence + boundary form, exact
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _report(1, f"exact identities for ell=1..6 in {elapsed:.2f}s")


def test_criterion_2_ell1_closed_forms():
    quad = diagonal(1)
    texts = tuple(p.canonical_text() for p in quad.as_tuple())
    assert texts == ("1", "mu - mu*z^2", "mu", "lam + mu^2 - mu^2*z^2")
    assert first_integral(quad).terms == {(0, 1, 0): 1}  # D = lam exactly
    params = ModelParams(ell=1, mu=0.2, omega=1.3)
    nq = NumericQuad(quad, params)
    assert nq.d_plus == pytest.approx(1 + params.A, rel=1e-14)
    assert nq.d_minus == pytest.approx(1 - params.A, rel=1e-14)
    _report(2, "order-1 quadruple, D = lam and D+- = 1 +- A byte-exact")


def test_criterion_3_monodromy_formula():
    start = time.perf_counter()
    params = ModelParams(ell=2, mu=0.3, omega=1.0)

    def sup_residual(tol, grid):
        path = solve_phase(params, 0.5, tol=tol)
        t = np.linspace(-params.T / 2, params.T / 2, grid)
        alg = monodromy_algebraic(path, t)
        return float(np.max(np.abs(alg - monodromy_direct(path, t))))

    sup1 = sup_residual(1e-12, 1001)
    assert sup1 <= 1e-8
    sup2 = sup_residual(5e-13, 2001)
    floor = 1e-13  # both residuals sit near round-off; compare above it
    assert max(sup2, floor) <= 2.0 * max(sup1, floor)
    assert max(sup1, floor) <= 2.0 * max(sup2, floor)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    _report(3, f"sup residual {sup1:.2e} <= 1e-8, refinement-stable, {elapsed:.2f}s")


def test_criterion_4_ray_monodromy(golden_path):
    rep = verify_monodromy(golden_path, grid_size=201, rhos=[0.8, 1.25])
    for rho, res in rep["ray_residuals"]:
        assert res <= 1e-7, (rho, res)
    _report(4, f"cut-edge continuations agree: {rep['ray_residuals']}")


def test_criterion_5_heun_layer(golden_path):
    hb = build_E(phi_on_circle(golden_path), psi_on_circle(golden_path))
    b = hb.at(residual_grid(hb))
    r21 = pair_ode_residual(b)
    assert r21 <= 1e-8
    r22 = dche_residual(b)
    assert r22 <= 1e-7
    for s in (+1, -1):
        direct, closed = boundary_E_values(hb.at(0.0), s)
        assert abs(direct - closed) <= 1e-10
    T = golden_path.params.T
    t = np.linspace(-T / 2, T / 2, 1001)
    ident = phi_alpha_values(*hb.pair(t), t, np.pi / 2)[0]
    r_id = float(np.max(np.abs(ident - np.exp(1j * golden_path.phi(t)))))
    assert r_id <= 1e-9
    for alpha in (0.0, 0.7, np.pi / 2, 2.1):
        vals = phi_alpha_values(*hb.pair(t), t, alpha)[0]
        assert float(np.max(np.abs(np.abs(vals) - 1))) <= 1e-8
    _report(5, f"pair {r21:.1e}, second-order {r22:.1e}, identity {r_id:.1e}")


def test_criterion_6_operator_law(golden_path, golden_quad, golden2_path, golden2_quad):
    # image solves the equation
    hb = build_E(phi_on_circle(golden_path), psi_on_circle(golden_path))
    from heun_monodromy.heun import apply_B, apply_B_and_dot

    omega = golden_path.params.omega
    T = golden_path.params.T
    t = np.linspace(-T / 2, T / 2, 401)
    z = np.exp(1j * omega * t)
    lam, mu, ell = golden_path.params.lam, golden_path.params.mu, hb.ell
    h = 1e-5

    def Fp(u):
        zu = np.exp(1j * omega * u)
        return apply_B_and_dot(hb, golden_quad, u, coeffs=(1.0, 0.0))[1] / (1j * omega * zu)

    vals = apply_B(hb, golden_quad, t, coeffs=(1.0, 0.0))
    valsp = Fp(t)
    valspp = (Fp(t + h) - Fp(t - h)) / (2 * h) / (1j * omega * z)
    res = (
        z**2 * valspp + ((ell + 1) * z + mu * (1 - z**2)) * valsp
        + (lam - mu * (ell + 1) * z) * vals
    )
    r_img = float(np.max(np.abs(res)) / np.max(np.abs(vals)))
    assert r_img <= 1e-6

    r_mat = matrix_action_residual(hb, golden_quad, build_matrix_B(hb, golden_quad))
    assert r_mat <= 1e-6

    conventions = set()
    residuals = []
    for path, quad in ((golden_path, golden_quad), (golden2_path, golden2_quad)):
        basis = build_E(phi_on_circle(path), psi_on_circle(path))
        rep = check_B_squared(basis, quad)
        conventions.add(rep["lift_convention"])
        residuals.append(
            max(rep["residual_e_plus"], rep["residual_e_minus"], rep["residual_random_combo"])
        )
    assert all(r <= 1e-6 for r in residuals)
    assert conventions == {"t+T/2"}  # one global lift convention
    _report(6, f"image {r_img:.1e}, matrix {r_mat:.1e}, composition {max(residuals):.1e}")


@pytest.mark.parametrize(
    "point",
    [
        dict(ell=2, mu=0.3, omega=1.0, phi0=0.5),
        dict(ell=1, mu=0.2, omega=1.3, phi0=1.0),
    ],
    ids=["set1", "set2"],
)
def test_criterion_7_theorem2(point):
    start = time.perf_counter()
    params = ModelParams(ell=point["ell"], mu=point["mu"], omega=point["omega"])
    path = solve_phase(params, point["phi0"], tol=1e-12)
    nq = NumericQuad(diagonal(int(point["ell"])), params)
    rep = verify_theorem2(path, nq, grid_size=1001)
    assert rep["sup_phi_residual"] <= 1e-7  # transformed solution solves the Riccati eq
    assert rep["unimodularity_residual"] <= 1e-8
    assert rep["psi_equation_residual"] <= 1e-6
    assert rep["psi_at_1_residual"] <= 1e-8
    assert rep["theta_system_residual"] <= 1e-6
    assert rep["theta_ic_residual"] <= 1e-8
    assert rep["b_squared_residual"] <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed <= 20.0
    _report(
        7,
        f"ell={point['ell']}: B^2=M at {rep['b_squared_residual']:.1e} in {elapsed:.1f}s",
    )


def test_criterion_8_degenerate_gating(capsys):
    code = cli_main(
        ["verify", "--ell", "1", "--mu", "0.5", "--omega", "1", "--phi0", "0.5",
         "--tol", "1e-10", "--grid", "101", "--checks", "theorem2"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "nan" not in (captured.out + captured.err).lower()

    code = cli_main(
        ["verify", "--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0",
         repr(float(np.pi / 2)), "--tol", "1e-10", "--grid", "101", "--checks", "heun"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "nan" not in (captured.out + captured.err).lower()
    _report(8, "degenerate points exit with code 2 and no NaN output")


def test_criterion_9_route_equivalence(golden_path):
    pair = theta_pair_solve(golden_path)
    T = golden_path.params.T
    t = np.linspace(-T / 2, T / 2, 1001)
    res = float(np.max(np.abs(pair.psi_route(t) - np.exp(golden_path.P(t)))))
    assert res <= 1e-9
    _report(9, f"quadrature vs theta-pair agreement {res:.1e}")
