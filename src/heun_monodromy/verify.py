"""Verification battery: every certified identity with its pinned budget.

The budgets form a ladder: quadrature-level checks at 1e-8..1e-12, single
transforms at 1e-7, doubly-composed quantities at 1e-6.  The same table
drives both the command-line ``verify`` subcommand and the acceptance test
suite; nothing is calibrated at run time.
"""

from __future__ import annotations

import math

import numpy as np

from . import circle as circle_mod
from . import heun as heun_mod
from . import monodromy as monodromy_mod
from . import sqrtmono as sqrt_mod
from .heunpoly import NumericQuad, PolyQuadruple, check_parity, diagonal
from .params import ModelParams
from .phase import PhasePath, solve_phase

ALL_CHECKS = ("ode", "monodromy", "poly-exact", "heun", "theorem2")

BUDGETS: dict[str, float] = {
    # circle layer
    "ode_residual": 1e-11,
    "time_translation_residual": 1e-11,
    "unimodularity": 1e-10,
    "branch_squares": 1e-12,
    "psi_ode_residual": 1e-8,
    "riccati_circle": 1e-8,
    "route_equivalence": 1e-9,
    # monodromy layer
    "monodromy_sup": 1e-8,
    "monodromy_boundary": 1e-8,
    "monodromy_unimodularity": 1e-9,
    "monodromy_riccati": 1e-7,
    "ray_residual": 1e-7,
    # linear-basis layer
    "pair_ode": 1e-8,
    "dche": 1e-7,
    "boundary_E": 1e-10,
    "phi_alpha_identity": 1e-9,
    "phi_alpha_unimodular": 1e-8,
    "phi_alpha_riccati": 1e-7,
    # operator layer
    "lb_maps_solutions": 1e-6,
    "matrix_action": 1e-6,
    "b_squared_operator": 1e-6,
    "det_relation": 1e-5,
    # transform layer
    "theorem2_phi_riccati": 1e-7,
    "theorem2_unimodularity": 1e-8,
    "theorem2_psi_equation": 1e-6,
    "theorem2_psi_at_1": 1e-8,
    "theorem2_psi_quadrature": 1e-8,
    "theorem2_theta_system": 1e-6,
    "theorem2_theta_ic": 1e-8,
    "theorem2_psi_reciprocal": 1e-8,
    "theorem2_b_squared": 1e-6,
}

PHI_ALPHA_VALUES = (0.0, 0.7, np.pi / 2, 2.1)


def _reportable(value: float) -> float | str:
    """``value`` as the report writes it: "nan" or "inf" when not finite."""
    return value if math.isfinite(value) else str(value)


def _gate(failures: list[str], name: str, value: float, budget_key: str):
    """Fail ``value`` unless it is within ``BUDGETS[budget_key]`` (a NaN
    fails); return it as the report writes it."""
    budget = BUDGETS[budget_key]
    value = float(value)
    if not value <= budget:
        failures.append(f"{name} = {value:.3e} > {budget:.1e}")
    return _reportable(value)


def _record(report: dict, failures: list[str], name: str, value: float, budget_key: str):
    report[name] = _gate(failures, name, value, budget_key)


def check_ode(path: PhasePath, grid_size: int) -> tuple[dict, list[str]]:
    """Collocation-polynomial residuals plus the period-shift property."""
    report: dict = {}
    failures: list[str] = []
    t = np.linspace(path.t_min + 0.01, path.t_max - 0.01, grid_size)
    _record(report, failures, "ode_residual", np.max(path.ode_residual(t)), "ode_residual")
    report["err_est"] = path.err_est
    tt = path.time_translation_residual(grid_size)
    _record(report, failures, "time_translation_residual", tt, "time_translation_residual")
    return report, failures


def check_circle(path: PhasePath, grid_size: int) -> tuple[dict, list[str]]:
    report: dict = {}
    failures: list[str] = []
    T = path.params.T
    t = np.linspace(-T / 2, T / 2, grid_size)

    phi, P = path.eval(t)
    F, psi = np.exp(1j * phi), np.exp(P)
    _record(report, failures, "unimodularity", np.max(np.abs(np.abs(F) - 1)), "unimodularity")

    branch = (np.abs(np.exp(0.5j * phi) ** 2 - F), np.abs(np.exp(0.5 * P) ** 2 - psi))
    _record(report, failures, "branch_squares", np.max(branch), "branch_squares")

    # quadrature equation along the circle, derivative from the polynomial
    dP = path.derivative(t)[1]
    res_psi = np.abs(2.0 * dP * psi - (F + 1.0 / F) * psi)
    _record(report, failures, "psi_ode_residual", np.max(res_psi), "psi_ode_residual")

    # Riccati residual of Phi itself (analytic phase derivative)
    Fdot = 1j * path.phidot(t, phi) * F
    ric = circle_mod.riccati_circle_residual(path.params, t, F, Fdot)
    _record(report, failures, "riccati_circle", np.max(np.abs(ric)), "riccati_circle")

    route = np.max(np.abs(circle_mod.theta_pair_solve(path).psi_route(t) - psi))
    _record(report, failures, "route_equivalence", route, "route_equivalence")
    return report, failures


def check_monodromy(
    path: PhasePath, grid_size: int, rhos: tuple[float, ...], tol: float
) -> tuple[dict, list[str]]:
    report = monodromy_mod.verify_monodromy(path, grid_size=grid_size, rhos=rhos, tol=tol)
    failures: list[str] = []
    pairs = (
        ("sup_residual_circle", "monodromy_sup"),
        ("boundary_residual", "monodromy_boundary"),
        ("unimodularity_residual", "monodromy_unimodularity"),
        ("riccati_residual", "monodromy_riccati"),
    )
    for key, budget_key in pairs:
        _record(report, failures, key, report[key], budget_key)
    report["ray_residuals"] = [
        [rho, _gate(failures, f"ray_residual(rho={rho})", res, "ray_residual")]
        for rho, res in report["ray_residuals"]
    ]
    return report, failures


def check_poly_exact() -> tuple[dict, list[str], dict[int, PolyQuadruple]]:
    """Exact-arithmetic identity suite for orders 1..6, and its quadruples by order."""
    report: dict = {}
    failures: list[str] = []
    quads = {ell: diagonal(ell) for ell in range(1, 7)}  # raises DegreeClaimViolated
    for ell, quad in quads.items():
        ok_p, wit_p = check_parity(quad)
        ok_o, wit_o = quad.ode
        if ok_p and ok_o:
            quad.D  # raises NotConstant if D misses its boundary form
        report[f"ell_{ell}"] = "exact" if (ok_p and ok_o) else f"FAIL {wit_p or ''} {wit_o or ''}"
        if not ok_p:
            failures.append(f"parity identities fail at ell={ell}: {wit_p}")
        if not ok_o:
            failures.append(f"ode system fails at ell={ell}: {wit_o}")
    return report, failures, quads


def _phi_alpha_battery(path: PhasePath, grid_size: int) -> tuple[dict, list[str]]:
    report: dict = {}
    failures: list[str] = []
    p = path.params
    t = np.linspace(-p.T / 2, p.T / 2, grid_size)
    factors, dots = circle_mod.CirclePair(path.solution, p)(t)
    for alpha in PHI_ALPHA_VALUES:
        vals, dvals = heun_mod.phi_alpha_values(factors, dots, t, alpha)
        uni = float(np.max(np.abs(np.abs(vals) - 1)))
        _record(report, failures, f"phi_alpha_unimodular[{alpha:.4g}]", uni, "phi_alpha_unimodular")
        ric = circle_mod.riccati_circle_residual(p, t, vals, dvals)
        _record(
            report,
            failures,
            f"phi_alpha_riccati[{alpha:.4g}]",
            float(np.max(np.abs(ric))),
            "phi_alpha_riccati",
        )
    ident = heun_mod.phi_alpha_values(factors, dots, t, np.pi / 2)[0]
    _record(
        report,
        failures,
        "phi_alpha_identity",
        float(np.max(np.abs(ident - np.exp(1j * path.phi(t))))),
        "phi_alpha_identity",
    )
    return report, failures


def check_heun(path: PhasePath, nq: NumericQuad, grid_size: int) -> tuple[dict, list[str]]:
    report: dict = {}
    failures: list[str] = []
    hb = heun_mod.build_E(circle_mod.phi_on_circle(path), circle_mod.psi_on_circle(path))

    b = hb.at(heun_mod.residual_grid(hb))
    _record(report, failures, "pair_ode", heun_mod.pair_ode_residual(b), "pair_ode")
    _record(report, failures, "dche", heun_mod.dche_residual(b), "dche")
    rng = np.random.default_rng(314159)
    combo = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
    _record(report, failures, "dche_combo", heun_mod.dche_residual(b, coeffs=combo), "dche")

    b0 = hb.at(0.0)
    e_bound = []
    for s in (+1, -1):
        direct, closed = heun_mod.boundary_E_values(b0, s)
        e_bound += [abs(direct - closed), abs(float(b0.E(s)[0].imag))]
    _record(report, failures, "boundary_E", np.max(e_bound), "boundary_E")

    rep_a, fail_a = _phi_alpha_battery(path, grid_size)
    report.update(rep_a)
    failures.extend(fail_a)

    # operator layer: the image of L_B must again solve the second-order
    # equation.  F and F' are closed-form; F'' comes from a symmetric
    # difference of the closed-form F' (floor ~1e-9, far below the budget).
    # Rows: the images of E+ and of E-.
    omega = path.params.omega
    t_op = np.linspace(-path.params.T / 2, path.params.T / 2, 401)
    z = np.exp(1j * omega * t_op)
    h = 1e-5
    coeffs = heun_mod.BASIS_COEFFS

    def Fprime(u):
        zu = np.exp(1j * omega * u)
        return heun_mod.apply_B_and_dot(hb, nq, u, coeffs=coeffs)[1] / (1j * omega * zu)

    images, images_dot = heun_mod.apply_B_and_dot(hb, nq, t_op, coeffs=coeffs)
    images_p = images_dot / (1j * omega * z)
    images_pp = (Fprime(t_op + h) - Fprime(t_op - h)) / (2 * h) / (1j * omega * z)
    lb_maps = []
    for vals, valsp, valspp, tag in zip(images, images_p, images_pp, ("plus", "minus")):
        res = heun_mod.dche_operator(path.params, hb.ell, z, vals, valsp, valspp)
        scale = max(float(np.max(np.abs(vals))), 1e-300)
        lb_maps.append(float(np.max(np.abs(res))) / scale)
        _record(report, failures, f"lb_maps_solutions_{tag}", lb_maps[-1], "lb_maps_solutions")

    matrix = heun_mod.build_matrix_B(hb, nq)
    _record(
        report,
        failures,
        "matrix_action",
        heun_mod.matrix_action_residual(hb, nq, matrix),
        "matrix_action",
    )
    det = heun_mod.det_relation_residual(matrix, nq.D)
    _record(report, failures, "det_relation", det, "det_relation")

    comp = heun_mod.check_B_squared(hb, nq)
    b_sq = (comp["residual_e_plus"], comp["residual_e_minus"], comp["residual_random_combo"])
    _record(report, failures, "b_squared_operator", np.max(b_sq), "b_squared_operator")
    report["lift_convention"] = comp["lift_convention"]

    report["operations"] = [
        heun_mod.operation_report("pair_ode", path.params, len(b.t), report["pair_ode"]),
        heun_mod.operation_report("dche", path.params, len(b.t), report["dche"]),
        heun_mod.operation_report(
            "apply_B_dche", path.params, len(t_op), _reportable(float(np.max(lb_maps)))
        ),
        heun_mod.operation_report(
            "matrix_action", path.params, heun_mod.MATRIX_ACTION_GRID, report["matrix_action"]
        ),
        heun_mod.operation_report(
            "b_squared", path.params, comp["grid_size"], report["b_squared_operator"]
        ),
    ]
    return report, failures


def check_theorem2(path: PhasePath, nq: NumericQuad, grid_size: int) -> tuple[dict, list[str]]:
    rep = sqrt_mod.verify_theorem2(path, nq, grid_size=grid_size)
    failures: list[str] = []
    pairs = (
        ("sup_phi_residual", "theorem2_phi_riccati"),
        ("unimodularity_residual", "theorem2_unimodularity"),
        ("phase_equation_residual", "theorem2_psi_equation"),
        ("psi_equation_residual", "theorem2_psi_equation"),
        ("psi_at_1_residual", "theorem2_psi_at_1"),
        ("psi_quadrature_residual", "theorem2_psi_quadrature"),
        ("theta_system_residual", "theorem2_theta_system"),
        ("theta_ic_residual", "theorem2_theta_ic"),
        ("psi_reciprocal_residual", "theorem2_psi_reciprocal"),
        ("b_squared_residual", "theorem2_b_squared"),
    )
    for key, budget_key in pairs:
        _record(rep, failures, key, rep[key], budget_key)
    return rep, failures


def run_battery(
    params: ModelParams,
    phi0: float,
    tol: float = 1e-12,
    grid_size: int = 1001,
    rhos: tuple[float, ...] = circle_mod.DEFAULT_RHOS,
    checks: tuple[str, ...] = ALL_CHECKS,
) -> tuple[dict, list[str]]:
    """Run the requested checks at one parameter point.

    The point is gated before anything is solved: the heun and theorem2
    checks need an integer order and the float view of its quadruple, which
    refuses a non-generic point.  The exact suite needs no path, so it runs
    first and hands that view the quadruple it proved.  Returns (report,
    failures); failures empty means every budget held.
    """
    report: dict = {
        "params": {"ell": params.ell, "mu": params.mu, "omega": params.omega},
        "phi0": phi0,
        "tol": tol,
        "grid_size": grid_size,
    }
    failures: list[str] = []
    quads = {}  # the quadruples proven in this run, by order
    if "poly-exact" in checks:
        exact, exact_failures, quads = check_poly_exact()
    if "heun" in checks or "theorem2" in checks:
        ell = params.require_integer_order()
        nq = NumericQuad(quads[ell] if ell in quads else diagonal(ell), params)

    needs_path = any(c in checks for c in ("ode", "monodromy", "heun", "theorem2"))
    path = solve_phase(params, phi0, tol=tol) if needs_path else None
    if "ode" in checks:
        rep, fail = check_ode(path, grid_size)
        rep_c, fail_c = check_circle(path, grid_size)
        rep.update(rep_c)
        report["ode"] = rep
        failures.extend(fail + fail_c)
    if "monodromy" in checks:
        rep, fail = check_monodromy(path, grid_size, rhos, tol)
        report["monodromy"] = rep
        failures.extend(fail)
    if "poly-exact" in checks:  # in the report's order, though it ran first
        report["poly_exact"] = exact
        failures.extend(exact_failures)
    if "heun" in checks:
        rep, fail = check_heun(path, nq, grid_size)
        report["heun"] = rep
        failures.extend(fail)
    if "theorem2" in checks:
        rep, fail = check_theorem2(path, nq, grid_size)
        report["theorem2"] = rep
        failures.extend(fail)
    report["failures"] = failures
    report["passed"] = not failures
    return report, failures
