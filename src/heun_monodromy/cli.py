"""Command-line front end.

Exit codes: 0 all requested checks pass, 1 a tolerance budget failed,
2 the parameter point is degenerate (vanishing D factor or cos(phi(0))),
3 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .circle import RHO_MAX, RHO_MIN
from .errors import (
    DegenerateAtOne,
    GenericityViolated,
    HeunMonodromyError,
    NonIntegerOrder,
    NonPositiveOmega,
    ToleranceNotMet,
)
from .heunpoly import (
    MAX_ELL,
    NumericQuad,
    check_ode_system,
    check_parity,
    d_plus_minus,
    diagonal,
    first_integral,
)
from .jsonio import canonical_json
from .params import ModelParams
from .phase import TOL_MAX, TOL_MIN, solve_phase
from .verify import ALL_CHECKS, check_monodromy, check_theorem2, run_battery

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_DEGENERATE = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 3
        raise UsageError(message)


def finite_float(text: str) -> float:
    """A float that is neither NaN nor infinite (argparse reports the ValueError)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _add_point_args(p: argparse.ArgumentParser):
    p.add_argument("--ell", type=finite_float, required=True)
    p.add_argument("--mu", type=finite_float, required=True)
    p.add_argument("--omega", type=finite_float, required=True)
    p.add_argument("--phi0", type=finite_float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--grid", type=int, default=1001)


def _params(ell: float, mu: float, omega: float) -> ModelParams:
    try:
        return ModelParams(ell=ell, mu=mu, omega=omega)
    except NonPositiveOmega as exc:
        raise UsageError(str(exc)) from exc


def _validate_common(args):
    if not (TOL_MIN <= args.tol <= TOL_MAX):
        raise UsageError(f"--tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    if args.grid < 101:
        raise UsageError("--grid must be >= 101")


def _parse_checks(text: str | None) -> tuple[str, ...]:
    checks = tuple(text.split(",")) if text else ALL_CHECKS
    for c in checks:
        if c not in ALL_CHECKS:
            raise UsageError(f"unknown check {c!r}; choose from {','.join(ALL_CHECKS)}")
    return checks


def _parse_rhos(text: str | None) -> list[float]:
    if not text:
        return [0.8, 1.25]
    try:
        rhos = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --rhos value {text!r}") from exc
    if not all(RHO_MIN <= rho <= RHO_MAX for rho in rhos):  # NaN fails too
        raise UsageError(f"--rhos values must lie in [{RHO_MIN}, {RHO_MAX}]")
    return rhos


def cmd_solve(args) -> int:
    _validate_common(args)
    params = _params(args.ell, args.mu, args.omega)
    path = solve_phase(params, args.phi0, tol=args.tol)
    t = np.linspace(path.t_min, path.t_max, args.grid)
    phi_vals, P_vals = path.eval(t)
    lines = ["t,phi,P"]
    for ti, pi, Pi in zip(t, phi_vals, P_vals):
        lines.append(f"{ti:.17g},{pi:.17g},{Pi:.17g}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.circle_out:
        from .circle import theta_pair_solve

        pair = theta_pair_solve(path)
        tc = np.linspace(-params.T / 2, params.T / 2, args.grid)
        F = np.exp(1j * path.phi(tc))
        psi = np.exp(path.P(tc))
        th, tht = pair.values(tc)
        rows = ["t,re_phi,im_phi,psi,re_theta,im_theta,re_theta_tilde,im_theta_tilde"]
        for i, ti in enumerate(tc):
            rows.append(
                f"{ti:.17g},{F[i].real:.17g},{F[i].imag:.17g},{psi[i]:.17g},"
                f"{th[i].real:.17g},{th[i].imag:.17g},{tht[i].real:.17g},{tht[i].imag:.17g}"
            )
        with open(args.circle_out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    summary = {
        "params": {"ell": params.ell, "mu": params.mu, "omega": params.omega},
        "phi0": args.phi0,
        "tol": args.tol,
        "err_est": path.err_est,
        "window": [path.t_min, path.t_max],
        "rows": args.grid,
    }
    sys.stderr.write(canonical_json(summary) + "\n")
    return EXIT_OK


def cmd_poly(args) -> int:
    if not (1 <= args.ell_int <= MAX_ELL):
        raise UsageError(f"--ell must be an integer in 1..{MAX_ELL}")
    quad = diagonal(args.ell_int)
    names = ("p", "q", "r", "s")
    out = []
    for name, poly in zip(names, quad.as_tuple()):
        out.append(f"{name} = {poly.canonical_text()}")
    D = first_integral(quad)
    from .exactpoly import LaurentPoly

    d_poly = LaurentPoly({0: D})
    out.append(f"D = {d_poly.canonical_text()}")
    sys.stdout.write("\n".join(out) + "\n")
    obj = {name: poly.to_json_obj() for name, poly in zip(names, quad.as_tuple())}
    obj["D"] = d_poly.to_json_obj()
    sys.stdout.write(canonical_json(obj) + "\n")
    if args.check:
        ok_p, wit_p = check_parity(quad)
        ok_o, wit_o = check_ode_system(quad)
        if not (ok_p and ok_o):
            sys.stderr.write(f"exact checks failed: {wit_p or ''} {wit_o or ''}\n")
            return EXIT_TOLERANCE
        sys.stderr.write("exact checks passed\n")
    return EXIT_OK


def _battery_exit(failures: list[str]) -> int:
    return EXIT_OK if not failures else EXIT_TOLERANCE


def cmd_verify(args) -> int:
    _validate_common(args)
    params = _params(args.ell, args.mu, args.omega)
    checks = _parse_checks(args.checks)
    report, failures = run_battery(
        params,
        args.phi0,
        tol=args.tol,
        grid_size=args.grid,
        rhos=_parse_rhos(args.rhos),
        checks=checks,
    )
    text = canonical_json(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return _battery_exit(failures)


def cmd_monodromy(args) -> int:
    _validate_common(args)
    params = _params(args.ell, args.mu, args.omega)
    rhos = _parse_rhos(args.rhos)
    path = solve_phase(params, args.phi0, tol=args.tol)
    report, failures = check_monodromy(path, args.grid, rhos, args.tol)
    sys.stdout.write(canonical_json(report) + "\n")
    return _battery_exit(failures)


def cmd_sqrt_monodromy(args) -> int:
    _validate_common(args)
    params = _params(args.ell, args.mu, args.omega)
    quad = diagonal(params.require_integer_order())
    d_plus_minus(quad, params)  # raises GenericityViolated before any solve
    nq = NumericQuad(quad, params)
    path = solve_phase(params, args.phi0, tol=args.tol)
    rep, failures = check_theorem2(path, nq, args.grid)
    sys.stdout.write(canonical_json({"theorem2": rep}) + "\n")
    return _battery_exit(failures)


def _parse_points(text: str) -> list[tuple[dict, ModelParams]]:
    """Sweep points with their parameters, all validated before any runs."""
    points = []
    for chunk in text.split(";"):
        try:
            vals = [finite_float(x) for x in chunk.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad sweep point {chunk!r}: values must be finite numbers") from exc
        if len(vals) not in (3, 4):
            raise UsageError("each sweep point is ell,mu,omega[,phi0]")
        point = {
            "ell": vals[0],
            "mu": vals[1],
            "omega": vals[2],
            "phi0": vals[3] if len(vals) == 4 else 0.0,
        }
        points.append((point, _params(vals[0], vals[1], vals[2])))
    return points


def _sweep_one(point: dict, params: ModelParams, tol: float, grid: int, checks: tuple[str, ...]):
    try:
        report, failures = run_battery(
            params, point["phi0"], tol=tol, grid_size=grid, checks=checks
        )
        code = _battery_exit(failures)
    except (GenericityViolated, DegenerateAtOne, NonIntegerOrder) as exc:
        report = {"params": point, "error": str(exc)}
        code = EXIT_DEGENERATE
    except HeunMonodromyError as exc:
        # a certificate that could not be computed fails this point only
        report = {"params": point, "failures": [f"{type(exc).__name__}: {exc}"], "passed": False}
        code = EXIT_TOLERANCE
    return report, code


def cmd_sweep(args) -> int:
    _validate_common(args)
    points = _parse_points(args.points)
    checks = _parse_checks(args.checks)
    # one point after another: the integrators are pure-Python loops, which
    # threads only serialize on the interpreter lock
    results = [_sweep_one(pt, params, args.tol, args.grid, checks) for pt, params in points]
    report = {"points": [r for r, _ in results]}
    text = canonical_json(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    worst = max((c for _, c in results), default=EXIT_OK)
    return worst


def build_parser() -> _Parser:
    parser = _Parser(prog="heun-monodromy")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="integrate the phase equation, dump CSV")
    _add_point_args(p)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--circle-out", type=str, default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("poly", help="print the diagonal polynomial quadruple")
    p.add_argument("--ell", dest="ell_int", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("verify", help="run the verification battery")
    _add_point_args(p)
    p.add_argument("--rhos", type=str, default=None)
    p.add_argument("--checks", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("monodromy", help="monodromy report only")
    _add_point_args(p)
    p.add_argument("--rhos", type=str, default=None)
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("sqrt-monodromy", help="square-root-of-monodromy report")
    _add_point_args(p)
    p.set_defaults(fn=cmd_sqrt_monodromy)

    p = sub.add_parser("sweep", help="verify several parameter points")
    p.add_argument("--points", type=str, required=True, help="ell,mu,omega[,phi0];...")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--grid", type=int, default=1001)
    p.add_argument("--checks", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (GenericityViolated, DegenerateAtOne, NonIntegerOrder) as exc:
        sys.stderr.write(f"degenerate parameter point: {exc}\n")
        return EXIT_DEGENERATE
    except ToleranceNotMet as exc:
        sys.stderr.write(f"tolerance failure: {exc}\n")
        return EXIT_TOLERANCE
    except HeunMonodromyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
