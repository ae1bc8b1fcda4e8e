"""Command-line front end.

Exit codes: 0 all requested checks pass, 1 a tolerance budget failed,
2 the parameter point is degenerate (vanishing D factor or cos(phi(0))),
3 usage error.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import pickle
import sys
import threading
import warnings

import numpy as np

from .circle import DEFAULT_RHOS, RHO_MAX, RHO_MIN, theta_pair_solve
from .errors import (
    DegenerateAtOne,
    GenericityViolated,
    HeunMonodromyError,
    NonIntegerOrder,
    NonPositiveOmega,
    ToleranceNotMet,
)
from .heunpoly import MAX_ELL, check_parity, diagonal
from .jsonio import canonical_json
from .params import ModelParams
from .phase import TOL_MAX, TOL_MIN, solve_phase
from .verify import ALL_CHECKS, run_battery

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_DEGENERATE = 2
EXIT_USAGE = 3
#: Gate errors: the parameter point is outside the theory, exit EXIT_DEGENERATE.
GATE_ERRORS = (GenericityViolated, DegenerateAtOne, NonIntegerOrder)
#: signal.SIGKILL, without importing ``signal`` (which nothing else here needs)
_SIGKILL = 9


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


def _require_max_ell(params: ModelParams, checks: tuple[str, ...], where: str = ""):
    """Refuse an integer order past MAX_ELL where ``checks`` include heun or
    theorem2: both build the polynomial quadruple of that order."""
    if {"heun", "theorem2"} & set(checks) and (params.ell_int or 0) > MAX_ELL:
        raise UsageError(f"{where}ell must be an integer in 1..{MAX_ELL} "
                         "for the heun and theorem2 checks")


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


def _parse_rhos(text: str | None) -> tuple[float, ...]:
    if text is None:
        return DEFAULT_RHOS
    try:  # an empty field is no radius: the ray certificate would vanish
        rhos = tuple(float(x) for x in text.split(","))
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
        pair = theta_pair_solve(path)
        tc = np.linspace(-params.T / 2, params.T / 2, args.grid)
        phi_c, P_c = path.eval(tc)
        F, psi = np.exp(1j * phi_c), np.exp(P_c)
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
    polys = [*zip("pqrs", quad.as_tuple()), ("D", quad.D)]  # D proves the ODE system first
    text = "\n".join(f"{name} = {poly.canonical_text()}" for name, poly in polys)
    rows = ", ".join(f'"{name}": {poly.json_text()}' for name, poly in polys)
    sys.stdout.write(f"{text}\n{{{rows}}}\n")
    if args.check:
        ok_p, wit_p = check_parity(quad)
        if not ok_p:
            sys.stderr.write(f"exact checks failed: {wit_p}\n")
            return EXIT_TOLERANCE
        sys.stderr.write("exact checks passed\n")
    return EXIT_OK


def _battery_exit(failures: list[str]) -> int:
    return EXIT_OK if not failures else EXIT_TOLERANCE


def cmd_battery(args) -> int:
    """``verify``, ``monodromy`` and ``sqrt-monodromy``: the battery of the
    command's checks at one point, written as the command's ``view`` of the
    report."""
    _validate_common(args)
    params = _params(args.ell, args.mu, args.omega)
    checks = _parse_checks(args.checks)
    _require_max_ell(params, checks)
    report, failures = run_battery(
        params,
        args.phi0,
        tol=args.tol,
        grid_size=args.grid,
        rhos=_parse_rhos(args.rhos),
        checks=checks,
    )
    text = canonical_json(args.view(report)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return _battery_exit(failures)


def _parse_points(text: str, checks: tuple[str, ...]) -> list[tuple[dict, ModelParams]]:
    """Sweep points with their parameters, all validated for ``checks``
    before any runs."""
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
        params = _params(vals[0], vals[1], vals[2])
        _require_max_ell(params, checks, f"sweep point {chunk!r}: ")
        points.append((point, params))
    return points


def _sweep_one(point: dict, params: ModelParams, tol: float, grid: int, checks: tuple[str, ...]):
    try:
        report, failures = run_battery(
            params, point["phi0"], tol=tol, grid_size=grid, checks=checks
        )
        code = _battery_exit(failures)
    except GATE_ERRORS as exc:
        report = {"params": point, "error": str(exc)}
        code = EXIT_DEGENERATE
    except HeunMonodromyError as exc:
        # a certificate that could not be computed fails this point only
        report = {"params": point, "failures": [f"{type(exc).__name__}: {exc}"], "passed": False}
        code = EXIT_TOLERANCE
    return report, code


def _workers(points: int) -> int:
    """How many processes share a sweep: one per CPU this process may run
    on, at most one per point, and one alone where forking is not safe (no
    ``fork``, or another thread alive, which a child would not have)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") \
            or threading.active_count() > 1:
        return 1
    return min(points, len(os.sched_getaffinity(0)))


def _fork_chunk(run, chunk: list) -> tuple[int, int]:
    """Fork a child that runs ``chunk`` and pickles its results, warnings and
    printed text into a pipe: (pid, read end).

    The child writes nothing to the streams it inherits and leaves by
    ``os._exit``, so it flushes no inherited buffer and runs no exit hook.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            results = run(chunk)
        shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        with os.fdopen(write, "wb") as pipe:
            pickle.dump((results, shown, out.getvalue(), err.getvalue()), pipe)
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, fd: int):
    """A child's shipment, or None where the child failed (nonzero status, a
    signal, a short or unreadable pipe); the child is reaped either way."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    except OSError:  # an unreadable pipe
        data = b""
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(data) if status == 0 else None
    except Exception:  # a short pipe
        return None


def _replay(shown: list, out: str, err: str):
    """Emit a child's warnings and text here, as its points would have.

    Each warning goes through this process's filters and the registry of the
    module it came from, so one already shown here is shown no second time,
    as in one process."""
    files = {getattr(m, "__file__", None): m for m in list(sys.modules.values())} if shown else {}
    for text, category, filename, lineno in shown:
        scope = vars(files[filename]) if filename in files else {}
        warnings.warn_explicit(text, category, filename, lineno, scope.get("__name__"),
                               scope.setdefault("__warningregistry__", {}))
    sys.stdout.write(out)
    sys.stderr.write(err)


def _sweep_all(points: list, tol: float, grid: int, checks: tuple[str, ...]) -> list:
    """``_sweep_one`` of every point, in input order.

    The points share nothing, so k processes run k contiguous chunks of them:
    this process runs the first, and a forked child each of the others.  The
    children's results, warnings and text are taken in chunk order after the
    first chunk, so every output is the one-process loop's.  A chunk whose
    child failed runs again here, with that loop's outcome.
    """
    def run(chunk):
        return [_sweep_one(pt, params, tol, grid, checks) for pt, params in chunk]

    k = _workers(len(points))
    if k <= 1:
        return run(points)
    n = len(points)
    chunks = [points[i * n // k:(i + 1) * n // k] for i in range(k)]
    children = []  # (pid, read end) of each child not yet reaped, in chunk order
    try:
        try:
            for chunk in chunks[1:]:
                children.append(_fork_chunk(run, chunk))
        except OSError:  # no more processes: the unforked chunks run here
            pass
        results = run(chunks[0])
        for chunk in chunks[1:]:
            shipped = _receive(*children.pop(0)) if children else None
            if shipped is None:
                results += run(chunk)
            else:
                results += shipped[0]
                _replay(*shipped[1:])
        return results
    finally:
        for pid, fd in children:  # this process raised: stop and reap the rest
            os.kill(pid, _SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)


def cmd_sweep(args) -> int:
    _validate_common(args)
    checks = _parse_checks(args.checks)
    points = _parse_points(args.points, checks)
    results = _sweep_all(points, args.tol, args.grid, checks)
    report = {"points": [r for r, _ in results]}
    text = canonical_json(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    worst = max((c for _, c in results), default=EXIT_OK)
    return worst


@functools.cache  # built on first use, once per process
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

    # verify, monodromy and sqrt-monodromy: one battery, each with its checks
    # and its view of the report; only verify chooses its checks and --out
    p = sub.add_parser("verify", help="run the verification battery")
    _add_point_args(p)
    p.add_argument("--rhos", type=str, default=None)
    p.add_argument("--checks", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_battery, view=lambda report: report)

    p = sub.add_parser("monodromy", help="monodromy report only")
    _add_point_args(p)
    p.add_argument("--rhos", type=str, default=None)
    p.set_defaults(fn=cmd_battery, checks="monodromy", out=None,
                   view=lambda report: report["monodromy"])

    p = sub.add_parser("sqrt-monodromy", help="square-root-of-monodromy report")
    _add_point_args(p)
    p.set_defaults(fn=cmd_battery, checks="theorem2", rhos=None, out=None,
                   view=lambda report: {"theorem2": report["theorem2"]})

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
    except GATE_ERRORS as exc:
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
