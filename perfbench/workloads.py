"""The three workloads: their operations, built from the seed, and the checks
run on every operation's output.

Every operation is one call of ``heun_monodromy.cli.main(argv)`` in this
process.  Operations are grouped into rounds, and a run executes whole rounds
only, so that each run measures the same mix of inputs.  How many rounds a
run executes follows from ``--seconds`` and the workload's nominal round time
alone, never from the clock, so two runs with one seed do exactly the same
operations and count the same points attempted and failed:

* ``golden-battery``: a round is ``verify`` at G1 then at G2, all checks,
  ``tol=1e-12``, ``grid=1001``.  The seed is accepted and unused.
* ``sweep-region``: a round is one ``sweep --checks ode,monodromy`` call over
  the two fixed off-golden points and two seeded region points.  The seeded
  pair is antithetic (the second point mirrors the first through the centre
  of the region), which keeps the cost of a call steady from seed to seed
  without narrowing the region.
* ``poly-exact``: a round is ``poly --ell L --check`` for every order
  ``L = 16..28``, in a seeded order.  A whole permutation per round keeps the
  median order, and so ``poly_wall_s.p50``, the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from reference import (
    GOLDEN_POINTS,
    PHI_T_TOL,
    PINNED_BUDGETS,
    POLY_DIGESTS,
    POLY_STDERR,
    REPORT_BUDGET_KEYS,
)

FIXED_SWEEP_POINTS = ((3.0, 0.3, 1.0, 0.5), (2.0, 0.25, 1.1, 0.4))
# ell (non-integer allowed), mu, omega, phi0
SWEEP_REGION = ((0.5, 6.0), (0.05, 0.5), (0.6, 1.5), (0.0, 1.2))
POLY_ORDERS = tuple(range(16, 29))
SWEEP_CHECKS = "ode,monodromy"


@dataclass(frozen=True)
class Op:
    """One call of the command-line entry point."""

    label: str
    argv: tuple[str, ...]
    points: int = 1
    golden: str | None = None
    order: int | None = None
    sweep_points: tuple[tuple[float, ...], ...] = ()

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass
class OpResult:
    op: Op
    wall: float
    code: int | None
    stdout: str
    stderr: str
    error: str | None
    failed_points: int = 0
    problems: list[str] = field(default_factory=list)
    margins: dict[str, float] = field(default_factory=dict)
    point_lines: list[str] = field(default_factory=list)


def _point_args(point) -> list[str]:
    ell, mu, omega, phi0 = point
    return ["--ell", repr(ell), "--mu", repr(mu), "--omega", repr(omega), "--phi0", repr(phi0)]


def verify_op(golden: str) -> Op:
    point, _ = GOLDEN_POINTS[golden]
    argv = ("verify", *_point_args(point), "--tol", "1e-12", "--grid", "1001")
    return Op(label=f"verify {golden}", argv=argv, golden=golden)


def poly_op(order: int) -> Op:
    return Op(label=f"poly {order}", argv=("poly", "--ell", str(order), "--check"), order=order)


def sweep_op(points) -> Op:
    text = ";".join(",".join(repr(x) for x in p) for p in points)
    argv = ("sweep", "--points", text, "--checks", SWEEP_CHECKS, "--tol", "1e-12", "--grid", "1001")
    return Op(label=f"sweep {len(points)} points", argv=argv, points=len(points),
              sweep_points=tuple(points))


def _golden_rounds(seed: int):
    while True:
        yield [verify_op("G1"), verify_op("G2")]


def _sweep_rounds(seed: int):
    rng = random.Random(seed)
    while True:
        u = [rng.random() for _ in SWEEP_REGION]
        first = tuple(round(lo + x * (hi - lo), 6) for x, (lo, hi) in zip(u, SWEEP_REGION))
        mirror = tuple(round(lo + hi - v, 6) for v, (lo, hi) in zip(first, SWEEP_REGION))
        yield [sweep_op(FIXED_SWEEP_POINTS + (first, mirror))]


def _poly_rounds(seed: int):
    rng = random.Random(seed)
    while True:
        orders = list(POLY_ORDERS)
        rng.shuffle(orders)
        yield [poly_op(order) for order in orders]


@dataclass(frozen=True)
class Workload:
    rounds: Callable[[int], Iterator[list[Op]]]
    # wall time of one round at the commit that introduced this benchmark, on
    # a 2-vCPU Intel Xeon virtual machine
    round_s: float
    # operations a traced run adds for the layers the workload never reaches,
    # so that every traced run reports every per-layer metric
    coverage: tuple[Op, ...]

    def round_count(self, seconds: float) -> int:
        """Rounds that fill ``seconds`` at the nominal round time, at least one."""
        return max(1, math.ceil(seconds / self.round_s - 1e-9))


WORKLOADS = {
    "golden-battery": Workload(_golden_rounds, 40.0, (poly_op(24),)),
    "sweep-region": Workload(_sweep_rounds, 12.5, (poly_op(24), verify_op("G1"))),
    "poly-exact": Workload(_poly_rounds, 28.0, (verify_op("G1"),)),
}


# ---------------------------------------------------------------- checks


class DigestStore:
    """Byte-identity of repeated operations, within a run and across runs.

    Digests persist under ``directory`` keyed by a hash of the program's
    sources, so runs of the same code compare with each other and a code
    change starts afresh.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.seen: dict[str, str] = {}

    def check(self, key: str, text: str) -> str | None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        path = self.directory / hashlib.sha256(key.encode()).hexdigest()[:32]
        expected = self.seen.get(key)
        if expected is None and path.is_file():
            expected = path.read_text().strip()
        if expected is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
            tmp.write_text(digest + "\n")
            os.replace(tmp, path)
            expected = digest
        self.seen[key] = expected
        if digest != expected:
            return f"{key}: output differs from an earlier run of the same operation"
        return None


def margin(value: float, budget: float) -> float:
    """Decades between a residual and its budget; an exact zero is floored."""
    return math.log10(budget / max(value, 1e-300))


def report_margins(report: dict) -> dict[str, float]:
    """Smallest margin per budget key over every residual in a verify report."""
    out: dict[str, float] = {}

    def add(key: str, value: float):
        m = margin(float(value), PINNED_BUDGETS[key])
        out[key] = min(out.get(key, m), m)

    for section, fields in REPORT_BUDGET_KEYS.items():
        body = report.get(section)
        if not isinstance(body, dict):
            continue
        for name, value in body.items():
            for pattern, key in fields.items():
                hit = name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern
                if not hit:
                    continue
                if name == "ray_residuals":
                    for _, res in value:
                        add(key, res)
                else:
                    add(key, value)
                break
    return out


def _battery_code(report: dict) -> int:
    if "error" in report:
        return 2
    return 0 if report.get("passed") else 1


def check_result(res: OpResult, paths, digests: DigestStore) -> None:
    """Fill in the failure count, output problems and margins of one result."""
    op = res.op
    if op.kind == "verify":
        _check_verify(res, paths, digests)
    elif op.kind == "sweep":
        _check_sweep(res, digests)
    else:
        _check_poly(res)


def _check_verify(res: OpResult, paths, digests: DigestStore) -> None:
    res.failed_points = 1
    if res.error is not None:
        return
    try:
        report = json.loads(res.stdout)
    except ValueError:
        res.problems.append(f"{res.op.label}: stdout is not a JSON report (exit {res.code})")
        return
    if res.code != _battery_code(report):
        res.problems.append(f"{res.op.label}: exit {res.code} disagrees with passed={report.get('passed')}")
    _, phi_t_ref = GOLDEN_POINTS[res.op.golden]
    if len(paths) != 1:
        res.problems.append(f"{res.op.label}: expected one phase solve, saw {len(paths)}")
    else:
        path = paths[0]
        phi_t = float(path.phi(path.params.T)[0])
        if not abs(phi_t - phi_t_ref) <= PHI_T_TOL:
            res.problems.append(f"{res.op.label}: phi(T) = {phi_t!r}, frozen {phi_t_ref!r}")
    problem = digests.check(res.op.label, res.stdout)
    if problem:
        res.problems.append(problem)
    res.margins = report_margins(report)
    if res.code == 0 and not res.problems:
        res.failed_points = 0


def _check_sweep(res: OpResult, digests: DigestStore) -> None:
    op = res.op
    res.failed_points = op.points
    if res.error is not None or not res.stdout:
        # a call lost to an exception loses every point in it
        return
    try:
        entries = json.loads(res.stdout)["points"]
    except (ValueError, KeyError):
        res.problems.append(f"{op.label}: stdout is not a sweep report (exit {res.code})")
        return
    if len(entries) != op.points:
        res.problems.append(f"{op.label}: {len(entries)} point reports for {op.points} points")
        return
    codes = [_battery_code(e) for e in entries]
    if res.code != max(codes):
        res.problems.append(f"{op.label}: exit {res.code} disagrees with point codes {codes}")
    failed = 0
    for point, entry, code in zip(op.sweep_points, entries, codes):
        label = "sweep point " + ",".join(repr(x) for x in point)
        problem = digests.check(label, json.dumps(entry))
        if problem:
            res.problems.append(problem)
        for key, m in report_margins(entry).items():
            res.margins[key] = min(res.margins.get(key, m), m)
        why = entry.get("failures") or entry.get("error") or []
        res.point_lines.append(f"{label} exit={code} {json.dumps(why)}")
        failed += code != 0
    res.failed_points = failed if not res.problems else op.points


def _check_poly(res: OpResult) -> None:
    res.failed_points = 1
    if res.error is not None:
        return
    order = res.op.order
    digest = hashlib.sha256(res.stdout.encode()).hexdigest()
    if res.code != 0:
        res.problems.append(f"{res.op.label}: exit {res.code}")
    if digest != POLY_DIGESTS[order]:
        res.problems.append(f"{res.op.label}: stdout digest {digest[:16]} differs from the recorded one")
    if res.stderr != POLY_STDERR:
        res.problems.append(f"{res.op.label}: stderr {res.stderr!r}")
    if not res.problems:
        res.failed_points = 0
