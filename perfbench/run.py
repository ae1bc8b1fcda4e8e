"""Benchmark of the heun-monodromy toolkit: time to a certified report.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload golden-battery --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``golden-battery`` (full ``verify`` at the two
golden points), ``sweep-region`` (``sweep --checks ode,monodromy`` over fixed
and seeded region points) and ``poly-exact`` (``poly --ell L --check``,
L = 16..28).  Load is a closed loop with one client in this process: the
next operation starts only after the previous one returned.  A run executes
the whole rounds of operations that fill ``--seconds`` at the workload's
nominal round time, at least one; the count does not depend on the clock, so
runs with one seed attempt the same operations.
``HEUN_MONODROMY_THREADS`` is left as found and recorded.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with ``--trace 1`` the same operations run
with spans around the program's public functions, followed by layer probes at
G1, and the metrics are the per-layer ones.  Every operation's output is
checked; ``correct`` is false when any check fails.  The lines before the JSON
name every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, DigestStore, OpResult, check_result  # noqa: E402
from reference import GOLDEN_POINTS, PINNED_BUDGETS  # noqa: E402

SETUP_SAMPLES = 3
SETUP_SNIPPET = "import heun_monodromy.cli as c; c.build_parser(); print('ready', flush=True)"
STATE_DIR = ".perfbench"


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- set-up


def src_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "heun_monodromy" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {src}; run from the root of a checkout")
    return src


def fresh_setup_time(root: Path, src: Path) -> float:
    """Seconds from starting a fresh interpreter until it can run an operation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_SNIPPET], cwd=root, env=env, stdout=subprocess.PIPE
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise BenchError(f"set-up probe failed with exit {code}")
    return elapsed


def import_program(src: Path):
    sys.path.insert(0, str(src))
    import heun_monodromy.cli as cli

    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise BenchError(f"imported heun_monodromy from {where}, not from {src}")
    return cli


def source_digest(src: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    lines = 0
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(src)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: Path, src: Path) -> dict:
    import numpy
    import scipy

    digest, lines = source_digest(src)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "HEUN_MONODROMY_THREADS": os.environ.get("HEUN_MONODROMY_THREADS"),
        "commit": git_commit(root),
        "src_sha256": digest,
        "src_lines": lines,
    }


# ---------------------------------------------------------------- running


def execute(cli, op, capture, digests: DigestStore) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    capture.take()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # an uncaught exception is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    res = OpResult(op=op, wall=wall, code=code, stdout=out.getvalue(),
                   stderr=err.getvalue(), error=error)
    check_result(res, capture.take(), digests)
    return res


def harrell_davis(values: list[float], q: float = 0.5) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.

    In ``poly-exact`` every operation of a round has a different size, so the
    sample median is the time of one operation; this estimate of the same
    quantile also weighs its neighbours.  Over two ten-run sets on a 2-vCPU Xeon
    virtual machine its quartile spread was 0.055 and 0.096 where the sample
    median's was 0.156 and 0.093.
    """
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    edges = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], xs))


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    Below 21 samples that percentile would not lie above the median, so the
    maximum (p100) is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 21:
        k = n - 11
        return xs[k], 100.0 * (k + 1) / n
    return xs[-1], 100.0


def end_to_end(results: list[OpResult], setup: list[float]) -> dict[str, tuple[float, str, int]]:
    """The gated end-to-end metrics: (value, unit, sample count) by name."""
    walls = [r.wall for r in results]
    return {
        "op_wall_s.p50": (harrell_davis(walls), "s", len(walls)),
        "points_per_s": (sum(r.op.points for r in results) / sum(walls), "points/s", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


# Workload-specific names of the end-to-end metrics, printed as aliases.
ALIASES = {
    "golden-battery": {"verify_wall_s.p50": "op_wall_s.p50", "verify_wall_s.tail": "op_wall_s.tail"},
    "sweep-region": {"sweep_points_per_s": "points_per_s"},
    "poly-exact": {"poly_wall_s.p50": "op_wall_s.p50", "poly_wall_s.tail": "op_wall_s.tail"},
}


def merged_margins(results: list[OpResult]) -> dict[str, float]:
    out: dict[str, float] = {}
    for r in results:
        for key, m in r.margins.items():
            out[key] = min(out.get(key, m), m)
    return out


def span_totals(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Time and count per span name over one operation's spans."""
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in spans:
        times[s.name] = times.get(s.name, 0.0) + s.duration
        if s.count is not None:
            counts[s.name] = counts.get(s.name, 0) + s.count
    return times, counts


def per_layer(workload_ops, coverage_ops, overhead_s, probes):
    """Per-layer metrics from the spans of the workload's operations.

    A layer's time is the sum of its spans in one operation (over all of a
    sweep's threads), as a median over the operations.  A layer the workload
    never reaches is measured on the first coverage operation that reaches it.
    """
    from tracing import FUNCTION_SPANS, IMPORTER_SPANS, METHOD_SPANS, covered_time

    w_totals, w_counts = zip(*(span_totals(spans) for _, spans in workload_ops))
    c_totals, c_counts = zip(*(span_totals(spans) for _, spans in coverage_ops))
    names = [n for n, *_ in FUNCTION_SPANS + IMPORTER_SPANS + METHOD_SPANS]
    metrics: dict[str, tuple[float, str, int]] = {}
    for name in names:
        if name == "verify.run_battery":
            continue
        vals = [t[name] for t in w_totals if name in t]
        if not vals:
            vals = [t[name] for t in c_totals if name in t][:1]
        if not vals:
            raise BenchError(f"no span recorded for {name}")
        metrics[name + "_s"] = (statistics.median(vals), "s", len(vals))
    for metric, span in (("phase.segments", "phase.solve_phase"), ("exactpoly.terms", "heunpoly.diagonal")):
        first = next((c[span] for c in w_counts + c_counts if span in c), None)
        if first is None:
            raise BenchError(f"no count recorded for {metric}")
        metrics[metric] = (first, "count", 1)
    overheads = [r.wall - covered_time([s for s in spans if s.depth == 0])
                 for r, spans in workload_ops]
    metrics["cli.overhead_s"] = (statistics.median(overheads), "s", len(overheads))
    for name, value in probes.items():
        metrics[name] = (value, "us" if name.endswith("_us") else "s", 1)
    margins = merged_margins([r for r, _ in workload_ops])
    for key, m in merged_margins([r for r, _ in coverage_ops]).items():
        margins.setdefault(key, m)
    for key in PINNED_BUDGETS:
        if key not in margins:
            raise BenchError(f"no residual reported for budget {key}")
        metrics[f"margin.{key}"] = (margins[key], "decades", 1)
    metrics["cert_margin_min"] = (min(margins.values()), "decades", len(margins))
    metrics["trace.overhead_s"] = (overhead_s, "s", 1)
    metrics["trace.spans"] = (sum(len(spans) for _, spans in workload_ops), "count", 1)
    return metrics


def run(args) -> int:
    root = Path.cwd()
    src = src_dir(root)
    workload = WORKLOADS[args.workload]
    setup = [fresh_setup_time(root, src) for _ in range(0 if args.trace else SETUP_SAMPLES)]
    cli = import_program(src)
    from heun_monodromy import verify as verify_mod
    from tracing import PathCapture, Tracer, layer_probes

    env = environment(root, src)
    problems: list[str] = []
    if dict(verify_mod.BUDGETS) != PINNED_BUDGETS:
        problems.append("verify.BUDGETS differs from the pinned budget table")
    digests = DigestStore(root / STATE_DIR / "digests" / env["src_sha256"][:16])

    capture = PathCapture()
    capture.install()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    rounds = workload.rounds(args.seed)
    round_count = workload.round_count(args.seconds)
    print(f"{args.workload}: {round_count} rounds of {workload.round_s:g} s nominal", flush=True)
    results: list[OpResult] = []
    op_spans = []
    try:
        for _ in range(round_count):
            for op in next(rounds):
                first = len(tracer.spans) if tracer else 0
                res = execute(cli, op, capture, digests)
                results.append(res)
                if tracer:
                    op_spans.append((res, tracer.spans[first:]))
                print(f"op {len(results)} {op.label} wall_s={res.wall:.4f} exit={res.code} "
                      f"points={op.points} failed={res.failed_points}"
                      + (f" error={res.error}" if res.error else ""), flush=True)
                for line in res.point_lines:
                    print("  " + line)
        layer = None
        if tracer:
            coverage = []
            for op in workload.coverage:
                first = len(tracer.spans)
                res = execute(cli, op, capture, digests)
                problems.extend(res.problems)
                coverage.append((res, tracer.spans[first:]))
            tracer.uninstall()
            # the first operation again with tracing off gives the overhead
            again = execute(cli, results[0].op, capture, digests)
            problems.extend(again.problems)
            probes = layer_probes(GOLDEN_POINTS["G1"][0])
            layer = per_layer(op_spans, coverage, results[0].wall - again.wall, probes)
            for res, spans in op_spans + coverage:
                counts = span_totals(spans)[1]
                print(f"counts {res.op.label} " + json.dumps(counts, sort_keys=True))
            write_trace(root, args, env, op_spans + coverage)
    finally:
        if tracer:
            tracer.uninstall()
        capture.uninstall()

    for res in results:
        problems.extend(res.problems)
    attempted = sum(r.op.points for r in results)
    failed = sum(r.failed_points for r in results)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = layer
    else:
        metrics = end_to_end(results, setup)
        tail_value, percentile = tail([r.wall for r in results])
        print(f"metric op_wall_s.tail = {tail_value:.6g} s (p{percentile:.4g}, n={len(results)}, "
              f"not gated)")
        shown = dict(metrics, **{"op_wall_s.tail": (tail_value, "s", len(results))})
        for alias, name in ALIASES[args.workload].items():
            value, unit, n = shown[name]
            print(f"metric {alias} = {value:.6g} {unit} (n={n}, reported as {name})")
        margins = merged_margins(results)
        if margins:
            print(f"metric cert_margin_min = {min(margins.values()):.6g} decades "
                  f"(n={len(margins)} budgets)")
        print(f"metric op_fail_share = {failed / attempted:.6g} (failed {failed} of {attempted})")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    for p in problems:
        print(f"check FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def write_trace(root: Path, args, env: dict, groups) -> None:
    """Spans of every traced operation, timed from the first span of each."""
    ops = []
    for res, spans in groups:
        t0 = min((s.start for s in spans), default=0.0)
        ops.append({
            "op": res.op.label,
            "wall_s": res.wall,
            "spans": [[s.name, s.start - t0, s.end - t0, s.depth, s.thread, s.count] for s in spans],
        })
    out = root / STATE_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"env": env, "ops": ops}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
