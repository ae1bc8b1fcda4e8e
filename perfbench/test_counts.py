"""Self-tests of the benchmark.

Run from the root of a checkout (about five minutes):

    python3 -m pytest -q perfbench/test_counts.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def _counts(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    per_op = [re.sub(r" wall_s=\S+", "", line) for line in lines
              if line.startswith(("op ", "  sweep point", "counts "))]
    totals = {name: result["metrics"][name]["value"] for name in ("phase.segments", "exactpoly.terms")}
    return result, per_op, totals


@pytest.mark.parametrize("workload", ["sweep-region", "poly-exact"])
def test_counts_repeat_exactly(workload):
    """phase.segments, exactpoly.terms and the points attempted and failed per
    call are the same in two runs with one seed."""
    first, ops_a, totals_a = _counts(_run(workload, 7))
    second, ops_b, totals_b = _counts(_run(workload, 7))
    assert first["correct"] and second["correct"]
    assert ops_a == ops_b
    assert totals_a == totals_b
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_round_count_follows_seconds_only():
    """At 20 s a run has the schedule the seed baseline was measured with."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    counts = {name: w.round_count(20) for name, w in WORKLOADS.items()}
    assert counts == {"golden-battery": 1, "sweep-region": 2, "poly-exact": 1}
    assert all(w.round_count(1) == 1 for w in WORKLOADS.values())


def test_fails_without_program(tmp_path):
    """Without the package sources the run fails and prints no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("golden-battery", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
