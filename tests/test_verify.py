from __future__ import annotations

import json
import random
import re

from heun_monodromy import ModelParams, cli, verify
from tests.conftest import FIXED_SWEEP_POINTS, SWEEP_REGION


def test_every_failure_line_names_its_budget(golden_path, golden_quad, monkeypatch):
    # every budget out of reach
    for key in verify.BUDGETS:
        monkeypatch.setitem(verify.BUDGETS, key, 1e-30)
    failures = (
        verify.check_ode(golden_path, 101)[1]
        + verify.check_circle(golden_path, 101)[1]
        + verify.check_monodromy(golden_path, 101, [0.8], 1e-12)[1]
        + verify.check_heun(golden_path, golden_quad, 101)[1]
        + verify.check_theorem2(golden_path, golden_quad, 101)[1]
    )
    for line in failures:
        assert re.fullmatch(r"\S+ = \d\.\d{3}e[-+]\d\d > 1\.0e-30", line), line
    names = {line.split(" = ")[0] for line in failures}
    for name in (
        "ode_residual",
        "time_translation_residual",
        "route_equivalence",
        "sup_residual_circle",
        "ray_residual(rho=0.8)",
        "b_squared_operator",
        "b_squared_residual",
    ):
        assert name in names


def test_tol_loosens_no_budget(monkeypatch, capsys):
    # --tol gates the error estimate only: at a loose tol the failure line
    # still names the BUDGETS value, not a budget scaled by tol
    monkeypatch.setitem(verify.BUDGETS, "ode_residual", 1e-16)
    argv = ["verify", "--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0", "0.5",
            "--checks", "ode", "--tol", "1e-6"]
    assert cli.main(argv) == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert len(failures) == 1
    assert re.fullmatch(r"ode_residual = \d\.\d{3}e-\d\d > 1\.0e-16", failures[0]), failures


def _region_points(rng, count):
    """``count`` points drawn uniformly from SWEEP_REGION, rounded to six
    digits as the benchmark's sweeps round theirs."""
    return [tuple(round(lo + rng.random() * (hi - lo), 6) for lo, hi in SWEEP_REGION)
            for _ in range(count)]


def _largest_residual(report):
    """The largest residual of a battery report, but lb_maps_solutions, which
    takes F'' from a symmetric difference (about 3e-10 at G1)."""
    values = []
    for section in ("ode", "monodromy", "heun", "theorem2"):
        for key, value in report.get(section, {}).items():
            if isinstance(value, float) and key != "tol" and not key.startswith("lb_maps"):
                values.append(value)
        values += [res for _, res in report.get(section, {}).get("ray_residuals", [])]
    return max(values)


def _region_scan():
    """(label, report) of the region scan: the two fixed sweep points and 16
    seeded region points with the sweep's checks, and for each order 1..6 a
    seeded (mu, omega, phi0) with every check and four radii."""
    rng = random.Random(2311)
    for point in FIXED_SWEEP_POINTS + tuple(_region_points(rng, 16)):
        ell, mu, omega, phi0 = point
        yield point, verify.run_battery(ModelParams(ell=ell, mu=mu, omega=omega), phi0,
                                        checks=("ode", "monodromy"))[0]
    for ell, (_, mu, omega, phi0) in zip(range(1, 7), _region_points(rng, 6)):
        yield (ell, mu, omega, phi0), verify.run_battery(
            ModelParams(ell=ell, mu=mu, omega=omega), phi0, rhos=[0.2, 0.8, 1.25, 5.0])[0]


def test_region_scan_passes_every_check():
    largest = 0.0
    for label, report in _region_scan():
        assert report["passed"], (label, report["failures"])
        largest = max(largest, _largest_residual(report))
    # 1.5e-13, a ray residual at rho = 5
    assert largest <= 1e-12
