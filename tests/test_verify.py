from __future__ import annotations

import re

from heun_monodromy import verify


def test_every_failure_line_names_its_budget(golden_path, golden_quad, monkeypatch):
    # every budget out of reach, including the tolerance-scaled floors
    for key in verify.BUDGETS:
        monkeypatch.setitem(verify.BUDGETS, key, 1e-30)
    monkeypatch.setattr(golden_path, "tol", 1e-32)
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
