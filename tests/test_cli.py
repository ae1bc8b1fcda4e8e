from __future__ import annotations

import hashlib
import json
import re
import signal

import pytest

from heun_monodromy.cli import main
from heun_monodromy.heunpoly import MAX_ELL
from heun_monodromy.jsonio import canonical_json

# sha256 of `poly --ell L` standard output.  The output is exact integer
# arithmetic, so a changed digest is a wrong answer, not a rounding change.
POLY_STDOUT_SHA256 = {
    10: "835adfabd85104790f06db8165c60d0ca4f4beb5ad8d29b4d7288a99433b8d12",
    16: "d4687a2729f6b4d3103522a12f629c8d5f2a0c9b844929eb5a271cb9e1ad7047",
}

# sha256 of `sqrt-monodromy` standard output at golden point 2 with the
# default --tol and --grid, recorded with P_B from the Gauss-Legendre panel
# table.
SQRT_MONODROMY_G2_SHA256 = "3ceeead637d0eeb3cbfe91384554be26672accfa40fbfd1ad530ffde30087c16"
# The same report without the two residuals the panel table moved, recorded
# when P_B came from a DOP853 run on cos(phase(t)): no other byte moved.
SQRT_MONODROMY_G2_REST_SHA256 = "2048c6b5ac723239dc346c683e89f353f64a0893be98f443eb2661ba0cca991d"
# Those two residuals as they were with the DOP853 P_B; both must stay below.
SQRT_MONODROMY_G2_DOP853 = {
    "b_squared_residual": 5.675490289945347e-12,
    "psi_quadrature_residual": 4.2443826246232195e-13,
}


# sha256 of `verify` standard output (all checks, default --tol and --grid)
# at the two golden points, recorded with the theta pair from Gauss
# collocation on the phase path's rows.
VERIFY_STDOUT_SHA256 = {
    ("2", "0.3", "1", "0.5"): "d2e854dff21f61d315e002e053899569588f88afdbde35c8de3b7de54bdc6338",
    ("1", "0.2", "1.3", "1.0"): "f3c07dad9a4511d2d24db8b49d8c395efe3f65c9a01b1332d4ce7f0b952605e1",
}
# The same reports without ode.route_equivalence, the one leaf the
# collocation moves, recorded when the theta pair came from a scalar DOP853
# solve: no other byte moved.
VERIFY_REST_SHA256 = {
    ("2", "0.3", "1", "0.5"): "3efa543e8134d774090d433e2d93b57a854f7169263f5309edde8aa51a7da01a",
    ("1", "0.2", "1.3", "1.0"): "79a8d60367e32c80e61012611061ac6d8195a3cf62ca887d12778c0646f1d6a4",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_csv_contract(capsys, tmp_path):
    out = tmp_path / "dump.csv"
    code, _, err = run(
        capsys,
        "solve", "--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0", "0.5",
        "--tol", "1e-10", "--grid", "101", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,phi,P"
    assert len(lines) == 102
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["err_est"] <= 1e-7


def test_solve_circle_csv(capsys, tmp_path):
    out = tmp_path / "d.csv"
    circ = tmp_path / "c.csv"
    code, _, _ = run(
        capsys,
        "solve", "--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0", "0.5",
        "--tol", "1e-10", "--grid", "101", "--out", str(out), "--circle-out", str(circ),
    )
    assert code == 0
    header, *rows = circ.read_text().splitlines()
    assert header == "t,re_phi,im_phi,psi,re_theta,im_theta,re_theta_tilde,im_theta_tilde"
    assert len(rows) == 101
    # the theta route reproduces the quadrature column row by row
    for row in rows:
        _, _, _, psi, re_th, im_th, re_tht, im_tht = map(float, row.split(","))
        route = (complex(re_th, im_th) - complex(re_tht, im_tht)) / 2j
        assert abs(route - psi) <= 1e-12


def test_solve_usage_errors(capsys):
    assert run(capsys, "solve", "--ell", "2", "--mu", "0.3", "--omega", "0")[0] == 3
    assert run(capsys, "solve", "--ell", "2", "--mu", "0.3", "--omega", "1",
               "--tol", "1e-2")[0] == 3
    assert run(capsys, "solve", "--ell", "2", "--mu", "0.3", "--omega", "1",
               "--grid", "10")[0] == 3
    assert run(capsys, "nonsense")[0] == 3


def test_poly_golden_text(capsys):
    code, out, _ = run(capsys, "poly", "--ell", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p = 1"
    assert lines[1] == "q = mu - mu*z^2"
    assert lines[2] == "r = mu"
    assert lines[3] == "s = lam + mu^2 - mu^2*z^2"
    assert lines[4] == "D = lam"


def test_poly_byte_determinism(capsys):
    _, out1, _ = run(capsys, "poly", "--ell", "3")
    _, out2, _ = run(capsys, "poly", "--ell", "3")
    assert out1 == out2


def test_poly_check_flag(capsys):
    code, _, err = run(capsys, "poly", "--ell", "2", "--check")
    assert code == 0
    assert "exact checks passed" in err


def test_poly_bad_order(capsys):
    assert run(capsys, "poly", "--ell", "0")[0] == 3
    assert run(capsys, "poly", "--ell", "40")[0] == 3


@pytest.mark.parametrize("ell", sorted(POLY_STDOUT_SHA256))
def test_poly_stdout_bytes_are_pinned(capsys, ell):
    code, out, err = run(capsys, "poly", "--ell", str(ell))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == POLY_STDOUT_SHA256[ell]


def test_poly_at_the_order_limit(capsys):
    assert MAX_ELL == 32
    code, _, err = run(capsys, "poly", "--ell", str(MAX_ELL), "--check")
    assert code == 0
    assert err == "exact checks passed\n"


def test_poly_past_the_order_limit(capsys):
    code, out, err = run(capsys, "poly", "--ell", str(MAX_ELL + 1), "--check")
    assert (code, out) == (3, "")
    assert f"1..{MAX_ELL}" in err


def test_sqrt_monodromy_golden_2_stdout_is_pinned(capsys):
    code, out, _ = run(
        capsys, "sqrt-monodromy", "--ell", "1", "--mu", "0.2", "--omega", "1.3", "--phi0", "1.0"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SQRT_MONODROMY_G2_SHA256
    report = json.loads(out)
    for key, before in SQRT_MONODROMY_G2_DOP853.items():
        assert report["theorem2"].pop(key) < before
    rest = canonical_json(report) + "\n"
    assert hashlib.sha256(rest.encode()).hexdigest() == SQRT_MONODROMY_G2_REST_SHA256


@pytest.mark.parametrize("point", sorted(VERIFY_STDOUT_SHA256))
def test_verify_golden_stdout_is_pinned(capsys, point):
    ell, mu, omega, phi0 = point
    code, out, _ = run(
        capsys, "verify", "--ell", ell, "--mu", mu, "--omega", omega, "--phi0", phi0
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[point]
    report = json.loads(out)
    assert report["ode"].pop("route_equivalence") <= 1e-13
    rest = canonical_json(report) + "\n"
    assert hashlib.sha256(rest.encode()).hexdigest() == VERIFY_REST_SHA256[point]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_verify_nan_residual_fails_with_a_valid_report(capsys):
    # at omega = 0.004 the half powers e^{P/2} overflow and the heun residuals
    # are NaN: each fails its budget and is written as the string "nan"
    code, out, err = run(
        capsys,
        "verify", "--ell", "1", "--mu", "0.3", "--omega", "0.004", "--phi0", "0.5",
        "--tol", "1e-6", "--checks", "heun",
    )
    assert code == 1
    assert "Traceback" not in err
    report = json.loads(out)
    heun = report["heun"]
    assert heun["pair_ode"] == heun["dche"] == heun["dche_combo"] == "nan"
    assert heun["operations"][0]["sup_residual"] == "nan"
    assert "pair_ode = nan > 1.0e-08" in report["failures"]
    assert "dche = nan > 1.0e-07" in report["failures"]
    for line in report["failures"]:
        assert re.fullmatch(r"\S+ = \S+ > \d\.\de[-+]\d\d", line), line
    assert report["passed"] is False
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json(float("nan"))


def test_verify_ode_holds_at_high_order(capsys):
    # at ell = 12 the phase turns about 13 radians per unit time: with the
    # step capped at T/200 alone, h*rate was 0.42 and the interpolant's
    # derivative missed the budget (ode_residual 9.85e-11, exit 1)
    code, out, _ = run(
        capsys,
        "verify", "--ell", "12", "--mu", "0.2", "--omega", "1", "--phi0", "0.3",
        "--checks", "ode",
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["ode"]["ode_residual"] < 1e-11


def test_verify_ode_holds_where_e_to_the_P_is_large(capsys):
    # max|e^P| is 230 here (1.8 at G1): the scalar theta solve left
    # route_equivalence at 4.4e-9 against its 1e-9 budget (exit 1)
    code, out, _ = run(
        capsys,
        "verify", "--ell", "1", "--mu", "1.256", "--omega", "0.4074", "--phi0", "0.0428",
        "--tol", "1e-12", "--checks", "ode",
    )
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_step_ceiling_refuses_a_vast_window(capsys):
    # T = 2*pi/omega is about 6e300: the window needed about 1e302 steps and
    # the solve never returned
    def expire(signum, frame):
        raise AssertionError("the solve ran past 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        code, out, err = run(capsys, "monodromy", "--ell", "2", "--mu", "0.3",
                             "--omega", "1e-300", "--phi0", "0.5")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (1, "")
    assert err.startswith("tolerance failure: ") and "needs more than 100000 steps" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("--mu", "1e300", "--omega", "1"),
                                  ("--mu", "0.3", "--omega", "1e300")])
def test_zero_initial_step_is_a_typed_error(capsys, argv):
    # an infinite slope scale made the first trial step 0 and _initial_step
    # divided by it (ZeroDivisionError, a traceback)
    code, out, err = run(capsys, "monodromy", "--ell", "2", *argv, "--phi0", "0.5")
    assert (code, out) == (1, "")
    assert err == "tolerance failure: initial step size is zero at t = 0.0\n"


def test_sqrt_monodromy_degenerate_point_is_gated_before_the_solve(capsys, monkeypatch):
    # order 1 with A = 1 has D- = 0: exit 2 before the phase is solved
    import heun_monodromy.cli as cli_mod

    def no_solve(*args, **kw):
        raise AssertionError("solve_phase ran at a degenerate point")

    monkeypatch.setattr(cli_mod, "solve_phase", no_solve)
    code, out, err = run(
        capsys, "sqrt-monodromy", "--ell", "1", "--mu", "0.5", "--omega", "1", "--phi0", "0.5"
    )
    assert (code, out) == (2, "")
    assert "D-=0.000e+00" in err


def test_sqrt_monodromy_non_integer_order(capsys):
    code, out, err = run(
        capsys, "sqrt-monodromy", "--ell", "1.5", "--mu", "0.5", "--omega", "1", "--phi0", "0.5"
    )
    assert (code, out) == (2, "")
    assert "not a positive integer" in err


def test_verify_poly_exact_only(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0", "0.5",
        "--checks", "poly-exact",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["poly_exact"]["ell_6"] == "exact"


def test_verify_genericity_exit_code(capsys):
    # order 1 with A = 1 has a vanishing D factor: contract says exit 2
    code, _, err = run(
        capsys,
        "verify", "--ell", "1", "--mu", "0.5", "--omega", "1", "--phi0", "0.5",
        "--tol", "1e-10", "--grid", "101", "--checks", "theorem2",
    )
    assert code == 2
    assert "degenerate" in err.lower()


def test_verify_degenerate_phase_exit_code(capsys):
    code, _, _ = run(
        capsys,
        "verify", "--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0",
        str(1.5707963267948966), "--tol", "1e-10", "--grid", "101", "--checks", "heun",
    )
    assert code == 2


def test_verify_unknown_check(capsys):
    assert run(
        capsys,
        "verify", "--ell", "2", "--mu", "0.3", "--omega", "1", "--checks", "bogus",
    )[0] == 3


def test_monodromy_report_contract(capsys):
    code, out, _ = run(
        capsys,
        "monodromy", "--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0", "0.5",
        "--tol", "1e-10", "--grid", "201", "--rhos", "0.8,1.25",
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) >= {"sup_residual_circle", "boundary_residual", "ray_residuals", "grid_size"}
    assert len(report["ray_residuals"]) == 2


def test_monodromy_gates_every_monodromy_budget(capsys, monkeypatch):
    # the standalone command and the battery share one budget path
    import heun_monodromy.verify as verify_mod

    monkeypatch.setitem(verify_mod.BUDGETS, "monodromy_unimodularity", 0.0)
    point = ("--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0", "0.5",
             "--tol", "1e-10", "--grid", "201", "--rhos", "1.25")
    assert run(capsys, "monodromy", *point)[0] == 1
    assert run(capsys, "verify", *point, "--checks", "monodromy")[0] == 1


def test_verify_determinism(capsys):
    args = (
        "verify", "--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0", "0.5",
        "--tol", "1e-10", "--grid", "101", "--checks", "ode,poly-exact",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_merges_in_input_order(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--points", "2,0.3,1,0.5;1,0.2,1.3,1.0", "--tol", "1e-10",
        "--grid", "101", "--checks", "poly-exact",
    )
    assert code == 0
    report = json.loads(out)
    assert report["points"][0]["params"]["ell"] == 2.0
    assert report["points"][1]["params"]["ell"] == 1.0


def test_sweep_degenerate_point_exit(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--points", "1,0.5,1,0.5", "--tol", "1e-10", "--grid", "101",
        "--checks", "theorem2",
    )
    assert code == 2
    report = json.loads(out)
    assert "error" in report["points"][0]


def test_sweep_error_at_one_point_keeps_the_others(capsys, monkeypatch):
    import heun_monodromy.verify as verify_mod
    from heun_monodromy import ToleranceNotMet
    from heun_monodromy.jsonio import canonical_json

    solve = verify_mod.solve_phase

    def flaky(params, phi0, **kw):
        if params.ell == 3.0:
            raise ToleranceNotMet("refinement disagreement 1e-6")
        return solve(params, phi0, **kw)

    monkeypatch.setattr(verify_mod, "solve_phase", flaky)
    args = ("--tol", "1e-10", "--grid", "101", "--checks", "ode")
    code, out, _ = run(capsys, "sweep", "--points", "2,0.3,1,0.5;3,0.3,1,0.5;1,0.2,1.3,1.0", *args)
    assert code == 1
    points = json.loads(out)["points"]
    assert points[1] == {
        "params": {"ell": 3.0, "mu": 0.3, "omega": 1.0, "phi0": 0.5},
        "failures": ["ToleranceNotMet: refinement disagreement 1e-6"],
        "passed": False,
    }
    code_ok, out_ok, _ = run(capsys, "sweep", "--points", "2,0.3,1,0.5;1,0.2,1.3,1.0", *args)
    assert code_ok == 0
    good = json.loads(out_ok)["points"]
    assert [canonical_json(p) for p in (points[0], points[2])] == [canonical_json(p) for p in good]


def test_sweep_bad_point(capsys):
    assert run(capsys, "sweep", "--points", "1,2")[0] == 3


def test_sweep_non_numeric_point_is_usage_error(capsys):
    # rejected before the valid first point runs: no report at all
    code, out, err = run(
        capsys, "sweep", "--points", "2,0.3,1,0.5;abc", "--checks", "poly-exact"
    )
    assert code == 3
    assert out == ""
    assert "usage error" in err


def test_sweep_non_positive_omega_is_usage_error(capsys):
    code, out, err = run(
        capsys, "sweep", "--points", "2,0.3,1,0.5;1,0.2,-1", "--checks", "poly-exact"
    )
    assert code == 3
    assert out == ""
    assert "omega must be > 0" in err


MONODROMY_POINT = ("monodromy", "--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0", "0.5")


@pytest.mark.parametrize(
    "argv",
    [
        MONODROMY_POINT + ("--rhos", "0"),
        MONODROMY_POINT + ("--rhos", "-1"),
        MONODROMY_POINT + ("--rhos", "nan"),
        MONODROMY_POINT + ("--rhos", "1e9"),
        MONODROMY_POINT + ("--rhos", "0.8,5.01"),
        MONODROMY_POINT + ("--phi0", "nan"),
        MONODROMY_POINT + ("--mu", "nan"),
        MONODROMY_POINT + ("--ell", "nan"),
        MONODROMY_POINT + ("--phi0", "inf"),
        MONODROMY_POINT + ("--omega", "inf"),
        MONODROMY_POINT + ("--ell", "inf"),
        ("verify", "--ell", "2", "--mu=-inf", "--omega", "1", "--phi0", "0.5"),
        ("verify", "--ell", "2", "--mu", "0.3", "--omega", "1", "--rhos", "nan"),
        ("sweep", "--points", "2,0.3,1,nan"),
        ("sweep", "--points", "2,0.3,1,0.5;inf,0.3,1"),
    ],
)
def test_non_finite_or_out_of_annulus_input_is_usage_error(capsys, monkeypatch, argv):
    # rejected before any solve: these inputs used to hang in the integrator
    # or end in a traceback
    import heun_monodromy.cli as cli_mod
    import heun_monodromy.verify as verify_mod

    def no_solve(*args, **kw):
        raise AssertionError("solve_phase ran on malformed input")

    monkeypatch.setattr(cli_mod, "solve_phase", no_solve)
    monkeypatch.setattr(verify_mod, "solve_phase", no_solve)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("usage error") and "Traceback" not in err


def test_annulus_bounds_are_accepted(capsys):
    code, out, _ = run(capsys, *MONODROMY_POINT, "--tol", "1e-10", "--grid", "201",
                       "--rhos", "0.2,5")
    assert code == 0
    assert [rho for rho, _ in json.loads(out)["ray_residuals"]] == [0.2, 5.0]


def test_verify_tolerance_failure_exit_code(capsys, monkeypatch):
    # exit-code contract: a failed budget yields 1 (distinct from the
    # degeneracy code 2); exercised by pinning one budget out of reach
    import heun_monodromy.verify as verify_mod

    monkeypatch.setitem(verify_mod.BUDGETS, "unimodularity", 1e-30)
    code, out, _ = run(
        capsys,
        "verify", "--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0", "0.5",
        "--tol", "1e-10", "--grid", "101", "--checks", "ode",
    )
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["failures"]
