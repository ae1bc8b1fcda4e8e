from __future__ import annotations

import ast
import hashlib
import json
import math
import os
import re
import signal
import threading
import time
import warnings
from pathlib import Path

import pytest

import heun_monodromy
import heun_monodromy.cli as cli_mod
from heun_monodromy.cli import main
from heun_monodromy.heunpoly import MAX_ELL
from heun_monodromy.jsonio import canonical_json
from tests.conftest import FIXED_SWEEP_POINTS, SWEEP_REGION

# sha256 of `poly --ell L` standard output, for every order; `--check` adds
# only its line on standard error.  The output is exact integer arithmetic,
# so a changed digest is a wrong answer, not a rounding change.  Orders 1..6
# are the ones `verify`'s poly-exact suite runs; from 22 on the coefficients
# pass 64 bits (66 at 22, 94 at 28, 113 at 32), so those pin exact
# arithmetic on Python ints.
POLY_STDOUT_SHA256 = {
    1: "31f8a36f0a41e5b4e1cccd81ee8d9920d7a2da7a91ae0afc1745a67ddf44784d",
    2: "975d1dac2e46d75464244c716e10e654938decda3ae4b9e6e79697c8709635de",
    3: "a5724aeacddbd38164ff24cd80ee600601fd0473626f7044646de06fccf1c6d5",
    4: "1bcc1ea283297d36ce78f4a32b184816e43eb80dd449f878f171f1ece457bec4",
    5: "85ad56e3a6eea48a4c74c6c4d72187eaf445de6157b664dc35b91ad9a22f9d32",
    6: "35c1f7937a10a9d312fa134577f5592e9126809827419dcd85e804d552ed6216",
    7: "af889e6fa48e4813dea5dade0956f1abbb7d74921709d162b173637c6dc72683",
    8: "6461b19c17ef634ef487dec0fb3d94d6c08d6047f5f093fbe4a37d4ad826eeba",
    9: "ce6785d0e177775c2146eb4fab0f4953e564929ac26344bfc8c254969bec22a7",
    10: "835adfabd85104790f06db8165c60d0ca4f4beb5ad8d29b4d7288a99433b8d12",
    11: "3ee2469fa4eb34b2cb48b3c25b0a158895d2cba8c8200349210a92a44f5def7b",
    12: "23091ba5034b77765f4768fc738849e933ca59dccb87f870859a38a27a008c9d",
    13: "5d44b69accd771a11986ef23382182ccc8140b53060f6e2b9c3835d47a8b828c",
    14: "901fd27a91467b9689ce2849d4b624edc2af25a4fb5d2c092f179a27b9d04cbe",
    15: "1bed3a2781cb812eaa442fb79f80127a4b94737a73c4a8e53a4d1e4f3b01b4e0",
    16: "d4687a2729f6b4d3103522a12f629c8d5f2a0c9b844929eb5a271cb9e1ad7047",
    17: "6b42d8efbafa7a5f898d7df2064aa04832b1c31d90c459f6ea76ef7707882f2c",
    18: "7ac1190764d7ab65016bfda208837069260b454ead6c7ba7d2b8df95307ac3a2",
    19: "5c27b3497699c868759e96fa654769e34db36ce55502cdd38a023f3cee50cf0e",
    20: "2529b1cfd2e6554293393df23f4c8d415380bb933aa155595174818825fe987b",
    21: "b98602388cf1a7c09da34aaf471e54c18a1951d8a0324d750f0c0169ed45006d",
    22: "f1c936ced8e192ea036f250608e6a12e58ffd885cfbb0217a9bd118d5b34cf08",
    23: "41c8d2e2240dd9ec41e49f1a63b701741aaa194f829cb0317aeccc278a4d3c07",
    24: "b14474e41759faec4f3dcc378b8e1741474325a59b0369f629bb519ec59bfc70",
    25: "73981d74045b177c3fa0486f409147f86eda0584f093f6358896b533bebeaa98",
    26: "231cadf83c46a2522d9d23ff8e84305f9308349a00d7095eb0375b6015ba497d",
    27: "dcb543f4643f34e43044159a103baa677d90c65e5d027e3d2037ae870a4c3172",
    28: "4c20b5abf845138db97623ab991262464c76ad5174caaa1f299b7f7369ec828e",
    29: "5a6cf2d0fac3114a2d986352f3ba044ce6acfc89b026192c9544a3e2fb184576",
    30: "03505b93f188d116ce3a825aea15bf31ca6c6f8d443e66de865bdeabfe7f5a88",
    31: "87d14b938c8a5cf2550d829c589a74ee7600963d23624ca67f25973a6bc1ef06",
    32: "c1514e05047e9cec57ce568a1cff445762c9d781b303df0a7997acdff93007c3",
}

# sha256 of `sqrt-monodromy` standard output at golden point 2 with the
# default --tol and --grid, recorded with the phase rows chained as the
# linear pair (u, conj u), the second application as Q2 Q1 on the first's
# coordinates on the basis {y, Ry} and the P_B panel table collocated by
# gauss.collocate.
SQRT_MONODROMY_G2_SHA256 = "4db2f058f28299ca4139b1a39d5030fd65e026a0eb7201d3c748cd9952574f73"
# The same report with every residual set to null: its keys, order, grid
# size and conventions.
SQRT_MONODROMY_G2_SHAPE_SHA256 = "d2f65ef802007cef4838e16e345be505725f45ca96ef10a6b485c61905894a30"
# sha256 of `monodromy` standard output at the two golden points with the
# default --tol, --grid and --rhos (run_battery's monodromy section),
# recorded with the circle pair read off the linear solution (u, conj u) and
# each ray route one straight leg in w = log z through gauss.collocate.
MONODROMY_STDOUT_SHA256 = {
    ("2", "0.3", "1", "0.5"): "1e77ce50c03503c5e5260e7fa1ff6da7195cbfa23f5cb55a5428afab267b8ee9",
    ("1", "0.2", "1.3", "1.0"): "1ecc09ae3b39fef9dce30e6d09ada39ad269450c276566089cc353d3758b4995",
}
# The one genericity message, NumericQuad's, at (1, 0.5, 1, 0.5) where D- = 0.
GENERICITY_MESSAGE = ("D+=2.000e+00, D-=0.000e+00 at (ell=1, mu=0.5, omega=1.0); "
                      "the symmetry operator is not invertible here")
# Two residuals as they were with the DOP853 P_B; both must stay below.
SQRT_MONODROMY_G2_DOP853 = {
    "b_squared_residual": 5.675490289945347e-12,
    "psi_quadrature_residual": 4.2443826246232195e-13,
}


# sha256 of `verify` standard output (all checks, default --tol and --grid)
# at the two golden points, recorded with the phase rows chained as the
# linear pair (u, conj u) through gauss.collocate, every circle solution
# read as coordinates on the basis {y, Ry} of that linear solution, the
# second application as Q2 Q1 on the first's coordinates, the P_B panel
# table and the ray routes, each one straight leg in w = log z, through gauss
# as well, the theta pair integrated exactly on the phase rows, and the 2x2
# algebra of L_B in closed form.
VERIFY_STDOUT_SHA256 = {
    ("2", "0.3", "1", "0.5"): "018b047b6d6d3fc53c2f7119e0dcfa0ea58d22cf9844b42d124acb20d2e3a019",
    ("1", "0.2", "1.3", "1.0"): "282dc10239aee0eb3ecaaa7a6695be090f1c757e801c7931096be8ae8dcda30a",
}
# The same reports with every residual set to null: their keys, order,
# strings, grid sizes and radii.
VERIFY_SHAPE_SHA256 = {
    ("2", "0.3", "1", "0.5"): "dffa9847fbc56bdbcf669f1141e3f4e58b3aef3df3a8837b03135f8e6e68ee1a",
    ("1", "0.2", "1.3", "1.0"): "cd040fd8b8067698880216b1c4597773b269f0596242deadd7e8aa7136f1ff89",
}
# Every residual of those reports is bounded at over eight times the largest
# (ode's err_est at G1, 1.17e-14), but lb_maps_solutions,
# which takes F'' from a symmetric difference (3.4e-10).
RESIDUAL_BOUND = 1e-13
LB_MAPS_BOUND = 1e-9


def _null_residuals(report: dict, sections=("ode", "monodromy", "heun", "theorem2")):
    """Set every residual of the report's check sections to None, in place,
    and return them as (name, value): the float leaves other than tol, the
    rays' residuals and the operations' sup_residual."""
    taken = []
    for section in sections:
        body = report[section]
        for key, value in body.items():
            if isinstance(value, float) and key != "tol":
                taken.append((f"{section}.{key}", value))
                body[key] = None
        for ray in body.get("ray_residuals", []):
            taken.append((f"{section}.ray_residual({ray[0]})", ray[1]))
            ray[1] = None
        for op in body.get("operations", []):
            taken.append((f"{section}.operations.{op['check']}", op["sup_residual"]))
            op["sup_residual"] = None
    return taken


def _assert_residuals_bounded(residuals):
    for name, value in residuals:
        lb_maps = "lb_maps" in name or name.endswith("apply_B_dche")
        assert value <= (LB_MAPS_BOUND if lb_maps else RESIDUAL_BOUND), name


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


def test_poly_pins_cover_every_order():
    assert sorted(POLY_STDOUT_SHA256) == list(range(1, MAX_ELL + 1))


@pytest.mark.parametrize("ell", sorted(POLY_STDOUT_SHA256))
def test_poly_check_output_is_pinned(capsys, ell):
    code, out, err = run(capsys, "poly", "--ell", str(ell), "--check")
    assert (code, err) == (0, "exact checks passed\n")
    assert hashlib.sha256(out.encode()).hexdigest() == POLY_STDOUT_SHA256[ell]


def test_poly_keeps_the_traced_hooks(capsys, monkeypatch):
    # the benchmark's tracer wraps LaurentPoly.canonical_text in the class
    # __dict__ and cli's own name for jsonio.canonical_json; a refactor that
    # bypasses either stops every traced run
    import heun_monodromy.cli as cli_mod
    from heun_monodromy import jsonio
    from heun_monodromy.exactpoly import LaurentPoly

    assert cli_mod.canonical_json is jsonio.canonical_json
    original = LaurentPoly.__dict__["canonical_text"]
    rendered = []

    def counted(self):
        rendered.append(self)
        return original(self)

    monkeypatch.setattr(LaurentPoly, "canonical_text", counted)
    code, out, _ = run(capsys, "poly", "--ell", "2")
    assert code == 0
    assert len(rendered) == 5  # p, q, r, s and D
    assert [line.split(" = ")[1] for line in out.splitlines()[:5]] == [
        original(poly) for poly in rendered
    ]


def test_poly_at_the_order_limit(capsys):
    assert MAX_ELL == 32
    code, _, err = run(capsys, "poly", "--ell", str(MAX_ELL), "--check")
    assert code == 0
    assert err == "exact checks passed\n"


def test_poly_past_the_order_limit(capsys):
    code, out, err = run(capsys, "poly", "--ell", str(MAX_ELL + 1), "--check")
    assert (code, out) == (3, "")
    assert f"1..{MAX_ELL}" in err


PAST_THE_ORDER_LIMIT = {
    "verify": ("verify", "--ell", "40", "--mu", "0.3", "--omega", "1", "--phi0", "0.5",
               "--checks", "heun"),
    "sqrt-monodromy": ("sqrt-monodromy", "--ell", str(MAX_ELL + 1), "--mu", "0.3",
                       "--omega", "1", "--phi0", "0.5"),
    "sweep": ("sweep", "--points", "2,0.3,1,0.5;40,0.3,1,0.5", "--checks", "heun"),
}


@pytest.mark.parametrize("command", list(PAST_THE_ORDER_LIMIT))
def test_order_past_the_limit_is_a_usage_error_before_the_solve(capsys, monkeypatch, command):
    # the heun and theorem2 checks build the quadruple of the point's order:
    # past MAX_ELL, diagonal raised a ValueError (exit 1 with a traceback, and
    # sweep lost every point)
    import heun_monodromy.cli as cli_mod
    import heun_monodromy.verify as verify_mod

    def no_solve(*args, **kw):
        raise AssertionError("solve_phase ran past the order limit")

    monkeypatch.setattr(cli_mod, "solve_phase", no_solve)
    monkeypatch.setattr(verify_mod, "solve_phase", no_solve)
    code, out, err = run(capsys, *PAST_THE_ORDER_LIMIT[command])
    assert (code, out) == (3, "")
    assert f"1..{MAX_ELL}" in err
    assert "Traceback" not in err


def test_checks_without_the_quadruple_run_past_the_order_limit(capsys):
    code, out, err = run(capsys, "verify", "--ell", "40", "--mu", "0.3", "--omega", "1",
                         "--phi0", "0.5", "--checks", "ode,monodromy")
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"] is True


def test_sqrt_monodromy_golden_2_stdout_is_pinned(capsys):
    code, out, _ = run(
        capsys, "sqrt-monodromy", "--ell", "1", "--mu", "0.2", "--omega", "1.3", "--phi0", "1.0"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SQRT_MONODROMY_G2_SHA256
    report = json.loads(out)
    for key, before in SQRT_MONODROMY_G2_DOP853.items():
        assert report["theorem2"][key] < before
    _assert_residuals_bounded(_null_residuals(report, ("theorem2",)))
    shape = canonical_json(report) + "\n"
    assert hashlib.sha256(shape.encode()).hexdigest() == SQRT_MONODROMY_G2_SHAPE_SHA256


@pytest.mark.parametrize("point", sorted(MONODROMY_STDOUT_SHA256))
def test_monodromy_golden_stdout_is_pinned(capsys, point):
    ell, mu, omega, phi0 = point
    code, out, err = run(
        capsys, "monodromy", "--ell", ell, "--mu", mu, "--omega", omega, "--phi0", phi0
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == MONODROMY_STDOUT_SHA256[point]


@pytest.mark.parametrize("point", sorted(VERIFY_STDOUT_SHA256))
def test_verify_golden_stdout_is_pinned(capsys, point):
    ell, mu, omega, phi0 = point
    code, out, _ = run(
        capsys, "verify", "--ell", ell, "--mu", mu, "--omega", omega, "--phi0", phi0
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[point]
    report = json.loads(out)
    assert [rho for rho, _ in report["monodromy"]["ray_residuals"]] == [0.8, 1.25]
    assert len([key for key in report["heun"] if key.startswith("phi_alpha")]) == 9
    _assert_residuals_bounded(_null_residuals(report))
    shape = canonical_json(report) + "\n"
    assert hashlib.sha256(shape.encode()).hexdigest() == VERIFY_SHAPE_SHA256[point]


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
    assert err.startswith("tolerance failure: ") and "needs more than 100000 rows" in err
    assert "Traceback" not in err


# What the two inputs whose slope scale once overflowed DOP853's initial step
# print now: at mu = 1e300 the row cap is 2.4e-301, so the window needs about
# 6e301 rows and is refused before anything is allocated; at omega = 1e300
# the window is 137 rows, the solve succeeds, and the report fails its
# Riccati budget (the residual scales with omega).  The stderr lines are the
# one message of gauss.uniform_rows.
ZERO_INITIAL_STEP_EXITS = {
    ("--mu", "1e300", "--omega", "1"): (
        1, "", "tolerance failure: [0.0, 14.137166941154069] needs more than 100000 rows "
               "of at most 2.4e-301\n"),
    ("--mu", "0.3", "--omega", "1e300"): (
        1, '{"sup_residual_circle": 4.8698183706588758e-15, "boundary_residual": '
           '1.2412670766236366e-16, "unimodularity_residual": 3.3306690738754696e-16, '
           '"riccati_residual": 1.4870169084777831e+285, "ray_residuals": '
           '[[0.80000000000000004, 4.4754520913118096e-16], [1.25, 8.8817841970012523e-16]], '
           '"grid_size": 1001, "tol": 9.9999999999999998e-13}\n', ""),
    # a slope scale of 2e307 makes the row count inf, one of inf makes the
    # row cap 0: both must hit the ceiling before any division
    ("--mu", "1e307", "--omega", "1"): (
        1, "", "tolerance failure: [0.0, 14.137166941154069] needs more than 100000 rows "
               "of at most 2.4e-308\n"),
    ("--mu", "1e308", "--omega", "1"): (
        1, "", "tolerance failure: [0.0, 14.137166941154069] needs more than 100000 rows "
               "of at most 0\n"),
}


@pytest.mark.parametrize("argv", list(ZERO_INITIAL_STEP_EXITS))
def test_zero_initial_step_is_a_typed_error(capsys, argv):
    # an infinite slope scale made DOP853's first trial step 0 and
    # _initial_step divided by it (ZeroDivisionError, a traceback); the phase
    # takes no initial step any more
    code, out, err = run(capsys, "monodromy", "--ell", "2", *argv, "--phi0", "0.5")
    assert (code, out, err) == ZERO_INITIAL_STEP_EXITS[argv]
    assert "Traceback" not in err


NON_GENERIC_POINT = ("--ell", "1", "--mu", "0.5", "--omega", "1", "--phi0", "0.5")
NON_GENERIC_COMMANDS = {
    "sqrt-monodromy": ("sqrt-monodromy", *NON_GENERIC_POINT),
    "verify": ("verify", *NON_GENERIC_POINT),
    "verify-heun": ("verify", *NON_GENERIC_POINT, "--checks", "heun"),
    "verify-theorem2": ("verify", *NON_GENERIC_POINT, "--checks", "theorem2"),
    "sweep-heun": ("sweep", "--points", "1,0.5,1,0.5", "--checks", "heun"),
}


@pytest.mark.parametrize("command", list(NON_GENERIC_COMMANDS))
def test_non_generic_point_is_gated_before_the_solve(capsys, monkeypatch, command):
    # order 1 with A = 1 has D- = 0: every command that needs the symmetry
    # operator exits 2 with NumericQuad's one message, before the phase is
    # solved; sweep writes it into the point's record
    import heun_monodromy.verify as verify_mod

    def no_solve(*args, **kw):
        raise AssertionError("solve_phase ran at a degenerate point")

    monkeypatch.setattr(cli_mod, "solve_phase", no_solve)
    monkeypatch.setattr(verify_mod, "solve_phase", no_solve)
    code, out, err = run(capsys, *NON_GENERIC_COMMANDS[command])
    if command == "sweep-heun":
        assert (code, err) == (2, "")
        assert json.loads(out)["points"][0]["error"] == GENERICITY_MESSAGE
    else:
        assert (code, out, err) == (2, "", f"degenerate parameter point: {GENERICITY_MESSAGE}\n")


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


def test_z1_edge_gives_one_decision_and_one_message(capsys):
    # phi0 = pi/2 - 1e-8 at (2, 0.3, 1): np.cos(phi0) reads 1.00000000005e-8
    # and Re(S0^2)/|S0|^2 9.99999999474e-9, so two gates once disagreed (heun
    # exited 1 with a report, theorem2 2); one function now decides from S(0)
    point = ("--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0", repr(math.pi / 2 - 1e-8))
    results = {checks: run(capsys, "verify", *point, "--checks", checks)
               for checks in ("heun", "theorem2", "heun,theorem2")}
    message = results["theorem2"][2]
    assert message.startswith("degenerate parameter point: cos(phi(0)) = 1.00e-08")
    assert set(results.values()) == {(2, "", message)}


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


# A sweep splits its points into contiguous chunks, one per CPU, and forks a
# child for every chunk but the first.  These tests set the CPU count through
# os.sched_getaffinity, so they fork on a one-CPU machine too.
def _cpus(monkeypatch, n: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _points_text(points) -> str:
    return ";".join(",".join(repr(x) for x in p) for p in points)


# the two fixed sweep points, and a region point with its mirror through the
# centre of the region, as the benchmark's sweeps draw them
_REGION_POINT = tuple(round(lo + 0.3 * (hi - lo), 6) for lo, hi in SWEEP_REGION)
SWEEP_POINTS = FIXED_SWEEP_POINTS + (
    _REGION_POINT, tuple(round(lo + hi - v, 6) for v, (lo, hi) in zip(_REGION_POINT, SWEEP_REGION)))


def test_sweep_forked_output_is_the_serial_output(capsys, monkeypatch):
    argv = ("sweep", "--points", _points_text(SWEEP_POINTS), "--checks", "ode,monodromy",
            "--grid", "201")
    _cpus(monkeypatch, 1)
    serial = run(capsys, *argv)
    _cpus(monkeypatch, 2)
    forked = run(capsys, *argv)
    _assert_no_child()
    assert forked == serial
    assert serial[0] == 0 and len(json.loads(serial[1])["points"]) == 4


def test_sweep_reruns_the_chunk_of_a_failed_child(capsys, monkeypatch):
    argv = ("sweep", "--points", _points_text(SWEEP_POINTS[:3]), "--checks", "ode",
            "--grid", "101")
    _cpus(monkeypatch, 1)
    serial = run(capsys, *argv)
    sweep_one, pid = cli_mod._sweep_one, os.getpid()

    def fails_in_a_child(*args):
        if os.getpid() != pid:
            raise RuntimeError("lost child")
        return sweep_one(*args)

    monkeypatch.setattr(cli_mod, "_sweep_one", fails_in_a_child)
    _cpus(monkeypatch, 2)
    assert run(capsys, *argv) == serial
    _assert_no_child()


def _fake_point(point, params, tol, grid, checks):
    return {"params": point}, 0


@pytest.mark.parametrize("chunk", ["parent", "child"])
def test_sweep_untyped_error_propagates_as_in_the_serial_loop(capsys, monkeypatch, chunk):
    # the error is raised at the first point (the parent's chunk) or the last
    # (the child's) in every process; a child still working when the parent
    # raises is killed, not waited for
    bad, pid = (1.0 if chunk == "parent" else 3.0), os.getpid()

    def fails_at_one_point(point, *args):
        if point["ell"] == bad:
            raise RuntimeError(f"boom at {bad}")
        if chunk == "parent" and os.getpid() != pid:
            time.sleep(30)
        return _fake_point(point, *args)

    monkeypatch.setattr(cli_mod, "_sweep_one", fails_at_one_point)
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=f"boom at {bad}"):
            main(["sweep", "--points", "1,0.3,1;2,0.3,1;3,0.3,1", "--checks", "ode"])
        _assert_no_child()
        assert time.perf_counter() - start < 15
    assert capsys.readouterr() == ("", "")


def test_sweep_forks_one_child_per_chunk_but_the_first(capsys, monkeypatch):
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(cli_mod, "_sweep_one", _fake_point)
    _cpus(monkeypatch, 64)
    expected = []
    for points, children in (("1,0.3,1;2,0.3,1;3,0.3,1", 2), ("1,0.3,1", 0)):
        forks.clear()
        code, out, _ = run(capsys, "sweep", "--points", points, "--checks", "ode")
        _assert_no_child()
        assert len(forks) == children
        expected.append(code)
        assert [p["params"]["ell"] for p in json.loads(out)["points"]] == [
            float(x.split(",")[0]) for x in points.split(";")]
    assert expected == [0, 0]
    # another thread alive: no fork, since a child would not have it
    forks.clear()
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert run(capsys, "sweep", "--points", "1,0.3,1;2,0.3,1", "--checks", "ode")[0] == 0
    finally:
        done.set()
        other.join()
    assert forks == []


def _warning_point(point, params, tol, grid, checks):
    warnings.warn(f"point {point['ell']}", RuntimeWarning)
    warnings.warn("every point", RuntimeWarning)
    print(f"err {point['ell']}", file=os.sys.stderr)
    return _fake_point(point, params, tol, grid, checks)


@pytest.mark.parametrize("action", ["always", "default"])
def test_sweep_child_warnings_and_text_reach_the_parent(capsys, monkeypatch, action):
    # each child's warnings come after those of the parent's chunk, once, in
    # point order; under "default" a warning the parent has shown is not
    # shown again, as in one process
    monkeypatch.setattr(cli_mod, "_sweep_one", _warning_point)
    argv = ["sweep", "--points", "1,0.3,1;2,0.3,1;3,0.3,1;4,0.3,1", "--checks", "ode"]
    seen = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = main(argv)
        seen[cpus] = code, [(str(w.message), w.category, w.lineno) for w in caught], \
            capsys.readouterr()
        _assert_no_child()
    assert seen[2] == seen[1]
    messages = [m for m, *_ in seen[1][1]]
    if action == "always":
        assert messages == [m for k in range(1, 5) for m in (f"point {k}.0", "every point")]
    else:
        assert messages == ["point 1.0", "every point", "point 2.0", "point 3.0", "point 4.0"]
    assert seen[1][2].err == "".join(f"err {k}.0\n" for k in range(1, 5))


def test_only_cli_forks():
    # process concurrency has one home, the sweep in cli: no other module of
    # the package may fork, none may import multiprocessing or
    # concurrent.futures, and cli must call fork, so the guard cannot go stale
    package = Path(heun_monodromy.__file__).resolve().parent
    forking = set()
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("fork", "forkpty"):
                    forking.add(module.name)
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            for name in names:
                assert name.split(".")[0] not in ("multiprocessing", "concurrent"), (
                    f"{module.name}:{node.lineno} imports {name}")
    assert forking == {"cli.py"}


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
        MONODROMY_POINT + ("--rhos", ","),
        ("verify", "--ell", "2", "--mu", "0.3", "--omega", "1", "--rhos", ""),
        MONODROMY_POINT + ("--rhos", "0.8,,1.25"),
    ],
)
def test_non_finite_or_out_of_annulus_input_is_usage_error(capsys, monkeypatch, argv):
    # rejected before any solve: these inputs used to hang in the integrator
    # or end in a traceback, a --rhos naming no radius dropped the ray
    # certificate from the report, and an empty field between radii was
    # skipped
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
