from __future__ import annotations

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import heun_monodromy
from heun_monodromy import ModelParams, OutOfWindow, gauss, solve_phase
from heun_monodromy.circle import theta_pair_solve
from heun_monodromy.phase import system_row, turning_rate
from tests.conftest import (
    FIXED_SWEEP_POINTS,
    GOLDEN_1,
    GOLDEN_1_PHI_AT_T,
    GOLDEN_2,
    GOLDEN_2_PHI_AT_T,
    GOLDENS,
)
from tests.scipy_reference import phase_rhs

OFF_GOLDEN = dict(ell=5.647393, mu=0.089889, omega=0.807236, phi0=0.759566)


def test_zero_equilibrium(trivial_path):
    t = np.linspace(trivial_path.t_min, trivial_path.t_max, 101)
    assert np.max(np.abs(trivial_path.phi(t))) < 1e-12
    assert np.max(np.abs(trivial_path.P(t) - t)) < 1e-10


def test_unstable_equilibrium():
    path = solve_phase(ModelParams(ell=0.0, mu=0.0, omega=1.0), np.pi, tol=1e-12)
    t = np.linspace(-np.pi, np.pi, 41)
    assert np.max(np.abs(path.phi(t) - np.pi)) < 1e-9
    assert np.max(np.abs(path.P(t) + t)) < 1e-9


def test_golden_phi_at_T(golden_path, golden2_path):
    # the solved phi(T) is the oracle's nearest float at G1 and within 4.4e-16
    # of it at G2
    for path, expected in ((golden_path, GOLDEN_1_PHI_AT_T), (golden2_path, GOLDEN_2_PHI_AT_T)):
        T = path.params.T
        assert abs(float(path.phi(T)[0]) - expected) < 1e-13


def test_initial_conditions_exact(golden_path):
    phi, P = golden_path.eval(0.0)[:, 0]
    assert phi == golden_path.phi0
    assert P == 0.0


def test_eval_at_step_endpoint(golden_path):
    ts = golden_path.step_times
    inner = ts[(ts > golden_path.t_min) & (ts < golden_path.t_max)]
    t = float(inner[len(inner) // 3])
    phi1, P1 = golden_path.eval(t)[:, 0]
    # dense output is exact at accepted steps: re-evaluating nearby and
    # extrapolating cannot change the endpoint value
    phi2, P2 = golden_path.eval(t)[:, 0]
    assert phi1 == phi2 and P1 == P2


def test_out_of_window(golden_path):
    with pytest.raises(OutOfWindow):
        golden_path.phi(golden_path.t_max + 1.0)


def test_tol_ladder():
    p = ModelParams(ell=2, mu=0.3, omega=1.0)
    with pytest.raises(ValueError):
        solve_phase(p, 0.0, tol=1e-2)
    with pytest.raises(ValueError):
        solve_phase(p, 0.0, tol=1e-15)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_ode_residual_within_budget(golden_params, tol):
    path = solve_phase(golden_params, 0.5, tol=tol)
    t = np.linspace(path.t_min + 0.01, path.t_max - 0.01, 1001)
    res_phi, res_p = path.ode_residual(t)
    assert float(np.max(res_phi)) <= 10 * tol
    assert float(np.max(res_p)) <= 10 * tol


def test_err_est_reported(golden_path):
    assert 0 <= golden_path.err_est <= 1e3 * golden_path.tol


def test_time_translation_property(golden_path):
    assert golden_path.time_translation_residual(1001) < 10 * golden_path.tol


def test_P_increasing_where_cos_positive(golden_path):
    ts = golden_path.step_times
    for a, b in zip(ts[:-1], ts[1:]):
        sample = np.linspace(a, b, 9)
        if np.all(np.cos(golden_path.phi(sample)) > 0.05):
            assert float(golden_path.P(b)[0]) > float(golden_path.P(a)[0])


def test_reaches_window_ends(golden_path):
    for t_edge in (golden_path.t_min, golden_path.t_max):
        vals = golden_path.eval(t_edge)
        assert np.all(np.isfinite(vals))


def _row_value(rows, t):
    """One time from the solver's own rows, one row at a time: the first row
    in the order of integration whose closed interval holds t, then Horner's
    rule over its powers of the row fraction on one-element arrays, and the
    phase relative to the row start and the quadrature from the mantissa of
    u and the row's scale."""
    ts = rows.ts
    i = next(i for i in range(rows.n) if min(ts[i], ts[i + 1]) <= t <= max(ts[i], ts[i + 1]))
    s = ((np.array([t]) - ts[i]) / rows.h)[:, None]
    C = rows._rise[:, i:i + 1]  # (powers, 1, 2): Re u, Im u
    acc = C[-1] * s
    for power in range(gauss.NODES - 2, 0, -1):
        acc = (acc + C[power]) * s
    (u,) = (rows.y0[i] + ((acc + C[0]) * s).view(complex)).T
    w = rows.y0[i, 0] * u.conj()
    phi = rows.phi[i] + (rows.phi_lo[i] + 2.0 * np.arctan2(w.imag, w.real))
    P = rows.log_scale[i] + np.log(u.real * u.real + u.imag * u.imag)
    return [float(phi[0]), float(P[0])]


def _row_reference(path, t):
    return np.array([_row_value(path._fwd if x >= 0 else path._bwd, x) for x in t]).T


@pytest.mark.parametrize("fixture", ["golden_path", "golden2_path"])
def test_eval_is_bit_identical_to_dense_output(fixture, request):
    path = request.getfixturevalue(fixture)
    rng = np.random.default_rng(311)
    t = np.concatenate(
        [rng.uniform(path.t_min, path.t_max, 2000), path.step_times, [0.0, path.t_min, path.t_max]]
    )
    ref = _row_reference(path, t)
    assert np.array_equal(path.eval(t), ref)
    one = np.array([path.eval(float(x))[:, 0] for x in t]).T
    assert np.array_equal(one, ref)
    one_arr = np.array([path.eval(np.array([x]))[:, 0] for x in t]).T
    assert np.array_equal(one_arr, ref)


@pytest.mark.parametrize("point", GOLDENS + ((1.0, 0.3, 0.3, 0.5),))
def test_v_is_conj_u_bit_for_bit(point):
    # with (u, v) the system also solves (conj v, conj u); every rounding of
    # the collocation and the chain commutes with conjugation, so the whole
    # system, collocated from v(0) = conj(u(0)), keeps v = conj(u) exactly,
    # and its u is the one the rows store, both ways over the whole window
    # (e^P reaches 1.8e4 at the last point)
    ell, mu, omega, phi0 = point
    params = ModelParams(ell=ell, mu=mu, omega=omega)
    path = solve_phase(params, phi0, tol=1e-12)
    u0 = complex(math.cos(0.5 * phi0), -math.sin(0.5 * phi0))
    nodes = gauss.NODE_FRACTIONS[:, None]

    def whole_matrix(t):
        # M = [[alpha, beta], [beta, -alpha]] from its first row
        (alpha, beta), = system_row(params, t)
        return np.array(((alpha, beta), (beta, -alpha))).transpose(2, 0, 1, 3)

    for rows in (path._fwd, path._bwd):
        whole = gauss.collocate(lambda blk: whole_matrix(rows.ts[blk] + rows.h * nodes),
                                rows.ts, rows.h, (u0, u0.conjugate()))
        assert np.array_equal(whole.y0[:, 1], whole.y0[:, 0].conj())
        assert np.array_equal(whole.coef[..., 1], whole.coef[..., 0].conj())
        assert np.array_equal(whole.y0[:, :1], rows.y0)
        assert np.array_equal(whole.coef[..., :1], rows.coef)
        assert np.array_equal(whole.exponent, rows.exponent)
    t = np.concatenate((np.linspace(path.t_min, path.t_max, 4001), path.step_times))
    u, v = path.solution(t)
    assert np.array_equal(v, u.conj())


@pytest.mark.parametrize("point", GOLDENS + ((1.0, 0.3, 0.3, 0.5),), ids=["G1", "G2", "hyperbolic"])
def test_conjugate_pair_blocks_match_the_whole_system(point, monkeypatch):
    # the phase rows and the theta pair are collocated as conjugate pairs
    # from the first row of M = [[a, b], [conj b, conj a]] and keep u alone;
    # on every block, the general kernel and chain on the whole M give the
    # same first rows of G and R, the same row starts and end pair, with
    # v = conj(u), and the same exponent (np.array_equal, so the sign of a
    # zero is not compared)
    kernel, chain, blocks = gauss.row_propagators, gauss.chain, []

    def recording_kernel(M, h):
        G, R = kernel(M, h)
        blocks.append([M, h, G, R])
        return G, R

    def recording_chain(R, y, e):
        out = chain(R, y, e)
        blocks[-1] += [y, e, out]
        return out

    monkeypatch.setattr(gauss, "row_propagators", recording_kernel)
    monkeypatch.setattr(gauss, "chain", recording_chain)
    ell, mu, omega, phi0 = point
    path = solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=1e-12)
    pair = theta_pair_solve(path)
    rows = (path._fwd, path._bwd, pair._fwd, pair._bwd)
    for r in rows:
        assert r.y0.shape[1] == 1 and r.coef.shape[2] == 1
    assert len(blocks) == sum(-(-r.n // gauss.BLOCK_ROWS) for r in rows)
    for M, h, G, R, y, e, (starts, end, e_end) in blocks:
        assert M.shape[1] == 1 and len(y) == 1
        a, b = M[:, 0, 0], M[:, 0, 1]
        whole_G, whole_R = kernel(np.stack((M[:, 0], np.stack((b.conj(), a.conj()), 1)), 1), h)
        assert np.array_equal(whole_G[:, :1], G) and np.array_equal(whole_R[:1], R)
        whole_starts, whole_end, whole_e = chain(whole_R, (y[0], y[0].conjugate()), e)
        assert np.array_equal(whole_starts[:, :1], starts)
        assert np.array_equal(whole_starts[:, 1], starts[:, 0].conj())
        assert whole_end == (end[0], end[0].conjugate()) and whole_e == e_end


@pytest.mark.parametrize("fixture", ["golden_path", "golden2_path"])
def test_derivative_matches_rhs_at_step_nodes(fixture, request):
    # the collocation polynomial satisfies the linear system at every row's
    # Gauss nodes, so there its own derivative is the phase equation's
    path = request.getfixturevalue(fixture)
    for rows in (path._fwd, path._bwd):
        t = (rows.ts[:-1, None] + rows.h * gauss.NODE_FRACTIONS).ravel()
        d = path.derivative(t)
        phi = path.phi(t)
        assert np.max(np.abs(d[0] - path.phidot(t, phi))) <= 1e-13
        assert np.max(np.abs(d[1] - np.cos(phi))) <= 1e-13


def test_golden_ode_residual_tight(golden_path):
    t = np.linspace(golden_path.t_min + 0.01, golden_path.t_max - 0.01, 1001)
    res_phi, res_p = golden_path.ode_residual(t)
    assert max(float(np.max(res_phi)), float(np.max(res_p))) <= 1e-12


@pytest.mark.parametrize(
    "point", GOLDENS + FIXED_SWEEP_POINTS + ((12.0, 0.2, 1.0, 0.3), (1.0, 1.256, 0.4074, 0.0428))
)
def test_phase_certificates_hold_to_1e_13(point):
    # the DOP853 interpolant's derivative left 9.0e-13 at G1 and 2.4e-12 at
    # ell = 12; the collocation polynomial's own derivative stays at rounding
    ell, mu, omega, phi0 = point
    path = solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=1e-12)
    t = np.linspace(path.t_min + 0.01, path.t_max - 0.01, 1001)
    assert max(float(np.max(res)) for res in path.ode_residual(t)) <= 1e-13
    assert path.time_translation_residual(1001) <= 1e-13


def _scipy_phase(params, phi0, t_bound, max_step):
    # rtol 2.5e-14, the setting solve_phase used with DOP853 at tol = 1e-12,
    # and as max step 0.12/(|B| + |A| + 1), a quarter of the phase rows'
    # widest row at most points
    return solve_ivp(phase_rhs(params), (0.0, t_bound), (phi0, 0.0), method="DOP853",
                     rtol=2.5e-14, atol=2.5e-16, max_step=max_step, dense_output=True)


@pytest.mark.parametrize("point", [GOLDEN_1, GOLDEN_2, OFF_GOLDEN], ids=["G1", "G2", "off"])
def test_phase_solve_matches_scipy(point):
    params = ModelParams(ell=point["ell"], mu=point["mu"], omega=point["omega"])
    path = solve_phase(params, point["phi0"], tol=1e-12)
    sols = [_scipy_phase(params, point["phi0"], t_bound, 0.12 / turning_rate(params))
            for t_bound in (path.t_max, path.t_min)]
    t = np.random.default_rng(5).uniform(path.t_min, path.t_max, 5000)
    expect = np.where(t >= 0, sols[0].sol(t), sols[1].sol(t))
    assert np.max(np.abs(path.eval(t) - expect)) <= 1e-12


def test_program_imports_no_scipy():
    src = str(Path(heun_monodromy.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import heun_monodromy.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_program_defines_or_imports_no_dop853():
    # the program integrates with Gauss collocation only: no module of the
    # package may import the rk module or a name containing dop853, or
    # define a function or class of such a name
    package = Path(heun_monodromy.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert "rk.py" not in {m.name for m in modules}
    for module in modules:
        tree = ast.parse(module.read_text(), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                continue
            for name in names:
                assert "dop853" not in name.lower() and name.split(".")[-1] != "rk", (
                    f"{module.name}:{node.lineno} refers to {name}")


def _calls(module: Path):
    """(name, line) of every call in a module, by the attribute or bare name
    called."""
    for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None), node.lineno


def _assert_only_called_in(home: str, guarded: set[str]):
    """No module of the package but ``home`` calls a name in ``guarded``."""
    package = Path(heun_monodromy.__file__).resolve().parent
    for module in sorted(package.glob("*.py")):
        if module.name != home:
            for name, line in _calls(module):
                assert name not in guarded, f"{module.name}:{line} calls {name}"


def test_only_gauss_evaluates_dense_rows():
    # every dense output is built and evaluated through gauss: no other module
    # of the package may call the row evaluators, sum a row's coefficients or
    # convert node values to them, so no second builder or evaluator
    # reappears; nor the collocation kernel or the chain, so every linear
    # system enters through gauss.collocate and no second block loop
    # reappears; each guarded name must be one gauss defines, so the guard
    # cannot go stale
    package = Path(heun_monodromy.__file__).resolve().parent
    evaluators = {"horner", "legendre", "legendre_integrals", "node_sum", "power_coefficients",
                  "row_propagators", "chain"}
    defined = {node.name for node in ast.parse((package / "gauss.py").read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert evaluators <= defined, evaluators - defined
    _assert_only_called_in("gauss.py", evaluators)


@pytest.mark.parametrize("point", GOLDENS, ids=["G1", "G2"])
def test_fixed_fraction_read_matches_the_pointwise_read(point):
    # Rows.at_fractions (one node sum per block) against Rows.values and
    # slopes (Horner per point) at the same rows and fractions, on every block
    # of the phase rows: y to 4 ulps of itself, y' to 4 ulps of the block's
    # largest |y'| (measured: 1.0 and 2.3 ulps)
    ell, mu, omega, phi0 = point
    path = solve_phase(ModelParams(ell=ell, mu=mu, omega=omega), phi0, tol=1e-12)
    fractions = np.concatenate((gauss.NODE_FRACTIONS, [0.0, 0.3, 1.0]))
    for rows in (path._fwd, path._bwd):
        for lo in range(0, rows.n, gauss.BLOCK_ROWS):
            k = np.arange(lo, min(lo + gauss.BLOCK_ROWS, rows.n))
            y, dy = rows.at_fractions(slice(k[0], k[-1] + 1), fractions)
            ks, s = np.tile(k, len(fractions)), np.repeat(fractions, len(k))
            shape = (len(fractions), len(k), 1)  # u alone
            values, slopes = rows.values(ks, s).reshape(shape), rows.slopes(ks, s).reshape(shape)
            assert np.all(np.abs(y - values) <= 4 * gauss.EPS * np.abs(values))
            assert np.max(np.abs(dy - slopes)) <= 4 * gauss.EPS * np.max(np.abs(slopes))


def test_only_gauss_rescales_by_powers_of_two():
    # the exact power-of-two rescale has one home, gauss.chain and the Rows it
    # fills: no other module may call frexp or ldexp, so no second rescale
    # reappears beside the chain; each guarded name must be one gauss calls,
    # so the guard cannot go stale
    package = Path(heun_monodromy.__file__).resolve().parent
    rescales = {"frexp", "ldexp"}
    called = {name for name, _ in _calls(package / "gauss.py")}
    assert rescales <= called, rescales - called
    _assert_only_called_in("gauss.py", rescales)
