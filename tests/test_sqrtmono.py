from __future__ import annotations

import cmath

import numpy as np
import pytest

from heun_monodromy import ModelParams, gauss, solve_phase
from heun_monodromy.circle import IDENTITY, CirclePair, riccati_circle_residual
from heun_monodromy.errors import DegenerateAtOne, GenericityViolated, OutOfWindow
from heun_monodromy.heunpoly import NumericQuad, diagonal
from heun_monodromy.sqrtmono import (
    SqrtMonodromyTransform,
    _shortcuts,
    transform_from_path,
    verify_theorem2,
)
from tests.scipy_reference import reference_P_B


@pytest.fixture(scope="module")
def golden_transform(golden_path, golden_quad):
    return transform_from_path(golden_path, golden_quad)


def grid(path, n=801):
    T = path.params.T
    return np.linspace(-T / 2, T / 2, n)


def test_shortcuts_trivial_values():
    # phi = P = 0 at both cut edges and at t = 0: S = 1 there
    u_plus, u_minus, v_plus, _, w_plus, w_minus = _shortcuts((1.0, 1.0, 1.0), 2)
    assert u_plus == pytest.approx(1 + 1j)
    assert u_minus == pytest.approx(1 - 1j)
    assert v_plus == pytest.approx(1 + 1j)
    assert w_plus == pytest.approx(1 + 1j)
    assert w_minus == pytest.approx(1 - 1j)


def test_shortcut_recomputation_and_moduli(golden_path):
    edges = CirclePair(golden_path).boundary(IDENTITY)
    sc = _shortcuts(edges, 2)
    sgn = (-1.0) ** 2
    # e^{i phi/2} from the path's own phase at the cut edge t = T/2
    phi_plus = golden_path.phi(golden_path.params.T / 2)[0]
    expected_u_plus = sgn * np.exp(0.5j * phi_plus) + 1j * np.exp(-0.5j * phi_plus)
    assert sc[0] == pytest.approx(expected_u_plus, abs=1e-12)
    # each is a sum of two unit phases
    assert max(abs(v) ** 2 for v in sc) <= 4.0 + 1e-12
    # |u+|^2 + |u-|^2 = 4 for a sum/difference of two unit phases
    for plus, minus in (sc[0:2], sc[2:4], sc[4:6]):
        assert abs(plus) ** 2 + abs(minus) ** 2 == pytest.approx(4.0, rel=1e-12)


def test_genericity_gate():
    # the transform reads a NumericQuad, which a non-generic point does not have
    params = ModelParams(ell=1, mu=0.5, omega=1.0)  # A = 1: D- = 0
    with pytest.raises(GenericityViolated):
        NumericQuad(diagonal(1), params)


def test_degenerate_phase_gate(golden_quad):
    params = ModelParams(ell=2, mu=0.3, omega=1.0)
    path = solve_phase(params, np.pi / 2, tol=1e-10)
    with pytest.raises(DegenerateAtOne):
        transform_from_path(path, golden_quad)


def test_gates_produce_no_nan():
    params = ModelParams(ell=1, mu=0.5, omega=1.0)
    with pytest.raises(GenericityViolated) as exc:
        NumericQuad(diagonal(1), params)
    assert "nan" not in str(exc.value).lower()


def test_phi_B_unimodular_and_riccati(golden_transform, golden_path):
    t = grid(golden_path)
    b = golden_transform.at(t)
    assert np.max(np.abs(np.abs(b.phi) - 1.0)) < 1e-8
    ric = riccati_circle_residual(golden_path.params, t, b.phi, b.phi_dot)
    assert np.max(np.abs(ric)) < 1e-7
    assert abs(abs(golden_transform.at(0.0).phi[0]) - 1.0) < 1e-9


def test_phi_B_build_entry_point(golden_path, golden_quad):
    tr = transform_from_path(golden_path, golden_quad)
    t = grid(golden_path, 101)
    assert np.max(np.abs(tr.at(t).phi)) == pytest.approx(1.0, abs=1e-8)


def test_psi_B_properties(golden_transform, golden_path):
    t = grid(golden_path)
    b = golden_transform.at(t)
    assert np.max(np.abs(b.psi.imag)) < 1e-12
    assert np.min(b.psi.real) > 0
    assert abs(golden_transform.at(0.0).psi[0] - 1.0) < 1e-8
    assert np.max(np.abs(b.psi_dot - 0.5 * (b.phi + 1.0 / b.phi) * b.psi)) < 1e-6


def test_theta_pair_initial_conditions(golden_transform):
    b0 = golden_transform.at(0.0)
    assert abs(b0.theta[0] - 1j) < 1e-8 and abs(b0.theta_tilde[0] + 1j) < 1e-8


def test_theta_pair_mirror_system(golden_transform, golden_path):
    b = golden_transform.at(grid(golden_path))
    delta = b.theta - b.theta_tilde
    assert np.max(np.abs(2.0 * b.theta_dot + b.phi * delta)) < 1e-6
    assert np.max(np.abs(2.0 * b.theta_tilde_dot - delta / b.phi)) < 1e-6
    assert np.max(np.abs(delta / 2j * b.psi - 1.0)) < 1e-8


def test_theta_pair_entry_point(golden_path, golden_quad):
    tr = transform_from_path(golden_path, golden_quad)
    b0 = tr.at(np.array([0.0]))
    assert complex(b0.theta[0]) == pytest.approx(1j, abs=1e-10)
    assert complex(b0.theta_tilde[0]) == pytest.approx(-1j, abs=1e-10)
    # Psi_B from the transform equals (2i)^-1 difference inverted
    b = tr.at(grid(golden_path, 101))
    mirror = (b.theta - b.theta_tilde) / 2j
    assert np.max(np.abs(mirror * b.psi - 1.0)) < 1e-8


def test_theta_dots_match_fd(golden_transform, golden_path):
    t = grid(golden_path, 51)
    h = 1e-6
    b, b_hi, b_lo = (golden_transform.at(u) for u in (t, t + h, t - h))
    fd = (b_hi.theta - b_lo.theta) / (2 * h)
    assert np.max(np.abs(b.theta_dot - fd)) < 1e-7
    fd2 = (b_hi.theta_tilde - b_lo.theta_tilde) / (2 * h)
    assert np.max(np.abs(b.theta_tilde_dot - fd2)) < 1e-7


def test_sine_of_phi_B_needs_no_branch(golden_transform, golden_path):
    # phase_equation_residual reads sin(phi_B) as Im(Phi_B) / |Phi_B|, which
    # is the sine of the continuous phase to rounding
    t = grid(golden_path, 101)
    F = golden_transform.at(t).phi
    assert np.max(np.abs(F.imag / np.abs(F) - np.sin(golden_transform.phase(t)))) <= 1e-15


@pytest.mark.parametrize("point, sigma", [((2, 0.3, 1.0, 0.5), 1.0), ((1, 0.2, 1.3, 1.0), -1.0),
                                          ((3, 0.7, 0.6, 0.2), 1.0)])
def test_transformed_pair_products_are_the_exp_of_the_panel_table(point, sigma):
    # the second application reads the solution sigma (den, num) / sqrt(k),
    # whose coordinates are scale (2i K1, K2) on the pair's basis; its four
    # products equal exp((P_B +- i phi_B)/2) of the panel table's continuous
    # phase and quadrature to 1.6e-15 relative, with sigma = -1 at G2
    ell, mu, omega, phi0 = point
    params = ModelParams(ell=ell, mu=mu, omega=omega)
    tr = transform_from_path(solve_phase(params, phi0, tol=1e-12),
                             NumericQuad(diagonal(ell), params))
    # scale = sigma / sqrt(k) is one complex division of the transform's own
    # root, and the product one complex multiply, so it is sigma to within
    # (4 + sqrt(5)) u = 3.1 EPS (CHANGES.md); its real part carries the sign
    product = tr.scale * cmath.sqrt(tr.k_norm)
    assert np.sign(product.real) == sigma
    assert abs(product - sigma) <= 4 * gauss.EPS
    t = np.linspace(-params.T / 2, params.T / 2, 1001)
    P_B = tr.quadrature()
    u = np.concatenate((t, -t))
    plus = np.exp(0.5 * (P_B(u) + 1j * tr.phase(u)))
    minus = plus.conj()
    n = len(t)
    reference = (plus[:n], minus[n:], minus[:n], plus[n:])
    (u_B, v_B), _ = tr.pair(t).solution(tr.image)  # on (t, -t)
    for got, ref in zip((v_B[:n], u_B[n:], u_B[:n], v_B[n:]), reference):
        assert np.max(np.abs(got / ref - 1.0)) <= 4e-15


def test_phase_reconstruction_anchoring(golden_transform):
    # principal argument at t=0, continuous elsewhere
    ph0 = float(golden_transform.phase(np.array([0.0]))[0])
    assert -np.pi < ph0 <= np.pi
    t = np.linspace(-1.0, 1.0, 201)
    ph = golden_transform.phase(t)
    assert np.max(np.abs(np.diff(ph))) < 0.1  # continuous, no 2 pi jumps


def branch_grid_phase(tr, t, margin=0.05, n=8193):
    """phase() as it was computed from an unwrapped 8193-point branch grid."""
    T = tr.params.T
    ts = np.linspace(min(-margin * T + t.min(), 0.0), max(margin * T + t.max(), 0.0), n)
    ph = np.unwrap(np.angle(tr.at(ts).phi))
    anchor = float(np.angle(tr.at(0.0).phi[0]))
    ph -= 2 * np.pi * np.round((ph[np.argmin(np.abs(ts))] - anchor) / (2 * np.pi))
    base = np.interp(t, ts, ph)
    a = np.angle(tr.at(t).phi)
    return a + 2 * np.pi * np.round((base - a) / (2 * np.pi))


def test_phase_equals_the_branch_grid_phase(golden2_path, golden2_quad):
    T = golden2_path.params.T
    t = np.linspace(-0.55 * T, 0.55 * T, 20001)
    tr = transform_from_path(golden2_path, golden2_quad)
    assert np.array_equal(tr.phase(t), branch_grid_phase(tr, t))


@pytest.mark.parametrize(
    "point", [(2, 0.3, 1.0, 0.5), (1, 0.2, 1.3, 1.0), (5, 0.3375, 0.9352, 0.6573)]
)
def test_panel_P_B_agrees_with_the_dop853_quadrature(point):
    ell, mu, omega, phi0 = point
    params = ModelParams(ell=ell, mu=mu, omega=omega)
    path = solve_phase(params, phi0, tol=1e-12)
    tr = transform_from_path(path, NumericQuad(diagonal(ell), params))
    span = 0.55 * params.T
    t = np.linspace(-span, span, 2001)
    assert np.max(np.abs(tr.quadrature()(t) - reference_P_B(tr, span)(t))) < 1e-11


def test_gauss_legendre_literals():
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(10)
    assert np.max(np.abs(gauss.X - x)) <= 1e-15
    assert np.max(np.abs(gauss.W - w)) <= 1e-15


def test_panel_table_is_converged(golden2_path, golden2_quad, monkeypatch):
    # the row rule's table (32 rows per side here) against one with twice
    # the rows
    T = golden2_path.params.T
    t = np.linspace(-0.55 * T, 0.55 * T, 20001)
    rule = gauss.uniform_rows

    def doubled(span, rate, what):
        n, _ = rule(span, rate, what)
        return 2 * n, span / (2 * n)

    runs = []
    for rows in (rule, doubled):
        monkeypatch.setattr(gauss, "uniform_rows", rows)
        tr = transform_from_path(golden2_path, golden2_quad)
        runs.append((tr.phase(t), tr.quadrature()(t), tr.integrals(t).imag))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.max(np.abs(runs[0][1] - runs[1][1])) <= 1e-14
    assert np.max(np.abs(runs[0][2] - runs[1][2])) <= 1e-14


def test_panel_table_one_point_is_bit_identical_to_the_array(golden_transform, golden_path):
    span = 0.55 * golden_path.params.T
    fwd, bwd = golden_transform.table
    t = np.concatenate([np.random.default_rng(17).uniform(-span, span, 500), fwd.ts, bwd.ts])
    ref = golden_transform.integrals(t)
    assert np.array_equal(np.array([golden_transform.integrals(float(x))[0] for x in t]), ref)
    # a time on a row edge belongs to the row that ends there: its mantissa
    # there times the row's power of two
    for rows in (fwd, bwd):
        k, t = np.arange(rows.n), rows.ts[1:]
        mantissas = rows.values(k, (t - rows.ts[k]) / rows.h)
        scaled = np.ldexp(mantissas.view(float), rows.exponent[k][:, None]).view(complex)
        assert np.array_equal(golden_transform.integrals(t), scaled[:, 0])
    assert golden_transform.quadrature()(np.array([0.0]))[0] == 0.0


def test_panel_table_never_extrapolates(golden_transform, golden_path):
    span = 0.55 * golden_path.params.T
    P_B = golden_transform.quadrature()
    assert P_B(np.array([0.0]))[0] == 0.0
    for t in (np.array([span * (1 + 1e-12)]), np.array([0.0, -span * 1.01]), np.array([np.nan])):
        with pytest.raises(OutOfWindow):
            P_B(t)
        with pytest.raises(OutOfWindow):
            golden_transform.phase(t)


def test_phase_is_one_table_lookup(golden_transform, monkeypatch):
    T = golden_transform.params.T
    t = np.linspace(-0.55 * T, 0.55 * T, 1001)
    lookups = []
    integrals = SqrtMonodromyTransform.integrals

    def counting_integrals(self, u):
        lookups.append(u)
        return integrals(self, u)

    monkeypatch.setattr(SqrtMonodromyTransform, "integrals", counting_integrals)
    phase = golden_transform.phase(t)
    assert len(lookups) == 1 and phase.shape == t.shape
    # the table's continuous phase only picks the branch
    assert np.max(np.abs(phase - integrals(golden_transform, t).imag)) <= 1e-13


def test_theorem2_golden_set1(golden_path, golden_quad, monkeypatch):
    builds = []
    build = gauss.collocate

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(gauss, "collocate", counting_build)
    rep = verify_theorem2(golden_path, golden_quad, grid_size=1001)
    # one table of two sides, built once by the first transform; the second
    # never needs one
    assert len(builds) == 2
    assert rep["b_squared_residual"] < 1e-6
    assert rep["sup_phi_residual"] < 1e-7
    assert rep["unimodularity_residual"] < 1e-8
    assert rep["phase_equation_residual"] < 1e-6
    assert rep["psi_equation_residual"] < 1e-6
    assert rep["psi_at_1_residual"] < 1e-8
    assert rep["theta_system_residual"] < 1e-6
    assert rep["theta_ic_residual"] < 1e-8
    assert rep["conventions"]["minus_z_lift"] == "t+T/2"


def test_theorem2_applies_one_constructor_twice(golden_path, golden_quad, monkeypatch):
    calls = {"init": 0, "boundary": 0}
    pairs, inputs = [], []
    init, boundary = SqrtMonodromyTransform.__init__, CirclePair.boundary

    def counting_init(self, pair, c, nq):
        calls["init"] += 1
        pairs.append(pair)
        init(self, pair, c, nq)
        inputs.append((c, self.image))

    def counting_boundary(self, c):
        calls["boundary"] += 1
        return boundary(self, c)

    monkeypatch.setattr(SqrtMonodromyTransform, "__init__", counting_init)
    monkeypatch.setattr(CirclePair, "boundary", counting_boundary)
    verify_theorem2(golden_path, golden_quad, grid_size=201)
    # the first application on y itself, the second on the first one's
    # solution: coordinates on the same pair, never a pair of its own
    assert calls == {"init": 2, "boundary": 2}
    assert pairs[0] is pairs[1] and pairs[0].path is golden_path
    assert inputs[0][0] == IDENTITY and inputs[1][0] == inputs[0][1]


def test_theorem2_golden_set2(golden2_path, golden2_quad):
    rep = verify_theorem2(golden2_path, golden2_quad, grid_size=1001)
    assert rep["b_squared_residual"] < 1e-6
    assert rep["theta_system_residual"] < 1e-6
    assert rep["psi_quadrature_residual"] < 1e-8
