from __future__ import annotations

import dataclasses
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import heun_monodromy.cli as cli
import heun_monodromy.heunpoly as heunpoly_mod
import heun_monodromy.verify as verify
from heun_monodromy import GenericityViolated, ModelParams, NotConstant
from heun_monodromy.exactpoly import PRIME, LaurentPoly, Piece, combine_rows
from heun_monodromy.heunpoly import (
    NumericQuad,
    PolyQuadruple,
    check_ode_system,
    check_parity,
    diagonal,
    first_integral,
    initial_quadruple,
    recurrence_step,
)
from heun_monodromy.verify import check_poly_exact
from tests.test_exactpoly import (
    combine,
    evaluate,
    evaluate_bivariate,
    minus,
    plus,
    reference_product,
)
from tests.test_phase import _assert_only_called_in, _calls


def first_integral_numeric_residual(
    quad: PolyQuadruple, rng: np.random.Generator, n_points: int = 20, n_z: int = 5
) -> float:
    """Cross-check D against p*s - q*r at random numeric points.

    Returns the max relative disagreement over ``n_points`` random (lam, mu)
    and ``n_z`` random complex z.
    """
    D = first_integral(quad)
    worst = 0.0
    for _ in range(n_points):
        lam = float(rng.uniform(-2, 2))
        mu = float(rng.uniform(-2, 2))
        d_val = complex(evaluate_bivariate(D, lam, mu))
        for _ in range(n_z):
            z = complex(rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            combo = z ** (2 * (1 - quad.ell)) * (
                evaluate(quad.p, z, lam, mu) * evaluate(quad.s, z, lam, mu)
                - evaluate(quad.q, z, lam, mu) * evaluate(quad.r, z, lam, mu)
            )
            denom = max(1.0, abs(d_val))
            worst = max(worst, abs(combo - d_val) / denom)
    return worst


def test_level_one_hand_values_any_ell():
    # the first step is order-independent except through the p-rule prefactor
    for ell in (1, 2, 5):
        q1 = recurrence_step(initial_quadruple(ell))
        assert q1.p.canonical_text() == "1"
        assert q1.q.canonical_text() == "mu - mu*z^2"
        assert q1.r.canonical_text() == "mu"
        assert q1.s.canonical_text() == "lam + mu^2 - mu^2*z^2"


def test_r_rule_laurent_cancellation():
    # r1 = 2(1-2) z z^-2 - (-mu) - z^2 (-2 z^-3): the negative powers cancel
    q1 = recurrence_step(initial_quadruple(3))
    assert q1.r.min_degree == 0
    assert q1.r.canonical_text() == "mu"


def test_diagonal_ell1_closed_forms():
    quad = diagonal(1)
    assert quad.p.canonical_text() == "1"
    assert quad.q.canonical_text() == "mu - mu*z^2"
    assert quad.r.canonical_text() == "mu"
    assert quad.s.canonical_text() == "lam + mu^2 - mu^2*z^2"
    D = first_integral(quad)
    assert D.terms == {(0, 1, 0): 1}  # D = lam


@pytest.mark.parametrize("ell", range(1, 7))
def test_degrees_exact(ell):
    quad = diagonal(ell)
    degrees = tuple(p.max_degree for p in quad.as_tuple())
    assert degrees == (2 * ell - 2, 2 * ell, 2 * ell - 2, 2 * ell)
    assert all(p.min_degree >= 0 for p in quad.as_tuple())


@pytest.mark.parametrize("ell", range(1, 7))
def test_parity_and_ode_exact(ell):
    quad = diagonal(ell)
    ok, witness = check_parity(quad)
    assert ok, witness
    ok, witness = check_ode_system(quad)
    assert ok, witness


@pytest.mark.parametrize("ell", range(1, 7))
def test_first_integral_constant_and_boundary_form(ell):
    first_integral(diagonal(ell))  # raises on failure


def test_intermediate_laurent_tail_bounded():
    # at levels below the diagonal the r entry never dips under z^-2
    for ell in (2, 4, 6):
        quad = initial_quadruple(ell)
        for _ in range(ell):
            assert quad.r.min_degree >= -2
            quad = recurrence_step(quad)


def test_sympy_oracle_cross_check():
    sympy = pytest.importorskip("sympy")
    z, lam, mu = sympy.symbols("z lam mu")
    for ell in (1, 2, 3):
        p, q, r, s = (
            sympy.Integer(0),
            sympy.Integer(1),
            z ** (-2),
            -mu,
        )
        for k in range(1, ell + 1):
            p, q, r, s = (
                sympy.expand((1 - ell) * z * p + q + z**2 * sympy.diff(p, z)),
                sympy.expand(
                    z**2 * (-lam + (ell + 1) * mu * z) * p
                    + mu * (1 - z**2) * q
                    + z**2 * sympy.diff(q, z)
                ),
                sympy.expand(2 * (k - 2) * z * r - s - z**2 * sympy.diff(r, z)),
                sympy.expand(
                    z**2 * (lam - (ell + 1) * mu * z) * r
                    + ((2 * k - ell - 3) * z + mu * (z**2 - 1)) * s
                    - z**2 * sympy.diff(s, z)
                ),
            )
        quad = diagonal(ell)
        for ours, theirs in zip(quad.as_tuple(), (p, q, r, s)):
            assert sympy.expand(_to_sympy(sympy, ours) - theirs) == 0


def _to_sympy(sympy, poly: LaurentPoly):
    z, lam, mu = sympy.symbols("z lam mu")
    return sum(
        c * lam**a * mu**b * z**k
        for k, biv in poly.coeffs.items()
        for (_, a, b), c in biv.terms.items()
    )


@pytest.mark.parametrize("ell", [5, 6])
def test_first_integral_sympy_oracle(ell):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    quad = diagonal(ell)
    p, q, r, s = (_to_sympy(sympy, poly) for poly in quad.as_tuple())
    expected = sympy.expand((p * s - q * r) * z ** (2 * (1 - ell)))
    assert sympy.expand(_to_sympy(sympy, first_integral(quad)) - expected) == 0


def test_d_plus_minus_ell1_closed_form():
    params = ModelParams(ell=1, mu=0.2, omega=1.3)
    nq = NumericQuad(diagonal(1), params)
    assert nq.d_plus == pytest.approx(1 + params.A, rel=1e-14)
    assert nq.d_minus == pytest.approx(1 - params.A, rel=1e-14)  # generic: nq exists


def test_genericity_violation_at_A_equal_1():
    params = ModelParams(ell=1, mu=0.5, omega=1.0)  # A = 1 so D- = 0
    # the float view is the one gate: it refuses the point, naming D+-
    message = (r"^D\+=2\.000e\+00, D-=0\.000e\+00 at \(ell=1, mu=0\.5, omega=1\.0\); "
               r"the symmetry operator is not invertible here$")
    with pytest.raises(GenericityViolated, match=message):
        NumericQuad(diagonal(1), params)


def test_only_heunpoly_raises_genericity_violated():
    # the genericity gate has one home, NumericQuad: no other module may raise
    # GenericityViolated, and heunpoly must, so the guard cannot go stale
    package = Path(heunpoly_mod.__file__).resolve().parent
    assert "GenericityViolated" in {name for name, _ in _calls(package / "heunpoly.py")}
    _assert_only_called_in("heunpoly.py", {"GenericityViolated"})


def test_first_integral_matches_product_form(golden_params, golden_quad):
    # D = (2 omega)^-2 D+ D- at the numeric point
    lhs = golden_quad.D
    rhs = golden_quad.d_plus * golden_quad.d_minus / (2 * golden_params.omega) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_first_integral_random_points(rng):
    for ell in (1, 2, 3):
        res = first_integral_numeric_residual(diagonal(ell), rng)
        assert res < 1e-12


def test_numeric_quad_evaluation(golden_params):
    quad = diagonal(2)
    nq = NumericQuad(quad, golden_params)
    z = np.array([0.7 + 0.2j, -1.0 + 0j, 1.0 + 0j])
    lam, mu = golden_params.lam, golden_params.mu
    direct = evaluate(quad.r, z, lam, mu)
    assert np.max(np.abs(nq("r", z) - direct)) < 1e-14
    dr = combine([Piece(1, quad.r, op=PRIME)])
    assert np.max(np.abs(nq("r'", z) - evaluate(dr, z, lam, mu))) < 1e-14


def test_first_integral_ell2_closed_form():
    # D = lam + mu^2 - lam^2 at order 2
    D = first_integral(diagonal(2))
    expected = minus(plus(LaurentPoly.monomial(1, lam_pow=1), LaurentPoly.monomial(1, mu_pow=2)),
                     LaurentPoly.monomial(1, lam_pow=2))
    assert D == expected


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_numeric_D_is_correctly_rounded_and_free_of_term_order(ell, monkeypatch):
    import heun_monodromy.heunpoly as heunpoly_mod

    quad = diagonal(ell)
    D = first_integral(quad)
    # D and the quadruple built from every term dict in reverse order: the
    # packed storage holds the terms in canonical order whatever the input order
    reversed_D = LaurentPoly(dict(reversed(list(D.terms.items()))))
    assert list(reversed_D.terms) == list(D.terms)
    reversed_quad = PolyQuadruple(
        quad.k, ell, *(LaurentPoly(dict(reversed(list(x.terms.items())))) for x in quad.as_tuple())
    )
    assert list(reversed_quad.s.terms) == list(quad.s.terms)
    rng = np.random.default_rng(6000 + ell)
    for _ in range(25):
        params = ModelParams(ell=ell, mu=rng.uniform(0.05, 1.5), omega=rng.uniform(0.3, 2.0))
        lam, mu = Fraction(params.lam), Fraction(params.mu)
        exact = sum(Fraction(c) * lam**a * mu**b for (_, a, b), c in D.terms.items())
        nq = NumericQuad(quad, params)
        assert nq.D == float(exact)
        p1, r1 = (
            float(sum(Fraction(c) * lam**a * mu**b for (_, a, b), c in x.terms.items()))
            for x in (quad.p, quad.r)
        )
        assert (nq.d_plus, nq.d_minus) == (p1 + 2.0 * params.omega * r1, p1 - 2.0 * params.omega * r1)
        nq_reversed = NumericQuad(reversed_quad, params)
        assert (nq_reversed.d_plus, nq_reversed.d_minus, nq_reversed.D) == (nq.d_plus, nq.d_minus, nq.D)
        for name, (lo, dense) in nq._polys.items():
            lo_r, dense_r = nq_reversed._polys[name]
            assert lo_r == lo and np.array(dense_r).tobytes() == np.array(dense).tobytes()
        with monkeypatch.context() as m:  # a fresh, unproven copy reads D anew
            m.setattr(heunpoly_mod, "first_integral", lambda q: reversed_D)
            assert NumericQuad(dataclasses.replace(quad), params).D == float(exact)


# sha256 over ell = 1..32 of the bits of NumericQuad's r, s, r' and s' (lowest
# power and dense coefficients), D, D+ and D-, at (mu, omega) of golden
# points 1 and 2 and of (1.5, 0.3): recorded when r' and s' were summed from
# their own exact polynomials, so reading them from the numerators of r and s
# changes no bit, -0.0 included.
NUMERIC_QUAD_BITS_SHA256 = {
    (0.3, 1.0): "cf8ac96b2ce444fa25279eb8723aa820330081b5ffc25f62102841a36db1fc17",
    (0.2, 1.3): "3309ecae524f74e3de9a67eb5cfbeb1de0652d3389187c4ca670446fd01ecccc",
    (1.5, 0.3): "f0a163f01f424d3b4e4eee33883a9c827f0fdbeb9d06228f7fd926e5bd997f77",
}


def test_numeric_quad_bits_are_pinned():
    quads = [diagonal(ell) for ell in range(1, 33)]
    for (mu, omega), expected in NUMERIC_QUAD_BITS_SHA256.items():
        digest = hashlib.sha256()
        for quad in quads:
            nq = NumericQuad(quad, ModelParams(ell=quad.ell, mu=mu, omega=omega))
            for name in ("r", "s", "r'", "s'"):
                lo, dense = nq._polys[name]
                digest.update(np.int64(lo).tobytes())
                digest.update(np.asarray(dense, dtype=np.float64).tobytes())
            digest.update(np.array([nq.D, nq.d_plus, nq.d_minus]).tobytes())
        assert digest.hexdigest() == expected, (mu, omega)


def test_the_derivative_starts_at_the_lowest_moving_power():
    # r at ell = 2 has no z**1 term, so r' starts at z**1, not z**-1; a
    # constant has the zero derivative; a z**0 row between others drops out
    quad = diagonal(2)
    assert 1 not in quad.r.coeffs and quad.r.min_degree == 0
    (lo, _), (lo_prime, dense_prime) = quad.r.coeff_arrays(0.3, 0.2)
    assert (lo, lo_prime) == (0, 1) and len(dense_prime) == 1
    assert LaurentPoly.monomial(5).coeff_arrays(0.3, 0.2) == ((0, [5.0]), (0, [0.0]))
    poly = LaurentPoly({(-1, 1, 0): 2, (0, 0, 1): 7, (2, 0, 0): 3})
    assert poly.coeff_arrays(0.5, 0.25) == ((-1, [1.0, 1.75, 0.0, 3.0]),
                                            (-2, [-1.0, 0.0, 0.0, 6.0]))


def _ode_rows(sympy, p, q, r, s, ell, sgn):
    """The residuals of ``check_ode_system``, with symbolic order and sign."""
    z, lam, mu = sympy.symbols("z lam mu")
    d = lambda f: sympy.diff(f, z)  # noqa: E731
    return (
        z**2 * d(p) - mu * p - (ell - 1) * z * p + q - sgn * z**2 * r,
        d(q) - lam * p + (ell + 1) * mu * z * p - mu * q - sgn * s,
        z**2 * d(r) + sgn * (lam + mu**2) * p - 2 * (ell - 1) * z * r + mu * z**2 * r + s,
        z**2 * d(s) + sgn * (lam + mu**2) * q - lam * z**2 * r + (ell + 1) * mu * z**3 * r
        - (ell - 1) * z * s + mu * s,
    )


def test_ode_rows_make_the_first_integral_a_monomial():
    """Put the four rows into z^2 W' for W = p*s - q*r: z^2 W' = 2 (ell - 1) z W
    with symbolic p, q, r, s, ell and sgn, without sgn**2 = 1."""
    sympy = pytest.importorskip("sympy")
    z, ell, sgn = sympy.symbols("z ell sgn")
    p, q, r, s = (sympy.Function(name)(z) for name in "pqrs")
    rows = _ode_rows(sympy, p, q, r, s, ell, sgn)
    derivs = {
        sympy.diff(f, z): sympy.solve(row, sympy.diff(f, z))[0] for f, row in zip((p, q, r, s), rows)
    }
    W = p * s - q * r
    assert sympy.expand((z**2 * sympy.diff(W, z) - 2 * (ell - 1) * z * W).subs(derivs)) == 0


@pytest.mark.parametrize("ell", range(1, 5))
def test_ode_rows_are_the_checked_rows(ell, monkeypatch):
    """The rows of the derivation are the rows ``check_ode_system`` sums, all
    four in one ``combine_rows`` call."""
    sympy = pytest.importorskip("sympy")
    z, lam, mu = sympy.symbols("z lam mu")
    quad = diagonal(ell)
    funcs = {id(x): sympy.Function(name)(z) for x, name in zip(quad.as_tuple(), "pqrs")}
    calls = []
    monkeypatch.setattr(
        heunpoly_mod, "combine_rows", lambda rows: calls.append(rows) or combine_rows(rows)
    )
    assert check_ode_system(quad) == (True, None)
    assert len(calls) == 1
    recorded = calls[0]
    assert all(op in (None, PRIME) for pieces in recorded for *_, op in pieces)

    def operand(x, op):
        f = funcs[id(x)]
        return sympy.diff(f, z) if op is PRIME else f

    code_rows = [
        sum(c * z**dz * lam**dlam * mu**dmu * operand(x, op) for c, x, dz, dlam, dmu, op in pieces)
        for pieces in recorded
    ]
    derivation = _ode_rows(sympy, *funcs.values(), ell, (-1) ** ell)
    assert len(code_rows) == 4
    assert all(sympy.expand(a - b) == 0 for a, b in zip(code_rows, derivation))


@pytest.mark.parametrize("ell", range(1, 9))
def test_first_integral_is_the_full_product(ell):
    quad = diagonal(ell)
    W = minus(reference_product(quad.p, quad.s), reference_product(quad.q, quad.r))
    assert combine([Piece(1, W, 2 * (1 - ell))]) == first_integral(quad)


def _corrupted_diagonal(ell: int) -> PolyQuadruple:
    """The diagonal quadruple with one monomial added to s (degrees unchanged)."""
    quad = diagonal(ell)
    return dataclasses.replace(quad, s=plus(quad.s, LaurentPoly.monomial(1, z_pow=1)))


def test_a_corrupted_quadruple_fails_typed_everywhere(monkeypatch, capsys):
    for ell in (1, 4):
        with pytest.raises(NotConstant, match="unproven: q-equation fails"):
            first_integral(_corrupted_diagonal(ell))
    monkeypatch.setattr(verify, "diagonal", _corrupted_diagonal)
    report, failures, _ = check_poly_exact()
    assert all(value.startswith("FAIL ") for value in report.values()) and len(report) == 6
    assert any("ode system fails at ell=3" in f for f in failures)
    monkeypatch.setattr(cli, "diagonal", _corrupted_diagonal)
    for argv in (["poly", "--ell", "5"], ["poly", "--ell", "5", "--check"]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "first integral unproven" in err and "Traceback" not in err


def test_the_ode_system_is_checked_once_per_order(monkeypatch, capsys):
    """One operation builds and proves each of its orders once: ``verify``'s
    exact suite (orders 1..6) hands the point's order to the float view."""
    calls = []

    def counting(function):
        def counted(*args):
            calls.append(function.__name__)
            return function(*args)
        return counted

    for function in (heunpoly_mod.diagonal, heunpoly_mod.check_ode_system):
        name = function.__name__
        for modname, module in list(sys.modules.items()):
            if modname.startswith("heun_monodromy") and getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, counting(function))
    g1 = ["--ell", "2", "--mu", "0.3", "--omega", "1", "--phi0", "0.5"]
    g2 = ["--ell", "1", "--mu", "0.2", "--omega", "1.3", "--phi0", "1.0"]
    polys = [(["poly", "--ell", str(ell), "--check"], 1) for ell in (1, 7, 12, 22)]
    for argv, orders in ((["verify", *g1], 6), (["sqrt-monodromy", *g2], 1), *polys):
        calls.clear()
        assert cli.main(argv) == 0
        assert (calls.count("diagonal"), calls.count("check_ode_system")) == (orders, orders), argv
    capsys.readouterr()
