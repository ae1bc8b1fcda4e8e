from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from heun_monodromy import ModelParams, NonIntegerOrder, NonPositiveOmega, from_physical


def test_from_physical_golden_point():
    p = from_physical(A=0.6, Bdrive=2.0, omega=1.0)
    assert p.mu == pytest.approx(0.3, abs=0)
    assert p.ell == pytest.approx(2.0, abs=0)
    assert p.lam == pytest.approx(0.25 - 0.09, rel=1e-15)
    assert p.ell_int == 2


def test_from_physical_mu_zero():
    p = from_physical(A=0.0, Bdrive=1.0, omega=1.0)
    assert p.mu == 0.0
    assert p.ell_int == 1
    assert p.lam == pytest.approx(0.25, rel=1e-15)


def test_non_integer_order_flagged_and_refused():
    p = from_physical(A=0.6, Bdrive=2.5, omega=1.0)
    assert p.ell_int is None
    with pytest.raises(NonIntegerOrder):
        p.require_integer_order()


def test_zero_order_not_positive():
    assert ModelParams(ell=0.0, mu=0.0, omega=1.0).ell_int is None


def test_borderline_order_rejected_not_rounded():
    p = ModelParams(ell=2.0 + 1e-9, mu=0.1, omega=1.0)
    assert p.ell_int is None


def test_nonpositive_omega():
    with pytest.raises(NonPositiveOmega):
        from_physical(A=0.1, Bdrive=1.0, omega=0.0)
    with pytest.raises(NonPositiveOmega):
        ModelParams(ell=1, mu=0.0, omega=-2.0)


def test_lambda_identity():
    p = ModelParams(ell=3, mu=0.7, omega=0.9)
    assert abs(p.lam + p.mu**2 - 1.0 / (2 * p.omega) ** 2) < 1e-15


@given(
    A=st.floats(-5, 5, allow_nan=False),
    Bdrive=st.floats(-5, 5, allow_nan=False),
    omega=st.floats(0.1, 4.0, allow_nan=False),
)
def test_round_trip_physical(A, Bdrive, omega):
    p = from_physical(A, Bdrive, omega)
    assert math.isclose(p.A, A, rel_tol=1e-14, abs_tol=1e-14)
    assert math.isclose(p.Bdrive, Bdrive, rel_tol=1e-14, abs_tol=1e-14)
    assert p.omega == omega
    assert math.isclose(p.lam + p.mu**2, 1.0 / (2 * omega) ** 2, rel_tol=1e-13)
