from __future__ import annotations

import numpy as np
import pytest

from heun_monodromy import ModelParams, solve_phase
from heun_monodromy.heunpoly import NumericQuad, diagonal
from tests.oracle_values import ORACLE

# Two reference parameter points used throughout: the order-2 set drives most
# derivations; the order-1 set pins global sign conventions a second time.
GOLDEN_1 = dict(ell=2, mu=0.3, omega=1.0, phi0=0.5)
GOLDEN_2 = dict(ell=1, mu=0.2, omega=1.3, phi0=1.0)
GOLDENS = ((2.0, 0.3, 1.0, 0.5), (1.0, 0.2, 1.3, 1.0))
# perfbench's FIXED_SWEEP_POINTS, the two off-golden points of every sweep
FIXED_SWEEP_POINTS = ((3.0, 0.3, 1.0, 0.5), (2.0, 0.25, 1.1, 0.4))
# perfbench's SWEEP_REGION, the box of (ell, mu, omega, phi0) its sweeps draw
# points from (ell non-integer allowed)
SWEEP_REGION = ((0.5, 6.0), (0.05, 0.5), (0.6, 1.5), (0.0, 1.2))

# phi(T) from the 30-digit mpmath oracle, rounded to the nearest float.
GOLDEN_1_PHI_AT_T = float(ORACLE[(2.0, 0.3, 1.0, 0.5)][1.0][0])
GOLDEN_2_PHI_AT_T = float(ORACLE[(1.0, 0.2, 1.3, 1.0)][1.0][0])


@pytest.fixture(scope="session")
def golden_params() -> ModelParams:
    return ModelParams(ell=GOLDEN_1["ell"], mu=GOLDEN_1["mu"], omega=GOLDEN_1["omega"])


@pytest.fixture(scope="session")
def golden_path(golden_params):
    return solve_phase(golden_params, GOLDEN_1["phi0"], tol=1e-12)


@pytest.fixture(scope="session")
def golden_quad(golden_params):
    return NumericQuad(diagonal(2), golden_params)


@pytest.fixture(scope="session")
def golden2_params() -> ModelParams:
    return ModelParams(ell=GOLDEN_2["ell"], mu=GOLDEN_2["mu"], omega=GOLDEN_2["omega"])


@pytest.fixture(scope="session")
def golden2_path(golden2_params):
    return solve_phase(golden2_params, GOLDEN_2["phi0"], tol=1e-12)


@pytest.fixture(scope="session")
def golden2_quad(golden2_params):
    return NumericQuad(diagonal(1), golden2_params)


@pytest.fixture(scope="session")
def trivial_path():
    """A = B = 0, phi0 = 0: the solution is identically zero, P(t) = t."""
    return solve_phase(ModelParams(ell=0.0, mu=0.0, omega=1.0), 0.0, tol=1e-12)


@pytest.fixture()
def rng():
    return np.random.default_rng(987654321)
