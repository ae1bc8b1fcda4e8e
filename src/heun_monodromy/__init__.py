"""Monodromy and square-root-of-monodromy toolkit for the driven phase equation."""

from .circle import (
    CircleFunction,
    CirclePair,
    phi_on_circle,
    psi_on_circle,
    theta_pair_solve,
)
from .errors import (
    DegenerateAtOne,
    DegreeClaimViolated,
    DenominatorVanished,
    ExponentOutOfRange,
    GenericityViolated,
    HeunMonodromyError,
    LimbOverflow,
    NonIntegerOrder,
    NonPositiveOmega,
    NotConstant,
    NotConverged,
    OutOfWindow,
    StepCeilingExceeded,
    ToleranceNotMet,
)
from .exactpoly import LaurentPoly
from .heun import (
    HeunBasisPath,
    apply_B,
    build_E,
    build_matrix_B,
    check_B_squared,
    dche_residual,
    pair_ode_residual,
)
from .heunpoly import (
    NumericQuad,
    PolyQuadruple,
    check_ode_system,
    check_parity,
    diagonal,
    first_integral,
    recurrence_step,
)
from .monodromy import (
    monodromy_algebraic,
    monodromy_direct,
    verify_monodromy,
)
from .params import ModelParams, from_physical
from .phase import PhasePath, solve_phase
from .sqrtmono import (
    SqrtMonodromyTransform,
    transform_from_path,
    verify_theorem2,
)
from .verify import BUDGETS, run_battery

__version__ = "0.1.0"
