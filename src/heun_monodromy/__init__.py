"""Monodromy and square-root-of-monodromy toolkit for the driven phase equation."""

from .circle import (
    BoundaryValues,
    CircleFunction,
    CirclePair,
    boundary_values,
    phi_on_circle,
    psi_on_circle,
    riccati_continue_ray,
    theta_pair_solve,
)
from .errors import (
    DegenerateAtOne,
    DegreeClaimViolated,
    DenominatorVanished,
    GenericityViolated,
    HeunMonodromyError,
    NonAnalyticOnRay,
    NonIntegerOrder,
    NonPositiveOmega,
    NotConstant,
    NotConverged,
    OutOfWindow,
    StepCeilingExceeded,
    StepSizeTooSmall,
    ToleranceNotMet,
    WindowTooSmall,
)
from .exactpoly import BivariateCoeff, LaurentPoly
from .heun import (
    BMatrix,
    HeunBasisPath,
    apply_B,
    build_E,
    build_matrix_B,
    check_B_squared,
    dche_residual,
    pair_ode_residual,
    phi_alpha,
    phi_from_basis,
    radial_continue_E,
)
from .heunpoly import (
    NumericQuad,
    PolyQuadruple,
    check_ode_system,
    check_parity,
    d_plus_minus,
    diagonal,
    first_integral,
    recurrence_step,
)
from .monodromy import (
    MonodromyReport,
    monodromy_algebraic,
    monodromy_direct,
    verify_monodromy,
)
from .params import ModelParams, from_physical
from .phase import PhasePath, solve_phase
from .sqrtmono import (
    ShortcutSet,
    SqrtMonodromyTransform,
    build_shortcuts,
    transform_from_path,
    verify_theorem2,
)
from .verify import BUDGETS, run_battery

__version__ = "0.1.0"
