"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class HeunMonodromyError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveOmega(HeunMonodromyError):
    """Angular frequency must be strictly positive."""


class NonIntegerOrder(HeunMonodromyError):
    """Operation requires the order to be a positive integer."""


class WindowTooSmall(HeunMonodromyError):
    """The solved time window does not cover the requested evaluation range."""


class OutOfWindow(HeunMonodromyError):
    """Evaluation time lies outside the solved window."""


class ToleranceNotMet(HeunMonodromyError):
    """The global error estimate propagated from the defect exceeded its budget."""


class StepSizeTooSmall(ToleranceNotMet):
    """The adaptive step fell below ten ulps of the current time."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class StepCeilingExceeded(ToleranceNotMet):
    """The window needs more steps, at the capped step size, than the solver allows."""


class NotConverged(ToleranceNotMet):
    """A fixed-point iteration did not settle within its sweep cap."""


class NonAnalyticOnRay(HeunMonodromyError):
    """Analytic continuation failed in both charts (pole/zero collision)."""

    def __init__(self, message: str, rho: float | None = None):
        super().__init__(message)
        self.rho = rho


class DenominatorVanished(HeunMonodromyError):
    """A formula denominator dropped below the safe threshold."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class DegreeClaimViolated(HeunMonodromyError):
    """Diagonal polynomials failed the exact degree/polynomiality claim."""


class NotConstant(HeunMonodromyError):
    """A quantity that must be z-independent carried a z-dependent term."""


class GenericityViolated(HeunMonodromyError):
    """One of the factors p(1) +- 2*omega*r(1) vanished."""


class DegenerateAtOne(HeunMonodromyError):
    """cos(phi(0)) ~ 0: the two basis functions degenerate at z = 1."""
