"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class HeunMonodromyError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveOmega(HeunMonodromyError):
    """Angular frequency must be strictly positive."""


class NonIntegerOrder(HeunMonodromyError):
    """Operation requires the order to be a positive integer."""


class OutOfWindow(HeunMonodromyError):
    """Evaluation time lies outside the solved window."""


class ToleranceNotMet(HeunMonodromyError):
    """The global error estimate propagated from the defect exceeded its budget."""


class StepCeilingExceeded(ToleranceNotMet):
    """A span needs more rows under the row rule than the collocation allows."""


class NotConverged(ToleranceNotMet):
    """A fixed-point iteration did not settle within its sweep cap."""


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


class ExponentOutOfRange(HeunMonodromyError):
    """An exponent does not fit its field of a polynomial's packed key."""


class LimbOverflow(HeunMonodromyError):
    """An exact sum or product would pass the int64 bound of its limbs."""
