"""Model parameters for the driven phase equation and its Riccati lift.

The canonical chart is (ell, mu, omega); the drive amplitudes A = 2*omega*mu
and B = omega*ell and the combination lam = (2*omega)**-2 - mu**2 are derived
views.  All quantities are dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonIntegerOrder, NonPositiveOmega

#: Relative tolerance for deciding that an order value is a positive integer.
INTEGER_ORDER_RTOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter point (ell, mu, omega) with derived views."""

    ell: float
    mu: float
    omega: float

    def __post_init__(self):
        if not self.omega > 0:
            raise NonPositiveOmega(f"omega must be > 0, got {self.omega}")

    @property
    def A(self) -> float:
        return 2.0 * self.omega * self.mu

    @property
    def Bdrive(self) -> float:
        return self.omega * self.ell

    @property
    def T(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def lam(self) -> float:
        return 1.0 / (2.0 * self.omega) ** 2 - self.mu**2

    @property
    def ell_int(self) -> int | None:
        """The order as an exact positive integer, or None.

        Borderline values are rejected rather than rounded; the symmetry
        machinery is only valid for exactly integer order.
        """
        n = round(self.ell)
        if n >= 1 and abs(self.ell - n) <= INTEGER_ORDER_RTOL * max(1.0, abs(self.ell)):
            return int(n)
        return None

    def require_integer_order(self) -> int:
        n = self.ell_int
        if n is None:
            raise NonIntegerOrder(
                f"order ell={self.ell} is not a positive integer; "
                "the Heun-layer operations are defined only for ell in 1, 2, ..."
            )
        return n


def from_physical(A: float, Bdrive: float, omega: float) -> ModelParams:
    """Convert the drive-side constants (A, B, omega) to a parameter point.

    mu = A/(2*omega) and ell = B/omega.  The returned params flag (via
    ``ell_int``) whether ell landed on a positive integer within 1e-12
    relative, which gates the Heun-layer modules.
    """
    if not omega > 0:
        raise NonPositiveOmega(f"omega must be > 0, got {omega}")
    return ModelParams(ell=Bdrive / omega, mu=A / (2.0 * omega), omega=omega)
