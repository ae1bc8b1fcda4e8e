"""Monodromy of circle solutions: period shift versus the algebraic formula.

The direct route shifts time by one period.  The algebraic route rebuilds the
same function from boundary data and half-power products alone, and the two
are compared on a grid; their agreement is the main certificate of the
explicit monodromy representation.
"""

from __future__ import annotations

import numpy as np

from .circle import (
    RHO_MAX,
    RHO_MIN,
    CirclePair,
    continue_riccati_path,
    quotient,
    riccati_circle_residual,
)
from .phase import PhasePath


def monodromy_direct(path: PhasePath, t) -> np.ndarray:
    """Phi_M(e^{i omega t}) = e^{i phi(t + T)} at the times t of the lifted circle."""
    return np.exp(1j * path.phi(np.atleast_1d(np.asarray(t, dtype=float)) + path.params.T))


def _algebraic_coefficients(edges: tuple[complex, complex, complex]):
    """Constants of the explicit monodromy formula, from the pair's
    ``boundary``: S = e^{(P + i phi)/2} at t = T/2, -T/2 (and 0, unread).

    The cosine coefficient is cos(phi(T/2)) - evaluating the formula at the
    cut edge e^{-i pi} forces this value (any half-angle variant breaks the
    boundary identity Phi_M(e^{-i pi}) = Phi(e^{i pi})).  With S+ and S-
    at the two edges, e^{P(T/2)/2} cos(phi(T/2)) = Re(S+^2) / |S+| and
    e^{P(-T/2)/2} sin((phi(T/2) - phi(-T/2))/2) = Im(S+ conj(S-)) / |S+|.
    """
    S_plus, S_minus, _ = edges
    return (S_plus * S_plus).real / abs(S_plus), (S_plus * S_minus.conjugate()).imag / abs(S_plus)


def monodromy_algebraic(path: PhasePath, t) -> np.ndarray:
    """Monodromy at the times t from boundary data and half powers, no
    period shift.

    Implements

        Phi_M = (cp * Psi(z)^1/2 Phi(z)^1/2  + i sm * Psi(1/z)^1/2 Phi(1/z)^-1/2)
              / (cp * Psi(z)^1/2 Phi(z)^-1/2 - i sm * Psi(1/z)^1/2 Phi(1/z)^1/2)

    with cp = e^{P(T/2)/2} cos(phi(T/2)) and
    sm = e^{P(-T/2)/2} sin((phi(T/2) - phi(-T/2))/2), all half powers on the
    continuous branches through t = 0.
    """
    pair = CirclePair(path.solution, path.params)
    return _algebraic_values(pair, pair.boundary(), t)[0]


def _algebraic_values(pair: CirclePair, edges, t) -> tuple[np.ndarray, np.ndarray]:
    """Algebraic monodromy values and their analytic d/dt from one pair evaluation."""
    cp, sm = _algebraic_coefficients(edges)
    return quotient(cp, 1j * sm, *pair(t), t, "monodromy")[2]


def verify_monodromy(
    path: PhasePath,
    grid_size: int = 1001,
    rhos: list[float] | None = None,
    tol: float = 1e-12,
) -> dict:
    """Certify the algebraic monodromy against the period shift.

    Grid comparison on [-T/2, T/2], the boundary identity at the cut, the
    unimodularity and Riccati residuals of the algebraic values, and - for
    each requested radius - a two-route continuation meeting the cut from
    opposite sides (the ray form of the monodromy identity).  Returns a flat
    report dict.
    """
    if grid_size < 101:
        raise ValueError("grid_size must be >= 101")
    if not all(RHO_MIN <= rho <= RHO_MAX for rho in rhos or []):
        raise ValueError(f"every radius must lie in [{RHO_MIN}, {RHO_MAX}]")
    params = path.params
    T = params.T
    pair = CirclePair(path.solution, params)
    edges = pair.boundary()

    t = np.linspace(-T / 2, T / 2, grid_size)
    d = monodromy_direct(path, t)
    a, a_dot = _algebraic_values(pair, edges, t)
    sup_circle = float(np.max(np.abs(a - d)))
    at_cut, at_one = _algebraic_values(pair, edges, np.array([-T / 2, 0.0]))[0]
    boundary = float(abs(at_cut - (edges[0] / abs(edges[0])) ** 2))  # e^{i phi(T/2)}
    unimod = float(np.max(np.abs(np.abs(a) - 1.0)))
    ric = float(np.max(np.abs(riccati_circle_residual(params, t, a, a_dot))))

    ray_residuals = []
    for rho in rhos or []:
        # route A: Phi from z = 1 to the cut at -rho over the upper half
        # plane; route B: the algebraic Phi_M over the lower one.  Each is one
        # straight leg in w = log z, to log rho +- i pi, homotopic in the
        # annulus to the ray out to rho and the arc from there.  ell, mu and
        # omega are real, so route B's leg is route A's under z -> conj z:
        # its system is D conj(M_A) D with D = diag(1, -1), and its end from
        # Phi_M(1) is -conj of route A's system's end from -conj Phi_M(1).
        # One collocation carries both starts (``continue_riccati_path``)
        log_rho = float(np.log(rho))
        (va, _), (reflected, _) = continue_riccati_path(
            params, [complex(np.exp(1j * path.phi0)), -complex(at_one).conjugate()],
            complex(log_rho, np.pi))
        vb = -reflected.conjugate()
        ray_residuals.append([float(rho), float(abs(va - vb))])

    return {
        "sup_residual_circle": sup_circle,
        "boundary_residual": boundary,
        "unimodularity_residual": unimod,
        "riccati_residual": ric,
        "ray_residuals": ray_residuals,
        "grid_size": grid_size,
        "tol": tol,
    }
