"""Brute-force integration oracles for validating the closed-form evaluators.

All integrands appearing here are band-limited trigonometric polynomials, so
equispaced sums integrate them exactly once the node count exceeds the
bandwidth; below that threshold the functions still return a value but emit a
QuadratureWarning, and below 3 nodes they raise DomainError.  These oracles
gate tests only and never feed numbers into reports.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DomainError
from .entangled import prepared_char_polynomial, seed_char_polynomial
from .spin import (
    PreparedState,
    _doubled,
    log_binomial_weight,
    sqrt_binomial_weights,
)


class QuadratureWarning(UserWarning):
    """Node count below the exactness threshold; the result may be inexact."""


def phase_nodes_required(n_copies: int, m_copies: int) -> int:
    """Node count at which the phase-circle rule becomes exact, 2(N+M)+1."""
    return 2 * (n_copies + m_copies) + 1


def _check_nodes(nodes: int, required: int) -> None:
    """Reject fewer than 3 nodes; warn below the exactness threshold `required`."""
    if nodes < 3:
        raise DomainError(f"quadrature needs at least 3 nodes, got {nodes}")
    if nodes < required:
        warnings.warn(
            QuadratureWarning(
                f"{nodes} nodes is below the exactness threshold {required}"
            ),
            stacklevel=3,
        )


def phase_quadrature_fidelity(
    n_copies: int, m_copies: int, state: PreparedState, nodes: int
) -> float:
    """Equispaced phase-circle quadrature of the measure-and-prepare integral.

    The integrand is a trigonometric polynomial of bandwidth N+M, so the rule
    is exact for nodes >= 2(N+M)+1.
    """
    state.check("qubit", m_copies)
    _check_nodes(nodes, phase_nodes_required(n_copies, m_copies))
    theta = 2.0 * math.pi * np.arange(nodes) / nodes - math.pi
    sb = sqrt_binomial_weights(n_copies)
    half_n = np.arange(-n_copies, n_copies + 1, 2) / 2.0
    v = np.sqrt(state.p) * np.exp(0.5 * log_binomial_weight(m_copies, state.twice))
    half_m = state.twice / 2.0
    # Node axis is chunked so the (support x nodes) phase matrix stays small
    # even for M ~ 10^4 with the full naive support.
    total = 0.0
    for start in range(0, nodes, 1024):
        block = theta[start : start + 1024]
        amp_seed = np.exp(1j * np.outer(half_n, block)).T @ sb
        amp_prep = np.exp(1j * np.outer(half_m, block)).T @ v
        total += float(np.sum(np.abs(amp_seed) ** 2 * np.abs(amp_prep) ** 2))
    return total / nodes


def _class_angles(nodes: int) -> np.ndarray:
    # Open midpoint grid on (0, pi): avoids the removable chi_j poles.
    return (np.arange(nodes) + 0.5) * math.pi / nodes


def weyl_quadrature_char4(
    j1: float, j2: float, j3: float, j4: float, nodes: int
) -> float:
    """Haar integral of four SU(2) characters by class-angle quadrature.

    Uses (2/pi) integral over (0, pi) of chi chi chi chi sin^2(phi), sampled
    on the open midpoint grid; exact once nodes clears the combined bandwidth.
    """
    t = [_doubled(j) for j in (j1, j2, j3, j4)]
    if min(t) < 0:
        raise DomainError("total-spin labels must be nonnegative")
    _check_nodes(nodes, 2 * sum(t) + 8)
    phi = _class_angles(nodes)
    sin_phi = np.sin(phi)
    product = np.ones_like(phi)
    for ti in t:
        product *= np.sin((ti + 1) * phi) / sin_phi
    return float(2.0 / nodes * np.sum(product * sin_phi**2))


def su2_nodes_required(n_copies: int, m_copies: int) -> int:
    """Node count covering the combined bandwidth of the entangled integrand."""
    return n_copies + m_copies + 2


def su2_quadrature_fidelity_ent(
    n_copies: int, m_copies: int, state: PreparedState, nodes: int
) -> float:
    """Class-function quadrature of the entangled measure-and-prepare integral."""
    state.check("entangled", m_copies)
    _check_nodes(nodes, su2_nodes_required(n_copies, m_copies))
    phi = _class_angles(nodes)
    seed = seed_char_polynomial(n_copies).evaluate(phi)
    prep = prepared_char_polynomial(state).evaluate(phi)
    integrand = seed**2 * prep**2 * np.sin(phi) ** 2
    return float(2.0 / nodes * np.sum(integrand))
