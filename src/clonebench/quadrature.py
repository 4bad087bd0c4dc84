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
from .entangled import prepared_char_polynomial
from .spin import (
    PreparedState,
    _doubled,
    log_binomial_weight,
    sqrt_binomial_weights,
    sqrt_irrep_weights,
)


_CHUNK = 1024  # nodes per block of the char4 pair loop
_GATHER_MAX = 2**16  # products per gathered char4 einsum: 512 kB per side, cache-sized


class QuadratureWarning(UserWarning):
    """Node count below the exactness threshold; the result may be inexact."""


def phase_nodes_required(n_copies: int, m_copies: int) -> int:
    """Node count at which the phase-circle rule becomes exact, 2(N+M)+1."""
    return 2 * (n_copies + m_copies) + 1


def _check_nodes(nodes, required) -> None:
    """Reject fewer than 3 nodes; warn below the exactness threshold `required`.

    Equal-shape arrays give one node count and one threshold per quadrature:
    the fewest nodes are checked, and one warning names the quadrature
    furthest below its threshold.
    """
    if np.ndim(nodes):
        worst = np.argmin(nodes) if nodes.min() < 3 else np.argmax(required - nodes)
        nodes, required = nodes.flat[worst], required.flat[worst]
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
    is exact for nodes >= 2(N+M)+1.  On theta_l = 2 pi l / nodes - pi each
    amplitude is, up to a global phase, sum_k c_k (-1)^k e^{2 pi i k l / nodes}
    over consecutive k = 0, 1, ...: one FFT of the coefficients folded mod
    nodes, and the fold is exactly the aliasing of the rule below threshold.
    """
    state.check("qubit", m_copies)
    _check_nodes(nodes, phase_nodes_required(n_copies, m_copies))
    v = np.sqrt(state.p) * np.exp(0.5 * log_binomial_weight(m_copies, state.twice))
    power = 1.0
    for coeffs in (sqrt_binomial_weights(n_copies), v):
        k = np.arange(len(coeffs))
        amp = np.fft.fft(np.bincount(k % nodes, weights=coeffs * (-1.0) ** k, minlength=nodes))
        power = power * (amp.real**2 + amp.imag**2)
    return float(np.sum(power)) / nodes


def _class_angles(nodes: int) -> np.ndarray:
    # Open midpoint grid on (0, pi): avoids the removable chi_j poles.
    return (np.arange(nodes) + 0.5) * math.pi / nodes


def weyl_quadrature_char4(j1, j2, j3, j4, nodes):
    """Haar integral of four SU(2) characters by class-angle quadrature.

    Uses (2/pi) integral over (0, pi) of chi chi chi chi sin^2(phi), sampled
    on the open midpoint grid; exact once nodes clears the combined bandwidth
    2(t1 + t2 + t3 + t4) + 8 in doubled labels t = 2j.  Scalar labels give a
    float; equal-shape arrays of labels give a float array, one integral per
    quadruple.  `nodes` is one count for every quadruple, or an integer array
    shaped like the labels with one count per quadruple; one warning covers
    every quadruple below its threshold.
    """
    t = np.array([_doubled(j) for j in (j1, j2, j3, j4)])
    if t.min(initial=0) < 0:
        raise DomainError("total-spin labels must be nonnegative")
    required = 2 * t.sum(axis=0) + 8
    if not np.ndim(nodes):
        _check_nodes(nodes, int(required.max(initial=8)))
    else:
        nodes = np.asarray(nodes)
        if nodes.shape != required.shape or nodes.dtype.kind not in "iu":
            raise DomainError("nodes must be an int or an integer array shaped like the labels")
        if nodes.size:
            _check_nodes(nodes, required)
    if t.ndim > 1:
        return _char4_sums(t.reshape(4, -1), np.broadcast_to(nodes, required.shape).ravel()
                           ).reshape(required.shape)
    # One quadruple: a product of four node vectors, cheaper than the gathered tables.
    phi = _class_angles(nodes)
    sin_phi = np.sin(phi)
    product = np.ones_like(phi)
    for ti in t:
        product *= np.sin((ti + 1) * phi) / sin_phi
    return float(2.0 / nodes * np.sum(product * sin_phi**2))


def _distinct_quadruples(t: np.ndarray, nodes: np.ndarray):
    """The distinct (node count, multiset) pairs of sorted quadruples t.

    Returns one column index per distinct pair, ordered by node count and
    then by label, and the index of each column's pair among them.  The node
    counts and the four label rows are folded into one int64 key; where a
    fold could overflow, the key and the row are first replaced by their
    ranks, which keep the order and are below the column count.
    """
    key = np.zeros(t.shape[1], dtype=np.int64)
    span = 1  # every key is below span
    for row in (nodes.astype(np.int64), *t):
        width = int(row.max(initial=0)) + 1
        if span * width >= 2**63:
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
            distinct, row = np.unique(row, return_inverse=True)
            width = len(distinct)
        key = key * width + row
        span *= width
    distinct, index = np.unique(key, return_inverse=True)
    first = np.empty(len(distinct), dtype=np.intp)
    first[index] = np.arange(len(index))
    return first, index


def _char4_sums(t: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The char4 quadrature for (4, n) doubled labels, with nodes[k] nodes for column k.

    The integrand is symmetric in its four labels, so each quadruple is sorted
    and summed once per distinct (node count, multiset {a <= b <= c <= d}):
    as the dot product of the node vectors chi_c chi_d sin^2 and chi_a chi_b.
    Each node count gets one midpoint grid and one chi table over the labels
    its multisets use.  The dot products are np.einsum loops, not BLAS, so
    the digits do not depend on the BLAS library or its thread count.  The
    node axis is chunked and each einsum gathers at most _GATHER_MAX products
    per side, so memory stays bounded for any node and label count; each
    row adds its chunks in node order, so its value does not depend on the
    other quadruples in the call.
    """
    t = t.copy()
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):  # a sorting network
        t[i], t[j] = np.minimum(t[i], t[j]), np.maximum(t[i], t[j])
    first, index = _distinct_quadruples(t, nodes)
    counts, quads = nodes[first], t[:, first]
    sums = np.zeros(len(counts))
    starts = np.flatnonzero(np.diff(counts, prepend=-1))
    for lo, hi in zip(starts, [*starts[1:], len(counts)]):
        count = int(counts[lo])
        labels, rank = np.unique(quads[:, lo:hi], return_inverse=True)
        rank = rank.reshape(4, -1)
        phi = _class_angles(count)
        for start in range(0, count, _CHUNK):
            block = phi[start : start + _CHUNK]
            sin_phi = np.sin(block)
            chi = np.sin(np.outer(labels + 1, block)) / sin_phi
            sin2 = sin_phi**2
            step = max(1, _GATHER_MAX // len(block))
            for first in range(0, hi - lo, step):
                a, b, c, d = rank[:, first : first + step]
                sums[lo + first : lo + first + len(a)] += np.einsum(
                    "ij,ij->i", chi[c] * chi[d] * sin2, chi[a] * chi[b])
        sums[lo:hi] *= 2.0 / count
    return sums[index]


def _char_values(poly: tuple[np.ndarray, np.ndarray], phi: np.ndarray) -> np.ndarray:
    """Values of sum_j alpha_j chi_j, poly = (doubled labels, alpha), on class
    angles phi in (0, pi); the phi = 0, pi poles are excluded."""
    twice, alpha = poly
    dims = (twice + 1).astype(float)
    return (alpha[:, None] * np.sin(np.outer(dims, phi))).sum(axis=0) / np.sin(phi)


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
    seed = _char_values(sqrt_irrep_weights(n_copies), phi)
    prep = _char_values(prepared_char_polynomial(state), phi)
    integrand = seed**2 * prep**2 * np.sin(phi) ** 2
    return float(2.0 / nodes * np.sum(integrand))
