"""Economical covariant cloning of two-qubit maximally entangled states.

The N-fold tensor power splits into total-spin blocks (j, d_j, m_j) with
normalized weights c_j = d_j m_j / 2^N.  Overlaps of block-diagonal states
with the group orbit are class functions, i.e. finite combinations of SU(2)
characters.  The measure-and-prepare fidelity is the Haar integral of two
of them, each the square of a character sum.  Each square is expanded into
chi_J coefficients along the Clebsch-Gordan series |j - j'| <= J <= j + j'
(a difference array of the sum's autocorrelation minus its self-convolution,
then one prefix sum), and by character orthonormality the integral is the dot
product of the two coefficient vectors: O(T S + T^2) for a prepared state on S
labels, where the N-copy sums run over spin.irrep_window(N), doubled labels up
to T ~ 15 sqrt(N).  Nothing here materializes a 2^N-dimensional operator.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .spin import (
    PreparedState,
    _check_copies,
    _check_window_copies,
    _doubled,
    central_binomial_weight,
    irrep_window,
    log_irrep_weight,
)
from .equatorial import _check_amplification, _lag_products, ansatz_cutoff


def prepared_char_polynomial(state: PreparedState) -> tuple[np.ndarray, np.ndarray]:
    """Character expansion of the prepared-state overlap, sum_j sqrt(p_j c_j) chi_j / d_j,
    as (doubled labels, coefficients)."""
    sqrt_pc = np.sqrt(state.p) * np.exp(0.5 * log_irrep_weight(state.M, state.twice))
    return state.twice, sqrt_pc / (state.twice + 1.0)


def eco_clone_fidelity_exact(n_copies: int, m_copies: int) -> float:
    """Global fidelity of the optimal economical covariant cloner (exact block sum)."""
    _check_amplification(n_copies, m_copies)
    twice_j = irrep_window(n_copies)
    root = np.exp(
        0.5 * (log_irrep_weight(n_copies, twice_j) + log_irrep_weight(m_copies, twice_j))
    )
    s = math.fsum(root)
    return s * s


def eco_clone_fidelity_large_m(n_copies: int, m_copies: int) -> float:
    """Large-M form (2 b_{M,0}/M) (sum_j sqrt(b_{N,j} (2j+1)^4 / (N/2+j+1)))^2.

    For odd M the central weight is taken at |m| = 1/2.
    """
    _check_amplification(n_copies, m_copies)
    return 2.0 * central_binomial_weight(m_copies) / m_copies * p_true_ent(n_copies)


def eco_clone_fidelity_large_n(n_copies: int, m_copies: int) -> float:
    """Gaussian-integral limit (4N/M)^(3/2), accurate for N >> 1."""
    _check_copies(n_copies)
    _check_copies(m_copies)
    return (4.0 * n_copies / m_copies) ** 1.5


def cg_overlap_count(j1, j2, j3, j4):
    """Number of common irreps in the Clebsch-Gordan series of j1 x j2 and j3 x j4.

    Equals the Haar integral of chi_{j1} chi_{j2} chi_{j3} chi_{j4}: each series
    runs from |j - j'| to j + j' in unit steps, so the integral counts the
    lattice overlap and vanishes when the two series live on different
    integer/half-integer lattices.  Scalar labels give an int; equal-shape
    arrays of labels give an int array, one count per quadruple.
    """
    t = np.array([_doubled(j) for j in (j1, j2, j3, j4)])
    if t.min(initial=0) < 0:
        raise DomainError("total-spin labels must be nonnegative")
    t1, t2, t3, t4 = t
    lo = np.maximum(abs(t1 - t2), abs(t3 - t4))
    hi = np.minimum(t1 + t2, t3 + t4)
    same_lattice = (t1 + t2 - t3 - t4) % 2 == 0
    count = np.maximum(0, (hi - lo) // 2 + 1) * same_lattice
    return int(count) if count.ndim == 0 else count


def prepared_state_ansatz_ent(m_copies: int, lam: float) -> PreparedState:
    """Prepared state with block weights c_j^{(K)}, K = M/lambda rounded to the M-lattice.

    The support is spin.irrep_window(K), so no weight is formed on the rest
    of the K/2 + 1 labels, and K above spin._MAX_WINDOW_COPIES is refused.
    """
    k, _ = ansatz_cutoff(m_copies, lam)
    twice_j = irrep_window(k)
    p = np.exp(log_irrep_weight(k, twice_j))
    return PreparedState("entangled", M=m_copies, twice=twice_j, p=p / np.sum(p))


def _char_square(poly: tuple[np.ndarray, np.ndarray], j_max: int) -> np.ndarray:
    """Coefficients b_J of poly^2 = sum_J b_J chi_J for J = 0..j_max.

    poly = (doubled labels, alpha) is the class function sum_j alpha_j chi_j,
    with chi_j(phi) = sin(d_j phi)/sin(phi).  Its labels must fill one lattice
    densely, 2j = t0 + 2i for i = 0..S-1; chi_j chi_j' is then the sum of chi_J
    over the integers J = |j - j'|, ..., j + j', so the pair (i, i') adds
    alpha_i alpha_i' to b_J for |i - i'| <= J <= t0 + i + i'.  In a difference
    array whose prefix sum is b, that is
      + (2 - delta_k0) r_k at J = k, with r_k = sum_i alpha_i alpha_{i+k} the
        autocorrelation (both orders of a pair k > 0 steps apart), and
      - (alpha * alpha)_u at J = t0 + u + 1, the self-convolution summing
        the ordered pairs with i + i' = u, whose series end at t0 + u.
    Only J <= j_max is kept: lags up to j_max, and ends with u < j_max - t0,
    which involve only the labels i <= u, i.e. alpha[:j_max - t0].  O(j_max S)
    time and O(j_max + S) memory.
    """
    twice, alpha = poly
    r = _lag_products(alpha, j_max)
    diff = np.zeros(j_max + 1)
    diff[: len(r)] = 2.0 * r
    diff[0] = r[0]
    first = int(twice[0])
    if first < j_max:
        head = alpha[: j_max - first]
        ends = np.convolve(head, head)[: j_max - first]
        diff[first + 1 : first + 1 + len(ends)] -= ends
    return np.cumsum(diff)


def seed_char_square(n_copies: int) -> np.ndarray:
    """Coefficients A_0 .. A_T of the squared seed (sum_j sqrt(c_j) chi_j)^2 in chi_J:
    the N-copy side of mp_fidelity_exact_ent, which depends on N only.  The sum
    runs over spin.irrep_window(N), doubled labels up to T, where the array ends."""
    twice_j = irrep_window(n_copies)
    sqrt_c = np.exp(0.5 * log_irrep_weight(n_copies, twice_j))
    return _char_square((twice_j, sqrt_c), int(twice_j[-1]))


def mp_fidelity_exact_ent(n_copies: int, m_copies: int, state: PreparedState) -> float:
    """Exact measure-and-prepare fidelity with the square-root-measurement seed.

    The Haar integral of the two density class functions (sum_j sqrt(c_j)
    chi_j)^2 and (sum_j sqrt(p_j c_j) chi_j / d_j)^2.  Each square is expanded
    into chi_J coefficients, and by character orthonormality the integral is
    their dot product.  The seed side stops at J = T, the top doubled label
    of spin.irrep_window(N), so only prepared-side pairs at most T lattice
    steps apart count: O(T S + T^2) time and O(T + S) memory for a prepared
    state supported on S labels (S = 24387 for the lambda = 1 ansatz at
    M = 10^7).  A copy number above spin._MAX_WINDOW_COPIES raises
    MemoryError: the weights lose digits there.
    """
    _check_window_copies(m_copies)
    return mp_fidelity_exact_ent_from_seed(seed_char_square(n_copies), m_copies, state)


def mp_fidelity_exact_ent_from_seed(seed: np.ndarray, m_copies: int, state: PreparedState) -> float:
    """mp_fidelity_exact_ent for the N-copy coefficients A_0 .. A_T = seed_char_square(N),
    which callers evaluating many states at one N build once."""
    _check_window_copies(m_copies)
    state.check("entangled", m_copies)
    prepared = _char_square(prepared_char_polynomial(state), len(seed) - 1)
    return math.fsum(seed * prepared)


def p_true_ent(n_copies: int) -> float:
    """Peak outcome density (sum_j sqrt(c_j) d_j)^2 of the square-root measurement."""
    twice_j = irrep_window(n_copies)
    s = math.fsum(np.exp(0.5 * log_irrep_weight(n_copies, twice_j)) * (twice_j + 1.0))
    return s * s
