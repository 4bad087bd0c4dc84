"""Cloning and measure-and-prepare fidelities for equatorial qubit states.

The N input copies live in the symmetric subspace, so every quantity reduces
to sums over the projection lattice weighted by binomial coefficients.  The
covariant measurement outcome density and the prepared-state overlap are both
band-limited trigonometric polynomials in the phase, which makes the
measure-and-prepare fidelity an exact finite convolution of Fourier
coefficients: no quadrature or Gaussian approximation enters the computation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .spin import (
    PreparedState,
    _check_copies,
    _check_window_copies,
    binomial_window,
    dicke_twice,
    log_binomial_weight,
    central_binomial_weight,
    sqrt_binomial_weights,
)


def _check_amplification(n_copies: int, m_copies: int) -> None:
    _check_copies(n_copies)
    _check_copies(m_copies)
    if m_copies < n_copies:
        raise DomainError(f"need M >= N, got N={n_copies}, M={m_copies}")
    if (m_copies - n_copies) % 2 != 0:
        raise DomainError(
            f"N={n_copies} and M={m_copies} have mismatched parity (M-N must be even)"
        )


def clone_fidelity_exact(n_copies: int, m_copies: int) -> float:
    """Global fidelity of the optimal N-to-M equatorial cloner (exact sum)."""
    _check_amplification(n_copies, m_copies)
    twice = dicke_twice(n_copies)
    root = np.exp(
        0.5 * (log_binomial_weight(n_copies, twice) + log_binomial_weight(m_copies, twice))
    )
    s = math.fsum(root)
    return s * s


def clone_fidelity_large_m(n_copies: int, m_copies: int) -> float:
    """Large-M form: central M-copy weight times (sum_n sqrt(b_{N,n}))^2."""
    _check_amplification(n_copies, m_copies)
    return central_binomial_weight(m_copies) * p_true(n_copies)


def clone_fidelity_large_n(n_copies: int, m_copies: int) -> float:
    """Gaussian-integral limit sqrt(4MN)/(M+N), accurate for N >> 1."""
    _check_copies(n_copies)
    _check_copies(m_copies)
    return math.sqrt(4.0 * m_copies * n_copies) / (m_copies + n_copies)


def _lag_products(v: np.ndarray, max_lag: int) -> np.ndarray:
    """Autocorrelation v[:-k] . v[k:] at lags k = 0 .. L, L = min(max_lag, len(v) - 1).

    One valid-mode correlation sums every lag over the first len(v) - L
    entries, and the autocorrelation of the last L entries adds the rest:
    O(len(v) L) time and O(len(v)) memory.
    """
    size = len(v)
    lags = min(max_lag, size - 1)
    r = np.correlate(v, v[: size - lags], "valid")
    if lags:
        tail = v[size - lags :]
        r[:lags] += np.correlate(tail, tail, "full")[lags - 1 :]
    return r


def outcome_density_fourier(n_copies: int) -> np.ndarray:
    """Fourier coefficients a_0 .. a_N of the covariant-measurement outcome density.

    The density sum_k a_k e^{ik theta} (a_{-k} = a_k) is |sum_n sqrt(b_n)
    e^{in theta}|^2, so it is nonnegative by construction; a_k is the lag-k
    autocorrelation of the sqrt-binomial vector, and a_0 = 1.
    """
    sb = sqrt_binomial_weights(n_copies)
    return np.correlate(sb, sb, "full")[n_copies:]


def ansatz_cutoff(m_copies: int, lam: float) -> tuple[int, bool]:
    """Effective copy number K for the ansatz: M/lambda rounded onto the M-parity
    lattice, clamped at the parity minimum (2 for even M, 1 for odd M).

    Returns (K, clamped).
    """
    _check_copies(m_copies)
    if not 1 <= lam < math.inf:  # also rejects NaN
        raise DomainError(f"lambda must be finite and >= 1, got {lam}")
    ratio = m_copies / lam
    parity = m_copies % 2
    k = 2 * int(round((ratio - parity) / 2.0)) + parity
    floor = 2 if parity == 0 else 1
    if k < floor:
        return floor, True
    return min(k, m_copies), False


def prepared_state_ansatz(m_copies: int, lam: float) -> PreparedState:
    """Prepared state with weights b_{K,m}, K = M/lambda rounded to the M-lattice.

    lambda = 1 reproduces M identical copies of the estimated state; larger
    lambda narrows the support toward the central projection.  The support is
    the window of spin.binomial_window(K) at its default floor, which holds
    every weight whose square root is above double precision next to the
    largest, so what is left out moves the fidelity by less than ~1e-17
    relative.
    """
    k, _ = ansatz_cutoff(m_copies, lam)
    twice = binomial_window(k)
    p = np.exp(log_binomial_weight(k, twice))
    # Log-factorial sums drift by ~K*eps in the log; rescale so the weights sum to 1.
    return PreparedState("qubit", M=m_copies, twice=twice, p=p / np.sum(p))


def mp_fidelity_exact(n_copies: int, m_copies: int, state: PreparedState) -> float:
    """Exact measure-and-prepare fidelity for the covariant phase measurement.

    Evaluates the phase integral as the finite convolution sum_k a_k c_{-k},
    where a is the outcome density spectrum and c is the autocorrelation of
    the sqrt(p_m b_{M,m}) vector.  Cost O(N S) for a state on S labels.
    M above spin._MAX_WINDOW_COPIES raises MemoryError, as the windows do:
    the weights b_{M,m} lose digits there.
    """
    _check_copies(n_copies)
    _check_window_copies(m_copies)
    return mp_fidelity_exact_from_seed(outcome_density_fourier(n_copies), m_copies, state)


def mp_fidelity_exact_from_seed(fourier: np.ndarray, m_copies: int, state: PreparedState) -> float:
    """mp_fidelity_exact for the N-copy spectrum a_0 .. a_N = outcome_density_fourier(N),
    which callers evaluating many states at one N build once."""
    _check_window_copies(m_copies)
    state.check("qubit", m_copies)
    v = np.sqrt(state.p) * np.exp(0.5 * log_binomial_weight(m_copies, state.twice))
    c = _lag_products(v, len(fourier) - 1)
    return math.fsum([fourier[0] * c[0], *(2.0 * fourier[1 : len(c)] * c[1:])])


def sqrt_binomial_sum(n_copies: int) -> float:
    """sum_n sqrt(b_{N,n}); approaches (2 pi N)^(1/4) for large N."""
    return math.fsum(sqrt_binomial_weights(n_copies))


def sqrt_binomial_second_moment(n_copies: int) -> float:
    """sum_n n^2 sqrt(b_{N,n}); approaches (2 pi N)^(1/4) N/2 for large N."""
    half = dicke_twice(n_copies) / 2.0
    return math.fsum(half * half * sqrt_binomial_weights(n_copies))


def p_true(n_copies: int) -> float:
    """Peak outcome density (sum_n sqrt(b_{N,n}))^2; a density, may exceed 1."""
    s = sqrt_binomial_sum(n_copies)
    return s * s
