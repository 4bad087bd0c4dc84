"""Independent exact-arithmetic oracles used only by the test suite.

Weights are built from big-integer binomials as Fractions; square-root sums
are evaluated at 60 decimal digits so the frozen expectations are good far
beyond double precision.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

from clonebench import cg_overlap_count
from clonebench.spin import log_binomial_weight, sqrt_binomial_weights


def frac_binomial(n_copies: int, twice: int) -> Fraction:
    """Exact b_{N,n} = C(N, N/2+n) / 2^N with n = twice/2."""
    if (twice - n_copies) % 2 or abs(twice) > n_copies:
        raise ValueError("off-lattice projection")
    return Fraction(math.comb(n_copies, (n_copies + twice) // 2), 2**n_copies)


def exact_multiplicity(n_copies: int, twice_j: int) -> int:
    k = (n_copies + twice_j) // 2
    return math.comb(n_copies, k) - math.comb(n_copies, k + 1)


def frac_irrep_weight(n_copies: int, twice_j: int) -> Fraction:
    """Exact c_j = (2j+1) m_j / 2^N with j = twice_j/2."""
    return Fraction((twice_j + 1) * exact_multiplicity(n_copies, twice_j), 2**n_copies)


def _sqrt_sum_squared(fracs) -> float:
    """(sum_i sqrt(x_i))^2 for exact rationals x_i, at 60 digits."""
    with mpmath.workdps(60):
        s = mpmath.fsum(
            mpmath.sqrt(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator))
            for x in fracs
        )
        return float(s * s)


def clone_fidelity_oracle(n_copies: int, m_copies: int) -> float:
    fracs = [
        frac_binomial(n_copies, t) * frac_binomial(m_copies, t)
        for t in range(-n_copies, n_copies + 1, 2)
    ]
    return _sqrt_sum_squared(fracs)


def eco_clone_fidelity_oracle(n_copies: int, m_copies: int) -> float:
    fracs = [
        frac_irrep_weight(n_copies, t) * frac_irrep_weight(m_copies, t)
        for t in range(n_copies % 2, n_copies + 1, 2)
    ]
    return _sqrt_sum_squared(fracs)


def p_true_oracle(n_copies: int) -> float:
    fracs = [frac_binomial(n_copies, t) for t in range(-n_copies, n_copies + 1, 2)]
    return _sqrt_sum_squared(fracs)


def mp_fidelity_ent_oracle(n_copies: int, state) -> float:
    """Entangled measure-and-prepare fidelity as the direct quadruple sum.

    Sums sqrt(c_j1 c_j2) v_j3 v_j4 cg_overlap_count(j1, j2, j3, j4) over seed
    labels (j1, j2) and prepared labels (j3, j4), with v_j = sqrt(p_j c_j) / d_j
    and every c_j an exact rational.  O(N^2 S^2) for S prepared labels.
    """
    seed = [
        (t, math.sqrt(frac_irrep_weight(n_copies, t)))
        for t in range(n_copies % 2, n_copies + 1, 2)
    ]
    prepared = [
        (t, math.sqrt(p * frac_irrep_weight(state.M, t)) / (t + 1))
        for t, p in zip(map(int, state.twice), map(float, state.p))
        if p > 0
    ]
    return math.fsum(
        w1 * w2 * v3 * v4 * cg_overlap_count(t1 / 2, t2 / 2, t3 / 2, t4 / 2)
        for t1, w1 in seed
        for t2, w2 in seed
        for t3, v3 in prepared
        for t4, v4 in prepared
    )


def phase_quadrature_reference(n_copies: int, m_copies: int, state, nodes: int) -> float:
    """The equispaced phase-circle rule summed node by node, without an FFT.

    Both amplitudes come from complex-exponential matrices over 1024-node
    blocks of theta = 2 pi l / nodes - pi; no coefficient is folded.  No
    domain checks: a reference for quadrature.phase_quadrature_fidelity.
    """
    theta = 2.0 * math.pi * np.arange(nodes) / nodes - math.pi
    sb = sqrt_binomial_weights(n_copies)
    half_n = np.arange(-n_copies, n_copies + 1, 2) / 2.0
    v = np.sqrt(state.p) * np.exp(0.5 * log_binomial_weight(m_copies, state.twice))
    half_m = state.twice / 2.0
    total = 0.0
    for start in range(0, nodes, 1024):
        block = theta[start : start + 1024]
        amp_seed = np.exp(1j * np.outer(half_n, block)).T @ sb
        amp_prep = np.exp(1j * np.outer(half_m, block)).T @ v
        total += float(np.sum(np.abs(amp_seed) ** 2 * np.abs(amp_prep) ** 2))
    return total / nodes


def phase_quadrature_general(n_copies: int, m_copies: int, seed, amplitudes, nodes: int) -> float:
    """Qubit measure-and-prepare fidelity of any covariant strategy, by a dense phase rule.

    `seed` is the (N+1) x (N+1) POVM seed xi on the Dicke labels -N/2 .. N/2
    (Hermitian PSD with unit diagonal); `amplitudes` is the prepared pure
    state Phi on the M + 1 Dicke labels, complex, with unit norm.  The
    fidelity is the phase average of the outcome density
    sum_{n,n'} sqrt(b_n b_n') xi_{nn'} e^{i(n - n') theta} times the
    overlap |sum_m sqrt(b_{M,m}) Phi_m e^{i m theta}|^2: a trigonometric
    polynomial of degree N + M, so `nodes` > N + M equispaced nodes give it
    exactly.  The all-ones seed with real Phi = sqrt(p) is the exact
    evaluator's fidelity.  Weights come from math.comb.  No domain checks.
    """
    theta = 2.0 * math.pi * np.arange(nodes) / nodes - math.pi
    half_n = np.arange(-n_copies, n_copies + 1, 2) / 2.0
    half_m = np.arange(-m_copies, m_copies + 1, 2) / 2.0
    sb_n = np.sqrt([math.comb(n_copies, k) / 2.0**n_copies for k in range(n_copies + 1)])
    sb_m = np.sqrt([math.comb(m_copies, k) / 2.0**m_copies for k in range(m_copies + 1)])
    v = sb_n[:, None] * np.exp(-1j * np.outer(half_n, theta))
    density = np.einsum("ni,ni->i", v.conj(), np.asarray(seed) @ v)
    overlap = (sb_m * np.asarray(amplitudes)) @ np.exp(1j * np.outer(half_m, theta))
    return float(np.real(np.mean(density * np.abs(overlap) ** 2)))


def perron_law_ratio(n_copies: int, m_copies: int, eigenvalue: float) -> float:
    """delta_eig sqrt(M) / sqrt(2 S2 / S1) for the qubit kernel's top eigenvalue.

    Near the centre of the M-lattice the kernel is a harmonic oscillator, so
    delta_eig = 1 - eigenvalue / F_clon tends to sqrt(2 S2 / (S1 M)) as M grows,
    with S1 = sum_n sqrt(b_{N,n}) and S2 = sum_n n^2 sqrt(b_{N,n}); the ratio
    tends to 1 from below, with a deficit of O(sqrt(N/M)).  S1, S2 and F_clon
    come from mpmath binomials at 30 digits: no weight is shared with the
    program.
    """
    with mpmath.workdps(30):
        half = mpmath.mpf(n_copies) / 2
        seed = [mpmath.sqrt(mpmath.binomial(n_copies, k) / mpmath.mpf(2) ** n_copies)
                for k in range(n_copies + 1)]
        s1 = mpmath.fsum(seed)
        s2 = mpmath.fsum((k - half) ** 2 * r for k, r in enumerate(seed))
        shift = (m_copies - n_copies) // 2  # label n sits at k + shift on the M-lattice
        clone = mpmath.fsum(
            r * mpmath.sqrt(mpmath.binomial(m_copies, k + shift) / mpmath.mpf(2) ** m_copies)
            for k, r in enumerate(seed)
        ) ** 2
        delta = 1 - eigenvalue / clone
        return float(delta * mpmath.sqrt(m_copies) / mpmath.sqrt(2 * s2 / s1))
