"""Family registry, optimal re-prepared states and the lambda sweep.

For the qubit family, the measure-and-prepare fidelity is the quadratic form
q^T A q in q_m = sqrt(p_m) with the banded nonnegative kernel
A_{mm'} = sqrt(b_{M,m} b_{M,m'}) a_{m'-m}, so the best prepared state within
the covariant-seed class is the Perron eigenvector of A.  The eigenvalue is
the optimal measure-and-prepare fidelity over every strategy, not only a
bound on it:
  - averaging a strategy over the phase group keeps its fidelity, so a
    covariant POVM with seed xi (PSD, xi_nn = 1) and a covariant prepared
    state suffice;
  - the prepared state can be a pure Phi in the symmetric M-copy subspace:
    mixtures do not help, by convexity, and the rest has no overlap with
    |psi>^M;
  - then F = sum_k a_k(xi) c_k(Phi), with a_k(xi) = sum_n sqrt(b_n b_{n+k})
    xi_{n,n+k} and c_k(Phi) = sum_m sqrt(b_m b_{m+k}) conj(Phi_m) Phi_{m+k};
  - |xi_{n,n+k}| <= 1 and |c_k(Phi)| <= c_k(|Phi|), so with q = |Phi|,
    F <= sum_k a_k(1) c_k(q) = q^T A q <= lambda_max(A);
  - the all-ones seed (the covariant phase measurement) with the Perron
    vector attains it.
So the qubit delta column is the exact relative gap, to the solver's tol
(cf. Bae and Acin, PRL 97, 030402 (2006)).  The eigenvalue also
upper-bounds every cutoff-ansatz value, giving the dominance chain
F_naive <= F_lambda* <= lambda_max(A) <= F_clon for the best swept lambda*.

The kernel is kept only on the window of labels whose sqrt-binomial weight
exceeds 1e-17 of the largest (about 12.5 sqrt(M) labels), which moves the
eigenvalue by less than ~2e-17 relative; its weights are formed only on a
closed-form superset of that window; see build_quadratic_form.  Its Perron
pair comes from Lanczos with full reorthogonalization, started from the
Gaussian that is the kernel's large-M Perron vector (width ~M^(1/4) labels,
not the ~M^(1/2) of M identical copies) and stopped when the measured
residual ||A q - rho q|| is at most tol * rho.

Which evaluators make up a family is decided here, by the FAMILIES registry;
report.relative_gap combines them into one sweep row.  The entangled family
has no kernel yet, so its rows come from the cutoff-ansatz sweep only; its
evaluator fixes the square-root-measurement seed, and the argument above is
not claimed for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import entangled, equatorial
from .errors import ConvergenceError, DomainError
from .equatorial import outcome_density_fourier
from .spin import (
    _SQRT_FLOOR,
    PreparedState,
    _check_copies,
    _check_window_copies,
    binomial_window,
    log_binomial_weight,
)


@dataclass(frozen=True)
class Family:
    """The evaluators that make up one family's N -> M cloning question.

    The measure-and-prepare fidelity is a dot product of an N-copy spectrum,
    `seed(n)`, and a prepared-state spectrum: the outcome-density
    coefficients a_0 .. a_N for qubits, the squared seed's chi_J
    coefficients A_0 .. A_N for entangled pairs.  `mp_fidelity(seed, m,
    state)` takes the seed spectrum, so a caller that evaluates many states
    at one N builds it once.  `kernel(n, m)` builds the quadratic form whose
    Perron eigenvalue is the family's measure-and-prepare optimum, and
    carries the qubit seed as its `fourier`; it is None for a family
    without one.
    """

    clone_fidelity: Callable[[int, int], float]
    ansatz: Callable[[int, float], PreparedState]
    seed: Callable[[int], np.ndarray]
    mp_fidelity: Callable[[np.ndarray, int, PreparedState], float]
    kernel: Callable[[int, int], QuadraticForm] | None

    @staticmethod
    def named(name: str) -> "Family":
        """The registered family called `name`; DomainError for any other name."""
        if name not in FAMILIES:
            raise DomainError(f"family must be one of {tuple(FAMILIES)}, got {name!r}")
        return FAMILIES[name]

    def seed_for(self, n_copies: int, *m_copies: int) -> np.ndarray:
        """seed(n_copies) for N -> M questions at each M of m_copies.

        N and every M are checked first, as the evaluators check them, so an
        M above spin._MAX_WINDOW_COPIES is refused before the O(N^2) seed is
        built.
        """
        _check_copies(n_copies)
        for m in m_copies:
            _check_window_copies(m)
        return self.seed(n_copies)

    def sweep(self, seed: np.ndarray, m_copies: int, grid) -> LambdaSweepResult:
        """Exact ansatz fidelity at each lambda of the grid, on one seed spectrum;
        the smallest lambda wins ties."""
        lambdas = sorted({float(lam) for lam in grid})
        if not lambdas:
            raise DomainError("lambda grid must be non-empty")
        rows = [(lam, self.mp_fidelity(seed, m_copies, self.ansatz(m_copies, lam)))
                for lam in lambdas]
        best_lambda, best_fidelity = max(rows, key=lambda row: row[1])  # first of equal maxima
        return LambdaSweepResult(tuple(rows), best_lambda, best_fidelity)


# The entries look the evaluators up in their modules at call time rather
# than holding the function objects, so a rebound module attribute (a tracer
# or a test double) is what runs.
FAMILIES: dict[str, Family] = {
    "qubit": Family(
        clone_fidelity=lambda n, m: equatorial.clone_fidelity_exact(n, m),
        ansatz=lambda m, lam: equatorial.prepared_state_ansatz(m, lam),
        seed=lambda n: equatorial.outcome_density_fourier(n),
        mp_fidelity=lambda seed, m, state: equatorial.mp_fidelity_exact_from_seed(seed, m, state),
        kernel=lambda n, m: build_quadratic_form(n, m),
    ),
    "entangled": Family(
        clone_fidelity=lambda n, m: entangled.eco_clone_fidelity_exact(n, m),
        ansatz=lambda m, lam: entangled.prepared_state_ansatz_ent(m, lam),
        seed=lambda n: entangled.seed_char_square(n),
        mp_fidelity=lambda seed, m, state: entangled.mp_fidelity_exact_ent_from_seed(
            seed, m, state),
        kernel=None,
    ),
}


# Lanczos steps between two eigen-solves of the tridiagonal projection.
_CHECK_EVERY = 8
# Most Lanczos steps, and so most window vectors held, in one solve.
_MAX_STEPS = 300


@dataclass
class QuadraticForm:
    """Banded symmetric PSD kernel of the qubit measure-and-prepare fidelity.

    Stored on a window of the M-lattice (doubled labels `twice`) as the
    sqrt-binomial diagonal and the outcome-density coefficients a_0 .. a_N;
    a matvec is one band convolution, O(N d) on d window labels.
    """

    m_copies: int
    twice: np.ndarray
    sqrt_b: np.ndarray
    fourier: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.sqrt_b)

    def matvec(self, q: np.ndarray) -> np.ndarray:
        lags = self.fourier[: len(q)]
        band = np.concatenate((lags[:0:-1], lags))
        width = len(lags) - 1
        return self.sqrt_b * np.convolve(self.sqrt_b * q, band)[width : width + len(q)]


def build_quadratic_form(n_copies: int, m_copies: int) -> QuadraticForm:
    """Kernel A_{mm'} = sqrt(b_{M,m} b_{M,m'}) a_{m'-m} on the weighted window.

    Weights are formed only on spin.binomial_window(M) at its default floor
    eps^2, eps = spin._SQRT_FLOOR = 1e-17: a closed-form window (Hoeffding's
    bound against a lower bound on b_max) outside which b_{M,m} <= eps^2 b_max,
    so it holds every label the cut below keeps; 4111 labels at M = 10^5,
    against the 100001 of the lattice.
    Hoeffding bounds the tail mass too: the weights never formed sum to at
    most 2 eps^2 b_max.
    Only the labels with sqrt(b_{M,m}) > eps max_m sqrt(b_{M,m}) are kept:
    a contiguous window (b is log-concave), 1601 of the 16385 labels at
    M = 16384 and 3957 of 100001 at M = 10^5.  The window's kernel
    is a principal submatrix, so its top eigenvalue lambda_W is at most the
    full one, lambda.  Splitting the full Perron vector into window and tail
    parts, with the tail diagonal at most eps sqrt(b_max) and the Toeplitz
    part's norm at most the peak outcome density p_true(N), gives
    lambda_W <= lambda <= lambda_W + (2 eps + eps^2) b_max p_true(N).
    Since b_max p_true(N) is the large-M cloner fidelity, about lambda
    itself, the dropped tail moves the eigenvalue by ~2e-17 relative, below
    double precision.  The same bound holds for the residual of a window
    eigenvector embedded in the full lattice.
    """
    _check_copies(n_copies)
    _check_copies(m_copies)
    twice = binomial_window(m_copies)
    sqrt_b = np.exp(0.5 * log_binomial_weight(m_copies, twice))
    window = sqrt_b > _SQRT_FLOOR * sqrt_b.max()
    return QuadraticForm(
        m_copies=m_copies,
        twice=twice[window],
        sqrt_b=sqrt_b[window],
        fourier=outcome_density_fourier(n_copies),
    )


def _start_vector(form: QuadraticForm) -> np.ndarray:
    """The large-M Perron vector q ~ exp(-m^2 / 2 s^2), plus 1e-14 sqrt(b).

    Near the centre the kernel acts as b_max [A0 (1 - 2 m^2/M) q + A2 q''/2]
    with A0 = sum_k a_k and A2 = sum_k k^2 a_k over the lags -N .. N: a
    harmonic oscillator whose ground state is this Gaussian, with
    s^2 = sqrt(M A2 / A0) / 2.  Its width grows like M^(1/4), where sqrt(b)
    grows like M^(1/2).  The Gaussian underflows to 0 at the window's edges;
    the small sqrt(b) part keeps every entry, and so every Ritz vector
    entry, positive.
    """
    lags = np.arange(len(form.fourier))
    a0 = 2.0 * np.sum(form.fourier) - form.fourier[0]
    a2 = 2.0 * np.sum(lags * lags * form.fourier)
    s2 = 0.5 * math.sqrt(form.m_copies * a2 / a0)
    m = form.twice / 2.0
    gauss = np.exp(-m * m / (2.0 * s2))
    start = gauss / np.linalg.norm(gauss) + 1e-14 * form.sqrt_b / np.linalg.norm(form.sqrt_b)
    return start / np.linalg.norm(start)


def optimal_prepared_state(form: QuadraticForm, tol: float = 1e-13) -> tuple[float, PreparedState]:
    """Dominant eigenpair of the fidelity kernel by Lanczos with full
    reorthogonalization.

    The Krylov basis starts from the Gaussian exp(-m^2 / 2 s^2), with
    s^2 = sqrt(M A2 / A0) / 2 for A0 = sum_k a_k and A2 = sum_k k^2 a_k: the
    Perron vector of the kernel's large-M (harmonic-oscillator) limit.  A
    1e-14 share of sqrt(b) keeps every entry positive where the Gaussian
    underflows.  At M ~ 10^5 the weights b of a sqrt(b) start have ~300
    times the variance of the Perron weights; that start took 89 matvecs at
    (N, M) = (1, 100001), the Gaussian takes 49.  The basis grows by at most
    _MAX_STEPS = 300 steps (so at most that many window vectors are held).
    Every few steps the tridiagonal projection is solved with np.linalg.eigh;
    once the Ritz estimate allows it, the residual ||A q - rho q|| of the Ritz
    vector q (made positive and normalized) is measured with a matvec, and
    the solve stops when it is at most `tol` * rho.  So `tol` bounds the
    relative residual, not the change of rho per step; the eigenvalue error is then at most `tol` * rho, and
    about the residual's square over the spectral gap.  The returned
    fidelity rho is the Rayleigh quotient of the returned state, so
    replaying the state through the exact evaluator reproduces it.  The
    state's weights sit on the kernel's window of the M-lattice.
    ConvergenceError is raised when _MAX_STEPS steps, or the whole Krylov
    space, do not meet `tol`; a negative or NaN `tol` can never be met and
    raises at once.
    """
    if not tol >= 0:
        raise ConvergenceError(f"tolerance {tol} can never be met", math.nan, 0)
    dim = form.dimension
    steps = min(_MAX_STEPS, dim)
    # Rows are written as the basis grows; untouched rows cost no memory.
    basis = np.empty((steps + 1, dim))
    alpha = np.zeros(steps)
    beta = np.zeros(steps)
    basis[0] = _start_vector(form)
    residual = math.nan
    iterations = 0
    for k in range(steps):
        iterations = k + 1
        w = form.matvec(basis[k])
        if k > 0:
            w -= beta[k - 1] * basis[k - 1]
        alpha[k] = basis[k] @ w
        w -= alpha[k] * basis[k]
        w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        beta[k] = np.linalg.norm(w)
        exhausted = k + 1 == steps or beta[k] <= np.finfo(float).eps * alpha[0]
        if exhausted or (k + 1) % _CHECK_EVERY == 0:
            tri = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            theta, vectors = np.linalg.eigh(tri)
            top = vectors[:, -1]
            if exhausted or beta[k] * abs(top[-1]) <= tol * theta[-1]:
                q = np.abs(basis[: k + 1].T @ top)
                q /= np.linalg.norm(q)
                aq = form.matvec(q)
                rho = float(q @ aq)
                residual = float(np.linalg.norm(aq - rho * q))
                if residual <= tol * rho:
                    state = PreparedState("qubit", M=form.m_copies, twice=form.twice, p=q * q)
                    return rho, state
            if exhausted:
                break
        basis[k + 1] = w / beta[k]
    raise ConvergenceError(
        f"Lanczos did not reach a relative residual of {tol} within {iterations} steps "
        f"(residual {residual:.3e})",
        residual,
        iterations,
    )


@dataclass(frozen=True)
class LambdaSweepResult:
    """Exact ansatz fidelities over a lambda grid, rows sorted by lambda."""

    rows: tuple[tuple[float, float], ...]
    best_lambda: float
    best_fidelity: float


def lambda_sweep(
    n_copies: int, m_copies: int, grid, family: str = "qubit"
) -> LambdaSweepResult:
    """Exact measure-and-prepare fidelity at each lambda; smallest lambda wins ties."""
    evaluators = Family.named(family)
    return evaluators.sweep(evaluators.seed_for(n_copies, m_copies), m_copies, grid)


def default_lambda_grid(m_copies: int) -> tuple[float, ...]:
    """Powers of two 1, 2, 4, ..., up to M."""
    grid = []
    lam = 1
    while lam <= m_copies:
        grid.append(float(lam))
        lam *= 2
    return tuple(grid)
