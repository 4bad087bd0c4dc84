"""Optimal re-prepared states and cloner/measure-and-prepare gap computation.

For the qubit family, the measure-and-prepare fidelity is the quadratic form
q^T A q in q_m = sqrt(p_m) with the banded nonnegative kernel
A_{mm'} = sqrt(b_{M,m} b_{M,m'}) a_{m'-m}, so the best prepared state within
the covariant-seed class is the Perron eigenvector of A.  The eigenvalue is a
lower bound on the optimal estimation fidelity, and it upper-bounds every
cutoff-ansatz value, giving the dominance chain
F_naive <= F_lambda <= lambda_max(A) <= F_clon.

Which evaluators make up a family is decided here, by the FAMILIES registry.
The entangled family has no kernel and is handled by the cutoff-ansatz sweep
only; wiring the analogous character-integral kernel into the same
eigenproblem is a straightforward extension point but is deliberately not
part of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import entangled, equatorial
from .errors import ConvergenceError, DomainError
from .equatorial import outcome_density_fourier
from .spin import PreparedState, _check_copies, dicke_twice, log_binomial_weight


@dataclass(frozen=True)
class Family:
    """The evaluators that make up one family's N -> M cloning question.

    `has_kernel` marks the families whose measure-and-prepare optimum has the
    Perron eigen bound of build_quadratic_form.
    """

    clone_fidelity: Callable[[int, int], float]
    ansatz: Callable[[int, float], PreparedState]
    mp_fidelity: Callable[[int, int, PreparedState], float]
    has_kernel: bool

    @staticmethod
    def named(name: str) -> "Family":
        """The registered family called `name`; DomainError for any other name."""
        if name not in FAMILIES:
            raise DomainError(f"family must be one of {tuple(FAMILIES)}, got {name!r}")
        return FAMILIES[name]


# The entries look the evaluators up in their modules at call time rather
# than holding the function objects, so a rebound module attribute (a tracer
# or a test double) is what runs.  Process-pool tasks carry the family name,
# since these lambdas do not pickle.
FAMILIES: dict[str, Family] = {
    "qubit": Family(
        clone_fidelity=lambda n, m: equatorial.clone_fidelity_exact(n, m),
        ansatz=lambda m, lam: equatorial.prepared_state_ansatz(m, lam),
        mp_fidelity=lambda n, m, state: equatorial.mp_fidelity_exact(n, m, state),
        has_kernel=True,
    ),
    "entangled": Family(
        clone_fidelity=lambda n, m: entangled.eco_clone_fidelity_exact(n, m),
        ansatz=lambda m, lam: entangled.prepared_state_ansatz_ent(m, lam),
        mp_fidelity=lambda n, m, state: entangled.mp_fidelity_exact_ent(n, m, state),
        has_kernel=False,
    ),
}


@dataclass
class QuadraticForm:
    """Banded symmetric PSD kernel of the qubit measure-and-prepare fidelity.

    Stored as the sqrt-binomial diagonal and the outcome-density coefficients;
    matvec cost is O(N M) instead of the O(M^2) dense product.
    """

    n_copies: int
    m_copies: int
    sqrt_b: np.ndarray
    fourier: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.sqrt_b)

    def matvec(self, q: np.ndarray) -> np.ndarray:
        u = self.sqrt_b * q
        out = self.fourier[0] * u.copy()
        for k in range(1, len(self.fourier)):
            if k >= len(u):
                break
            out[: len(u) - k] += self.fourier[k] * u[k:]
            out[k:] += self.fourier[k] * u[: len(u) - k]
        return self.sqrt_b * out

    def to_dense(self) -> np.ndarray:
        size = self.dimension
        a = np.zeros(size)
        a[: len(self.fourier)] = self.fourier
        lag = np.abs(np.arange(size)[:, None] - np.arange(size)[None, :])
        return np.outer(self.sqrt_b, self.sqrt_b) * a[lag]

    def trace(self) -> float:
        return float(self.fourier[0] * np.dot(self.sqrt_b, self.sqrt_b))


def build_quadratic_form(n_copies: int, m_copies: int) -> QuadraticForm:
    """Kernel A_{mm'} = sqrt(b_{M,m} b_{M,m'}) a_{m'-m} over the full M-lattice."""
    _check_copies(n_copies)
    _check_copies(m_copies)
    sqrt_b = np.exp(0.5 * log_binomial_weight(m_copies, dicke_twice(m_copies)))
    return QuadraticForm(
        n_copies=n_copies,
        m_copies=m_copies,
        sqrt_b=sqrt_b,
        fourier=outcome_density_fourier(n_copies),
    )


def optimal_prepared_state(
    form: QuadraticForm, tol: float = 1e-13, max_iter: int = 50_000
) -> tuple[float, PreparedState]:
    """Dominant eigenpair of the fidelity kernel by deterministic power iteration.

    Starts from the uniform positive vector (the kernel is nonnegative, so the
    iterates stay nonnegative and converge to the Perron eigenvector) and
    stops when the Rayleigh quotient changes by at most `tol` per step.  The
    returned fidelity is the Rayleigh quotient of the returned state, so
    replaying the state through the exact evaluator reproduces it.  A negative
    or NaN `tol` can never be met and raises ConvergenceError at once.
    """
    if not tol >= 0:
        raise ConvergenceError(f"tolerance {tol} can never be met", math.nan, 0)
    dim = form.dimension
    q = np.full(dim, 1.0 / math.sqrt(dim))
    rayleigh = float(q @ form.matvec(q))
    for iteration in range(1, max_iter + 1):
        y = form.matvec(q)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            raise ConvergenceError("kernel annihilated the iterate", 0.0, iteration)
        q = y / norm
        new_rayleigh = float(q @ form.matvec(q))
        if abs(new_rayleigh - rayleigh) <= tol:
            rayleigh = new_rayleigh
            break
        rayleigh = new_rayleigh
    else:
        residual = float(np.linalg.norm(form.matvec(q) - rayleigh * q))
        raise ConvergenceError(
            f"power iteration did not converge within {max_iter} iterations "
            f"(residual {residual:.3e})",
            residual,
            max_iter,
        )
    state = PreparedState(
        "qubit", M=form.m_copies, twice=dicke_twice(form.m_copies), p=q * q
    )
    return rayleigh, state


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
    lambdas = sorted({float(lam) for lam in grid})
    if not lambdas:
        raise DomainError("lambda grid must be non-empty")
    rows = []
    for lam in lambdas:
        state = evaluators.ansatz(m_copies, lam)
        rows.append((lam, evaluators.mp_fidelity(n_copies, m_copies, state)))
    best_lambda, best_fidelity = rows[0]
    for lam, fidelity in rows[1:]:
        if fidelity > best_fidelity:
            best_lambda, best_fidelity = lam, fidelity
    return LambdaSweepResult(tuple(rows), best_lambda, best_fidelity)


@dataclass(frozen=True)
class GapRow:
    """Relative shortfall of measure-and-prepare versus the optimal cloner, with
    the ansatz sweep and the kernel eigenvalue (None without a kernel) behind it."""

    n_copies: int
    m_copies: int
    f_clon: float
    f_est_proxy: float
    delta: float
    sweep: LambdaSweepResult
    f_eig: float | None


def default_lambda_grid(m_copies: int) -> tuple[float, ...]:
    """Powers of two 1, 2, 4, ..., up to M."""
    grid = []
    lam = 1
    while lam <= m_copies:
        grid.append(float(lam))
        lam *= 2
    return tuple(grid)


def relative_gap(
    n_copies: int,
    m_copies: int,
    family: str = "qubit",
    lambdas=None,
) -> GapRow:
    """Relative gap (F_clon - F_est_proxy) / F_clon.

    F_est_proxy is the best swept ansatz fidelity, and for the qubit family
    also the kernel eigenvalue; both are achievable measure-and-prepare
    fidelities, so the proxy is a lower bound on the true optimum.
    """
    evaluators = Family.named(family)
    if lambdas is None:
        lambdas = default_lambda_grid(m_copies)
    sweep = lambda_sweep(n_copies, m_copies, lambdas, family=family)
    f_clon = evaluators.clone_fidelity(n_copies, m_copies)
    f_eig = None
    f_est = sweep.best_fidelity
    if evaluators.has_kernel:
        f_eig, _ = optimal_prepared_state(build_quadratic_form(n_copies, m_copies))
        f_est = max(f_est, f_eig)
    return GapRow(
        n_copies=n_copies,
        m_copies=m_copies,
        f_clon=f_clon,
        f_est_proxy=f_est,
        delta=(f_clon - f_est) / f_clon,
        sweep=sweep,
        f_eig=f_eig,
    )
