"""Half-integer spin indices, binomial weights, and SU(2) irrep spectra.

Spin projections n and total-spin labels j are stored as doubled integers
(2n, 2j), so both the even and odd copy-number lattices are exact and parity
checks reduce to integer arithmetic.  All probability weights are computed in
the log domain, as differences of log-factorials (_log_factorial), and
exponentiated, which stays finite where direct binomials overflow; large copy
numbers keep only the window of labels that carries weight (binomial_window).
Every path that forms weights over an M-lattice refuses copy numbers above
_MAX_WINDOW_COPIES (_check_window_copies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_LOG2 = math.log(2.0)


def _doubled(value):
    """The doubled value 2s of a half-integer spin label s (2n or 2j).

    A scalar gives an int; an array of labels gives an int64 array of the same
    shape.  Scalars keep plain Python arithmetic, which is ~10x cheaper per
    call than the array path.  Private so that an outside-in tracer of the
    public functions does not record one span per label coerced.
    """
    if isinstance(value, (int, float, np.number)):
        twice = 2 * value
        rounded = round(twice)
        if abs(twice - rounded) > 1e-9:
            raise DomainError(f"{value!r} is not a half-integer spin label")
        return int(rounded)
    twice = 2 * np.asarray(value, dtype=float)
    rounded = np.rint(twice)
    off = ~(np.abs(twice - rounded) <= 1e-9)  # NaN and inf are off too
    if off.any():
        raise DomainError(f"{float(twice[off][0]) / 2!r} is not a half-integer spin label")
    return rounded.astype(np.int64)


def _check_copies(n_copies: int) -> None:
    if not isinstance(n_copies, (int, np.integer)) or n_copies < 1:
        raise DomainError(f"copy number must be a positive integer, got {n_copies!r}")


# Square-root weights at most this fraction of the largest are below double
# precision next to it: windowed supports leave out the labels with
# b <= _SQRT_FLOOR^2 b_max (binomial_window's default floor).
_SQRT_FLOOR = 1e-17

# The largest copy number whose lattice weights are formed (_check_window_copies):
# every size that full-lattice weight arrays allowed on an 8 GB machine (10^8
# ran, 3 * 10^8 did not).
# Windows would fit far beyond it, but the log-factorial differences of
# log_binomial_weight lose digits as N grows: the lambda = 1 f_mp at N = 2 is
# 2.3e-8 relative off at M = 10^8, 1.2e-6 at 10^9 and 2.0e-5 at 10^10 (against
# the exact Vandermonde sum).
_MAX_WINDOW_COPIES = 10**8


def _check_window_copies(n_copies: int) -> None:
    """Refuse, with MemoryError, copy numbers above _MAX_WINDOW_COPIES: the
    one check of every path that forms weights over an M-lattice (the
    windows and both measure-and-prepare evaluators)."""
    _check_copies(n_copies)
    if n_copies > _MAX_WINDOW_COPIES:
        raise MemoryError(
            f"{n_copies} copies exceed the {_MAX_WINDOW_COPIES} that windowed weights support"
        )


def dicke_twice(n_copies: int) -> np.ndarray:
    """Doubled projection lattice -N, -N+2, ..., N for N copies."""
    _check_copies(n_copies)
    return np.arange(-n_copies, n_copies + 1, 2, dtype=np.int64)


def total_spin_twice(n_copies: int) -> np.ndarray:
    """Doubled total-spin lattice j_min, j_min+1, ..., N/2 for N copies, where
    j_min = 0 for even N and 1/2 for odd N."""
    _check_copies(n_copies)
    return np.arange(n_copies % 2, n_copies + 1, 2, dtype=np.int64)


def binomial_window(n_copies: int, floor: float = _SQRT_FLOOR**2) -> np.ndarray:
    """Doubled labels -T, -T+2, ..., T of N copies outside which every weight
    b_{N,t} is at most `floor` times the largest, for 0 < floor <= 1.

    The window comes from a closed form, so no weight is formed to find it.
    Hoeffding's inequality gives b_{N,t} <= exp(-t^2 / 2N) on the doubled
    label t, and the central weight is at least 1/sqrt(2N + 2), so every t
    with t^2 >= 2N (ln(1/floor) + ln(2N + 2)/2) has b_{N,t} <= floor b_max,
    and the weights outside the window sum to at most 2 floor b_max.
    At the default floor, 1e-34, that keeps 4111 of the 100001 labels of
    N = 10^5, and the whole lattice up to N = 166.  Copy numbers above
    _MAX_WINDOW_COPIES raise MemoryError before anything is formed.
    """
    _check_window_copies(n_copies)
    log_ratio = math.log(1.0 / floor) + 0.5 * math.log(2.0 * n_copies + 2.0)
    reach = math.sqrt(2.0 * n_copies * log_ratio)
    top = min(n_copies, math.ceil(reach) + 1)
    top -= (n_copies - top) % 2  # onto the lattice, still at or beyond the reach
    return np.arange(-top, top + 1, 2, dtype=np.int64)


# log k! as Cephes lgam(k + 1) computes it, the routine behind
# scipy.special.gammaln, so the weights keep the digits they had with it.
# Below x = k + 1 = 13 lgam takes the log of the exact factorial; from there
# Stirling's series (x - 1/2) log x - x + log sqrt(2 pi) + tail(1/x^2) / x,
# with a 5-term tail below x = 1000 and a 3-term one above.  (lgam drops the
# tail above x = 10^8, where it is below half an ulp of the rest and adding
# it changes nothing.  math.lgamma is another routine, up to 1.4e-9 off at
# k ~ 10^5.)
_LOG_SQRT_2PI = 0.91893853320467274178
_TAIL_BELOW_1000 = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                    7.93650340457716943945e-4, -2.77777777730099687205e-3,
                    8.33333333333331927722e-2)
_TAIL_FROM_1000 = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                   0.0833333333333333333333)


def _stirling(x, log, tail_coefficients):
    """lgam(x) for x >= 13, scalar (log = math.log) or array (np.log)."""
    p = 1.0 / (x * x)
    tail = tail_coefficients[0]
    for coefficient in tail_coefficients[1:]:
        tail = tail * p + coefficient
    return (x - 0.5) * log(x) - x + _LOG_SQRT_2PI + tail / x


# Every k with x = k + 1 below 1000, so the rest needs only the 3-term tail.
_LOG_FACTORIALS = np.array([
    math.log(math.factorial(k)) if k < 12 else _stirling(k + 1.0, math.log, _TAIL_BELOW_1000)
    for k in range(999)
])


def _log_factorial(k):
    """log k! of a non-negative integer, or elementwise of an integer array.

    Equal to gammaln(k + 1) on scalars and on k < 999.  On array entries
    above that, numpy's vectorized log may round 1 ulp away from libm's,
    which moves the result by at most 1 ulp.
    """
    size = len(_LOG_FACTORIALS)
    if isinstance(k, (int, np.integer)):
        if k < size:
            return _LOG_FACTORIALS.item(k)
        return _stirling(int(k) + 1.0, math.log, _TAIL_FROM_1000)
    k = np.asarray(k)
    if k.max(initial=0) < size:
        return _LOG_FACTORIALS[k]
    large = _stirling(k + 1.0, np.log, _TAIL_FROM_1000)
    if k.min() >= size:
        return large
    return np.where(k < size, _LOG_FACTORIALS[np.minimum(k, size - 1)], large)


def log_binomial_weight(n_copies: int, twice: np.ndarray | int) -> np.ndarray:
    """log of C(N, N/2+n) / 2^N on the doubled lattice (no domain checks)."""
    twice = np.asarray(twice, dtype=np.int64)
    k = (n_copies + twice) // 2
    return (
        _log_factorial(n_copies)
        - _log_factorial(k)
        - _log_factorial(n_copies - k)
        - n_copies * _LOG2
    )


# Below this size the scalar path takes logs of exact integer binomials, which
# keeps individual weights within a few ulp; above it big-int binomials get
# slow and the log-factorial form is accurate enough.
_EXACT_COMB_MAX = 8192


def binomial_weight(n_copies: int, n: float) -> float:
    """Symmetric binomial weight of the projection n among N copies."""
    _check_copies(n_copies)
    t = _doubled(n)
    if (t - n_copies) % 2 != 0:
        raise DomainError(
            f"projection {t}/2 is off the lattice of {n_copies} copies (parity mismatch)"
        )
    if abs(t) > n_copies:
        raise DomainError(f"projection {t}/2 out of range for {n_copies} copies")
    if n_copies <= _EXACT_COMB_MAX:
        k = (n_copies + t) // 2
        return math.exp(math.log(math.comb(n_copies, k)) - n_copies * _LOG2)
    return float(np.exp(log_binomial_weight(n_copies, t)))


def sqrt_binomial_weights(n_copies: int) -> np.ndarray:
    """Square roots of all binomial weights, ordered along dicke_twice(N)."""
    return np.exp(0.5 * log_binomial_weight(n_copies, dicke_twice(n_copies)))


def central_binomial_weight(n_copies: int) -> float:
    """Weight of the central lattice point: n=0 for even N, |n|=1/2 for odd N."""
    _check_copies(n_copies)
    return binomial_weight(n_copies, (n_copies % 2) / 2)


def multiplicity(n_copies: int, j: float) -> int:
    """Multiplicity of the spin-j irrep in the N-fold tensor power (exact integer)."""
    _check_copies(n_copies)
    tj = _doubled(j)
    if tj < 0 or tj > n_copies or (tj - n_copies) % 2 != 0:
        raise DomainError(f"total spin {tj}/2 invalid for {n_copies} copies")
    k = (n_copies + tj) // 2
    # Ballot-problem form of (2j+1)/(N/2+j+1) * C(N, N/2+j); exactly integer.
    return math.comb(n_copies, k) - math.comb(n_copies, k + 1)


@dataclass(frozen=True)
class IrrepBlock:
    """One total-spin sector of the N-fold tensor power, j = twice_j / 2."""

    twice_j: int
    multiplicity: int
    weight: float

    @property
    def dim_rep(self) -> int:
        """Dimension 2j + 1 of the spin-j irrep."""
        return self.twice_j + 1


def irrep_spectrum(n_copies: int) -> list[IrrepBlock]:
    """All irrep blocks (j, 2j+1, m_j, c_j) for N copies, j ascending."""
    blocks = []
    for t in total_spin_twice(n_copies):
        t = int(t)
        m = multiplicity(n_copies, t / 2)
        blocks.append(IrrepBlock(twice_j=t, multiplicity=m, weight=(t + 1) * m / 2**n_copies))
    return blocks


def log_irrep_weight(n_copies: int, twice_j: np.ndarray | int) -> np.ndarray:
    """log of c_j = (2j+1)^2 b_{N,j} / (N/2+j+1) on the doubled j-lattice."""
    twice_j = np.asarray(twice_j, dtype=np.int64)
    return (
        2.0 * np.log(twice_j + 1.0)
        - np.log((n_copies + twice_j) / 2.0 + 1.0)
        + log_binomial_weight(n_copies, twice_j)
    )


def sqrt_irrep_weights(n_copies: int) -> tuple[np.ndarray, np.ndarray]:
    """(doubled j-lattice, sqrt(c_j)) for N copies."""
    twice_j = total_spin_twice(n_copies)
    return twice_j, np.exp(0.5 * log_irrep_weight(n_copies, twice_j))


_NORM_TOL = 1e-12

# Lowest doubled label of each family's lattice, per copy: Dicke projections
# start at m = -M/2, total spins at j = 0 (parity then leaves j_min).
_FLOOR_PER_COPY = {"qubit": -1, "entangled": 0}


@dataclass
class PreparedState:
    """Re-prepared M-copy state given by weights p over a doubled spin lattice.

    For the "qubit" family the labels are Dicke projections m with
    |m| <= M/2 and p holds p_{M,m}; for the "entangled" family they are total
    spins j_min <= j <= M/2 and p holds block weights p_j.  The support is
    stored densely on a contiguous stretch of the lattice (zeros fill any
    gaps), so autocorrelations reduce to shifted dot products.
    """

    family: str
    M: int
    twice: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if self.family not in _FLOOR_PER_COPY:
            raise DomainError(f"unknown prepared-state family {self.family!r}")
        _check_copies(self.M)
        labels = np.asarray(self.twice)
        with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, rejected below
            twice = labels.astype(np.int64, copy=False)
        p = np.asarray(self.p, dtype=float)
        if twice.shape != p.shape or twice.ndim != 1 or len(twice) == 0:
            raise DomainError("support and weights must be matching 1-d arrays")
        if not np.array_equal(twice, labels):
            raise DomainError("support labels must be integers (doubled spins)")
        if np.any((twice - self.M) % 2 != 0):
            raise DomainError("support is off the parity lattice of M copies")
        floor = _FLOOR_PER_COPY[self.family] * self.M
        if np.any(twice < floor) or np.any(twice > self.M):
            raise DomainError(f"support exceeds the {self.family} lattice of M copies")
        if not np.all(p >= 0):  # NaN fails too
            raise DomainError("prepared-state weights must be nonnegative")
        low = twice.min()
        index = (twice - low) // 2  # position on the dense stretch, in any label order
        if np.bincount(index).max() > 1:
            raise DomainError("duplicate support points")
        dense = np.bincount(index, weights=p)
        total = float(np.sum(dense))
        if not abs(total - 1.0) <= _NORM_TOL:
            raise DomainError(f"prepared-state weights sum to {total}, not 1")
        self.twice = np.arange(low, low + 2 * len(dense), 2, dtype=np.int64)
        self.p = dense

    def check(self, family: str, m_copies: int) -> None:
        """Reject use by another family's evaluator or at another copy number."""
        if self.family != family:
            raise DomainError(f"prepared state is of the {self.family} family, not {family}")
        if self.M != m_copies:
            raise DomainError(f"prepared state is for M={self.M}, expected {m_copies}")
