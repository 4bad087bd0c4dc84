import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import (
    ConvergenceError,
    DomainError,
    build_quadratic_form,
    clone_fidelity_exact,
    default_lambda_grid,
    lambda_sweep,
    mp_fidelity_exact,
    optimal_prepared_state,
    prepared_state_ansatz,
    relative_gap,
)
from clonebench.equatorial import outcome_density_fourier
from clonebench.spin import sqrt_binomial_weights
from _oracles import perron_law_ratio, phase_quadrature_general


def _full_lattice_matvec(n_copies, m_copies, x):
    """Kernel product on the whole M-lattice, one shifted slice per lag."""
    sqrt_b = sqrt_binomial_weights(m_copies)
    a = outcome_density_fourier(n_copies)
    u = sqrt_b * x
    out = a[0] * u
    for k in range(1, len(a)):
        out[:-k] += a[k] * u[k:]
        out[k:] += a[k] * u[:-k]
    return sqrt_b * out


def _full_lattice_dense(n_copies, m_copies):
    sqrt_b = sqrt_binomial_weights(m_copies)
    a = np.zeros(m_copies + 1)
    a[: n_copies + 1] = outcome_density_fourier(n_copies)
    lag = np.abs(np.subtract.outer(np.arange(m_copies + 1), np.arange(m_copies + 1)))
    return np.outer(sqrt_b, sqrt_b) * a[lag]


def _dense(form):
    """The windowed kernel as a dense matrix."""
    size = form.dimension
    a = np.zeros(size)
    a[: len(form.fourier)] = form.fourier[:size]
    lag = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
    return np.outer(form.sqrt_b, form.sqrt_b) * a[lag]


def _trace(form):
    return float(form.fourier[0] * np.dot(form.sqrt_b, form.sqrt_b))


class TestQuadraticForm:
    def test_one_copy_kernel(self):
        dense = _dense(build_quadratic_form(1, 1))
        assert dense == pytest.approx(np.array([[0.5, 0.25], [0.25, 0.5]]), abs=1e-12)

    @pytest.mark.parametrize("pair", [(1, 1), (2, 4), (3, 9), (4, 16)])
    def test_trace_is_one(self, pair):
        assert _trace(build_quadratic_form(*pair)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_positive_semidefinite(self):
        dense = _dense(build_quadratic_form(2, 4))
        assert dense == pytest.approx(dense.T, abs=1e-15)
        assert np.linalg.eigvalsh(dense).min() >= -1e-12

    def test_matvec_matches_dense(self):
        # (8, 8), (12, 4): the band is wider than the lattice; (2, 600): a
        # trimmed window.
        for pair in [(3, 9), (8, 8), (12, 4), (2, 600)]:
            form = build_quadratic_form(*pair)
            rng = np.random.default_rng(5)
            vec = rng.normal(size=form.dimension)
            assert form.matvec(vec) == pytest.approx(_dense(form) @ vec, abs=1e-13)


class TestOptimalPreparedState:
    def test_two_level_eigenproblem(self):
        fidelity, state = optimal_prepared_state(build_quadratic_form(1, 1))
        assert fidelity == pytest.approx(0.75, abs=1e-12)
        assert state.p == pytest.approx([0.5, 0.5], abs=1e-10)

    @pytest.mark.parametrize("pair", [(1, 5), (2, 8), (3, 15), (4, 24)])
    def test_matches_dense_eigensolver(self, pair):
        form = build_quadratic_form(*pair)
        fidelity, _ = optimal_prepared_state(form)
        assert fidelity == pytest.approx(
            float(np.linalg.eigvalsh(_dense(form)).max()), abs=1e-11
        )

    def test_replay_through_exact_evaluator(self):
        for pair in [(1, 1), (2, 16), (4, 32)]:
            fidelity, state = optimal_prepared_state(build_quadratic_form(*pair))
            assert mp_fidelity_exact(pair[0], pair[1], state) == pytest.approx(
                fidelity, abs=1e-10
            )

    def test_dominates_ansatz_but_not_cloner(self):
        fidelity, _ = optimal_prepared_state(build_quadratic_form(2, 64))
        sweep = lambda_sweep(2, 64, default_lambda_grid(64))
        assert fidelity >= sweep.best_fidelity - 1e-12
        assert fidelity <= clone_fidelity_exact(2, 64) + 1e-12

    def test_iteration_budget_exhaustion(self):
        # Krylov exhaustion and the step budget are one branch of the solver.
        form = build_quadratic_form(2, 64)
        with pytest.raises(ConvergenceError) as info:
            optimal_prepared_state(form, tol=0.0)
        assert info.value.residual >= 0.0
        assert 1 <= info.value.iterations <= form.dimension

    @pytest.mark.parametrize("pair", [(1, 100001), (4, 100000)])
    def test_residual_on_full_lattice(self, pair):
        n_copies, m_copies = pair
        fidelity, state = optimal_prepared_state(build_quadratic_form(*pair))
        assert len(state.twice) < m_copies + 1  # the tail was trimmed
        assert np.all(state.p > 0)
        x = np.zeros(m_copies + 1)
        start = (int(state.twice[0]) + m_copies) // 2
        x[start : start + len(state.p)] = np.sqrt(state.p)
        residual = np.linalg.norm(_full_lattice_matvec(n_copies, m_copies, x) - fidelity * x)
        assert residual <= 1e-13 * fidelity

    @pytest.mark.parametrize("pair", [(1, 301), (2, 400), (3, 601), (6, 500)])
    def test_window_matches_full_dense_eigenvalue(self, pair):
        fidelity, _ = optimal_prepared_state(build_quadratic_form(*pair))
        full = float(np.linalg.eigvalsh(_full_lattice_dense(*pair))[-1])
        assert fidelity == pytest.approx(full, rel=1e-13)

    def test_window_trims_weightless_tail(self):
        form = build_quadratic_form(2, 16384)
        assert form.dimension == 1601
        assert form.twice[0] == -form.twice[-1]
        assert np.all(form.sqrt_b > 1e-17 * form.sqrt_b.max())

    @pytest.mark.parametrize("pair", [(1, 100001), (2, 100000), (4, 16384), (3, 1025)])
    def test_window_is_the_full_lattice_cut(self, pair):
        # The closed-form window only bounds where weights are formed; the
        # sqrt(b) > 1e-17 max cut, and so optimize-prep's support, is the same.
        n_copies, m_copies = pair
        sqrt_b = sqrt_binomial_weights(m_copies)
        keep = sqrt_b > 1e-17 * sqrt_b.max()
        form = build_quadratic_form(n_copies, m_copies)
        assert np.array_equal(form.twice, np.arange(-m_copies, m_copies + 1, 2)[keep])
        assert np.array_equal(form.sqrt_b, sqrt_b[keep])

    # Lanczos steps run in blocks of 8, plus one residual check per solve.
    @pytest.mark.parametrize(
        "pair, most",
        [((1, 100001), 49), ((2, 100000), 41), ((4, 100000), 33), ((1, 16385), 25),
         ((2, 16384), 25), ((8, 16384), 17), ((256, 4096), 9), ((1024, 4096), 9),
         ((4096, 4096), 9)],
    )
    def test_gaussian_start_matvec_count(self, pair, most):
        form = build_quadratic_form(*pair)
        calls = []
        matvec = form.matvec
        form.matvec = lambda q: calls.append(1) or matvec(q)
        optimal_prepared_state(form)
        assert len(calls) <= most

    def test_unreachable_tolerance_fails_fast(self):
        form = build_quadratic_form(1, 100001)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError) as info:
            optimal_prepared_state(form, tol=1e-20)
        assert time.perf_counter() - start < 1.0
        assert math.isfinite(info.value.residual)
        assert info.value.iterations == 300

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_unmeetable_tolerance_fails_at_once(self, tol):
        with pytest.raises(ConvergenceError) as info:
            optimal_prepared_state(build_quadratic_form(1, 1), tol=tol)
        assert info.value.iterations == 0


class TestLargeMPerronLaw:
    """delta_eig sqrt(M) / sqrt(2 S2 / S1) -> 1: the harmonic-oscillator limit of
    the kernel, a check of the solve at sizes no big-rational oracle reaches."""

    @pytest.mark.parametrize("n_copies", [1, 2, 4, 8, 64])
    def test_deficit_falls_with_m_and_is_bounded(self, n_copies):
        deficits = []
        for base in (1024, 4096, 16384, 100000):
            m_copies = base + (base - n_copies) % 2
            fidelity, _ = optimal_prepared_state(build_quadratic_form(n_copies, m_copies))
            deficit = 1.0 - perron_law_ratio(n_copies, m_copies, fidelity)
            assert 0.0 < deficit <= 2.0 * math.sqrt(n_copies / m_copies)
            deficits.append(deficit)
        assert all(a > b for a, b in zip(deficits, deficits[1:]))


class TestLambdaSweep:
    def test_degenerate_grid_equals_naive(self):
        sweep = lambda_sweep(2, 32, [1.0])
        naive = mp_fidelity_exact(2, 32, prepared_state_ansatz(32, 1.0))
        assert sweep.rows == ((1.0, pytest.approx(naive)),)
        assert sweep.best_lambda == 1.0

    def test_rows_sorted_and_deduplicated(self):
        sweep = lambda_sweep(1, 9, [4.0, 1.0, 4.0, 2.0])
        assert [lam for lam, _ in sweep.rows] == [1.0, 2.0, 4.0]

    def test_tie_breaks_to_smallest_lambda(self):
        # every lambda here clamps to the same cutoff, so fidelities tie
        sweep = lambda_sweep(2, 2, [4.0, 2.0, 8.0])
        values = [fidelity for _, fidelity in sweep.rows]
        assert max(values) - min(values) < 1e-15
        assert sweep.best_lambda == 2.0

    def test_entangled_family(self):
        sweep = lambda_sweep(2, 8, [1.0, 2.0], family="entangled")
        assert len(sweep.rows) == 2
        assert sweep.best_fidelity > 0

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            lambda_sweep(1, 3, [])

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            lambda_sweep(1, 3, [1.0], family="qutrit")
        with pytest.raises(DomainError):
            relative_gap(1, 3, family="qutrit")


class TestRelativeGap:
    def test_identity_amplification_baseline(self):
        gap = relative_gap(3, 3, "qubit")
        assert gap.f_clon == pytest.approx(1.0, abs=1e-13)
        assert 0.0 <= gap.delta <= 1.0

    def test_qubit_gap_uses_eigen_bound(self):
        gap = relative_gap(2, 64, "qubit")
        eigen, _ = optimal_prepared_state(build_quadratic_form(2, 64))
        assert gap.f_eig == pytest.approx(eigen, abs=1e-12)
        assert gap.f_eig >= gap.f_mp
        assert gap.delta == (gap.f_clon - gap.f_eig) / gap.f_clon

    def test_qubit_gap_closes_with_m(self):
        deltas = [
            relative_gap(2, m, "qubit", lambdas=[math.sqrt(m)]).delta
            for m in (256, 1024, 4096)
        ]
        assert deltas[0] >= deltas[1] >= deltas[2]
        assert deltas[2] <= 0.05

    def test_entangled_gap(self):
        gap = relative_gap(2, 2048, "entangled")
        assert gap.delta <= 0.10
        assert 0.0 <= gap.delta <= 1.0
        assert gap.f_eig is None
        assert gap.delta == (gap.f_clon - gap.f_mp) / gap.f_clon


class TestDominanceChain:
    def test_chain_over_small_grid(self):
        for n_copies in range(1, 7):
            for m_copies in range(n_copies, 65):
                if (m_copies - n_copies) % 2:
                    continue
                f_clon = clone_fidelity_exact(n_copies, m_copies)
                sweep = lambda_sweep(n_copies, m_copies, default_lambda_grid(m_copies))
                naive = sweep.rows[0][1]
                eigen, _ = optimal_prepared_state(
                    build_quadratic_form(n_copies, m_copies)
                )
                assert naive <= sweep.best_fidelity + 1e-9
                assert sweep.best_fidelity <= eigen + 1e-9
                assert eigen <= f_clon + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        n_copies=st.integers(1, 8),
        extra=st.integers(0, 40),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    )
    def test_chain_property(self, n_copies, extra, fractions):
        # F_lambda at one lambda may fall below F_naive ((3, 3, 1.5) does), so
        # the chain runs through the best lambda of a grid that holds 1.
        m_copies = n_copies + 2 * extra
        lambdas = [1.0] + [1.0 + f * (m_copies - 1.0) for f in fractions]
        sweep = lambda_sweep(n_copies, m_copies, lambdas)
        rows = dict(sweep.rows)
        eigen, _ = optimal_prepared_state(build_quadratic_form(n_copies, m_copies))
        f_clon = clone_fidelity_exact(n_copies, m_copies)
        for value in (eigen, f_clon, *rows.values()):
            assert math.isfinite(value) and 0.0 <= value <= 1.0 + 1e-13
        assert rows[1.0] <= sweep.best_fidelity <= eigen * (1 + 1e-13)
        assert eigen <= f_clon * (1 + 1e-13)


class TestCovariantOptimum:
    """lambda_max(A) is the best qubit measure-and-prepare fidelity of any
    covariant strategy (see the optimize module docstring): a random PSD
    unit-diagonal seed with a random complex prepared state never beats it,
    and the all-ones seed with the Perron state reaches it."""

    @staticmethod
    def _eigen(n_copies, m_copies):
        return optimal_prepared_state(build_quadratic_form(n_copies, m_copies))

    @settings(max_examples=60, deadline=None)
    @given(n_copies=st.integers(1, 4), extra=st.integers(0, 5), rank=st.integers(1, 5),
           draw=st.integers(0, 2**32 - 1))
    def test_no_strategy_beats_the_eigenvalue(self, n_copies, extra, rank, draw):
        m_copies = n_copies + 2 * extra
        rng = np.random.default_rng(draw)
        g = rng.normal(size=(n_copies + 1, rank)) + 1j * rng.normal(size=(n_copies + 1, rank))
        seed = g @ g.conj().T
        scale = np.sqrt(np.real(np.diag(seed)))
        seed /= np.outer(scale, scale)
        phi = rng.normal(size=m_copies + 1) + 1j * rng.normal(size=m_copies + 1)
        phi /= np.linalg.norm(phi)
        nodes = 2 * (n_copies + m_copies) + 1
        value = phase_quadrature_general(n_copies, m_copies, seed, phi, nodes)
        f_eig, _ = self._eigen(n_copies, m_copies)
        assert 0.0 < value <= f_eig * (1 + 1e-12)

    @pytest.mark.parametrize("pair", [(1, 3), (2, 4), (2, 6), (3, 7), (4, 10), (5, 21)])
    def test_all_ones_seed_and_perron_state_reach_it(self, pair):
        n_copies, m_copies = pair
        f_eig, state = self._eigen(n_copies, m_copies)
        phi = np.zeros(m_copies + 1)
        phi[(state.twice + m_copies) // 2] = np.sqrt(state.p)
        nodes = 2 * (n_copies + m_copies) + 1
        seed = np.ones((n_copies + 1, n_copies + 1))
        assert phase_quadrature_general(n_copies, m_copies, seed, phi, nodes) == pytest.approx(
            f_eig, rel=1e-12)
        # The same strategy turned by a phase alpha on both sides is just as good.
        alpha = 0.7
        turn = np.exp(1j * alpha * np.arange(-n_copies, n_copies + 1, 2) / 2.0)
        phase = np.exp(1j * alpha * np.arange(-m_copies, m_copies + 1, 2) / 2.0)
        turned = phase_quadrature_general(n_copies, m_copies, np.outer(turn, turn.conj()),
                                          phi * phase, nodes)
        assert turned == pytest.approx(f_eig, rel=1e-12)
