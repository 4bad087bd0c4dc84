import math

import numpy as np
import pytest

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


class TestQuadraticForm:
    def test_one_copy_kernel(self):
        dense = build_quadratic_form(1, 1).to_dense()
        assert dense == pytest.approx(np.array([[0.5, 0.25], [0.25, 0.5]]), abs=1e-12)

    @pytest.mark.parametrize("pair", [(1, 1), (2, 4), (3, 9), (4, 16)])
    def test_trace_is_one(self, pair):
        assert build_quadratic_form(*pair).trace() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_positive_semidefinite(self):
        dense = build_quadratic_form(2, 4).to_dense()
        assert dense == pytest.approx(dense.T, abs=1e-15)
        assert np.linalg.eigvalsh(dense).min() >= -1e-12

    def test_matvec_matches_dense(self):
        form = build_quadratic_form(3, 9)
        rng = np.random.default_rng(5)
        vec = rng.normal(size=form.dimension)
        assert form.matvec(vec) == pytest.approx(form.to_dense() @ vec, abs=1e-13)


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
            float(np.linalg.eigvalsh(form.to_dense()).max()), abs=1e-11
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
        with pytest.raises(ConvergenceError) as info:
            optimal_prepared_state(build_quadratic_form(2, 64), tol=0.0, max_iter=2)
        assert info.value.residual >= 0.0
        assert info.value.iterations == 2

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_unmeetable_tolerance_fails_at_once(self, tol):
        with pytest.raises(ConvergenceError) as info:
            optimal_prepared_state(build_quadratic_form(1, 1), tol=tol)
        assert info.value.iterations == 0


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
        assert gap.f_est_proxy == pytest.approx(eigen, abs=1e-12)

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
        assert gap.f_est_proxy == gap.sweep.best_fidelity


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
