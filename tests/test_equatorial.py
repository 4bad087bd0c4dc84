import math

import numpy as np
import pytest

from clonebench import (
    DomainError,
    PreparedState,
    clone_fidelity_exact,
    clone_fidelity_large_n,
    mp_fidelity_exact,
    phase_quadrature_fidelity,
    phase_nodes_required,
    prepared_state_ansatz,
    prepared_state_ansatz_ent,
    sqrt_binomial_second_moment,
    sqrt_binomial_sum,
)
from clonebench.equatorial import (
    _lag_products,
    ansatz_cutoff,
    clone_fidelity_large_m,
    outcome_density_fourier,
    p_true,
)
from clonebench.spin import (
    binomial_window,
    central_binomial_weight,
    dicke_twice,
    log_binomial_weight,
    sqrt_binomial_weights,
)
from _oracles import clone_fidelity_oracle, p_true_oracle


class TestCloneFidelityExact:
    @pytest.mark.parametrize("n_copies", [1, 2, 3, 5])
    def test_identity_amplification(self, n_copies):
        assert clone_fidelity_exact(n_copies, n_copies) == pytest.approx(1.0, abs=1e-14)

    def test_one_to_three(self):
        # (2 sqrt(1/2 * 3/8))^2 = 3/4 exactly
        assert clone_fidelity_exact(1, 3) == pytest.approx(0.75, abs=1e-12)

    def test_two_to_four_against_rational_oracle(self):
        oracle = clone_fidelity_oracle(2, 4)
        assert oracle == pytest.approx(0.8705127018922193, abs=1e-14)
        assert clone_fidelity_exact(2, 4) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("pair", [(1, 5), (3, 7), (4, 10), (6, 64)])
    def test_against_rational_oracle(self, pair):
        assert clone_fidelity_exact(*pair) == pytest.approx(
            clone_fidelity_oracle(*pair), rel=1e-12
        )

    def test_shrinking_rejected(self):
        with pytest.raises(DomainError):
            clone_fidelity_exact(4, 2)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(DomainError):
            clone_fidelity_exact(2, 5)

    def test_non_increasing_in_m(self):
        for n_copies in range(1, 7):
            values = [
                clone_fidelity_exact(n_copies, m)
                for m in range(n_copies, 129)
                if (m - n_copies) % 2 == 0
            ]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestCloneFidelityAsymptotics:
    def test_large_m_single_input(self):
        # N=1: (sqrt(1/2)+sqrt(1/2))^2 = 2 exactly
        for m in (11, 101):
            assert clone_fidelity_large_m(1, m) == pytest.approx(
                2.0 * central_binomial_weight(m), rel=1e-12
            )

    def test_large_m_close_to_exact(self):
        exact = clone_fidelity_exact(2, 4096)
        approx = clone_fidelity_large_m(2, 4096)
        assert approx == pytest.approx(2.914213562 * central_binomial_weight(4096), rel=1e-9)
        assert abs(approx - exact) / exact <= 1e-3

    def test_large_n_closed_values(self):
        assert clone_fidelity_large_n(7, 7) == pytest.approx(1.0)
        assert clone_fidelity_large_n(200, 400) == pytest.approx(0.9428090415820634)

    def test_large_n_close_to_exact(self):
        exact = clone_fidelity_exact(400, 800)
        assert abs(clone_fidelity_large_n(400, 800) - exact) / exact <= 0.02

    def test_closed_forms_past_the_window_bound(self):
        # No M-lattice is formed, so copy numbers past spin._MAX_WINDOW_COPIES run.
        m_copies = 10**10
        assert clone_fidelity_large_n(2, m_copies) == math.sqrt(8.0 * m_copies) / (m_copies + 2)


class TestOutcomeDensityFourier:
    def test_single_copy(self):
        density = outcome_density_fourier(1)
        assert len(density) == 2
        assert density[0] == pytest.approx(1.0)
        assert density[1] == pytest.approx(0.5)

    @pytest.mark.parametrize("n_copies", [1, 2, 4, 7, 64, 256, 1000, 2048])
    def test_equals_per_lag_dot_products(self, n_copies):
        # The same sums as one np.dot per lag over the window's sqrt weights,
        # bit for bit at these N, so the printed digits do not move.  (At N = 5
        # lag 0 is one ulp apart.)
        sb = np.exp(0.5 * log_binomial_weight(n_copies, binomial_window(n_copies)))
        per_lag = [np.dot(sb[: len(sb) - k], sb[k:]) for k in range(len(sb))]
        assert np.array_equal(outcome_density_fourier(n_copies), per_lag)

    @pytest.mark.parametrize("n_copies", [1, 2, 3, 8, 31])
    def test_zero_lag_is_one(self, n_copies):
        assert outcome_density_fourier(n_copies)[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_copies_hand_values(self):
        density = outcome_density_fourier(2)
        assert density[1] == pytest.approx(2 * math.sqrt(1 / 8), abs=1e-12)
        assert density[2] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n_copies", [1, 2, 3, 8, 31, 256])
    def test_density_nonnegative_on_grid(self, n_copies):
        a = outcome_density_fourier(n_copies)
        top = int(binomial_window(n_copies)[-1])  # the window's doubled labels -T .. T
        assert len(a) == top + 1
        theta = np.linspace(-math.pi, math.pi, 4 * top + 1, endpoint=False)
        k = np.arange(1, top + 1)
        density = a[0] + 2.0 * np.cos(np.outer(theta, k)) @ a[1:]
        assert density.min() >= -1e-12


class TestSeedWindow:
    """The N side on binomial_window(N) against the whole lattice."""

    @pytest.mark.parametrize("n_copies", [10**3, 10**4, 10**5])
    def test_seed_matches_the_whole_lattice(self, n_copies):
        a = outcome_density_fourier(n_copies)
        assert len(a) == binomial_window(n_copies)[-1] + 1 < n_copies + 1
        # The whole-lattice spectrum, one np.dot per lag.
        whole = _lag_products_by_dot(sqrt_binomial_weights(n_copies), len(a) - 1)
        # At most one ulp of 1 (2.22e-16; a_0 = 1 to 1.4e-10) at these N.
        assert np.max(np.abs(a - whole)) <= np.finfo(float).eps

    @pytest.mark.parametrize("n_copies", [10**3, 10**4, 10**5])
    def test_dropped_coefficients_are_below_the_bound(self, n_copies):
        # A lag beyond T pairs a label outside the window with one anywhere, so
        # a_k <= 2 (sum of the sqrt weights left out) max sqrt(b) for k > T.
        sb = sqrt_binomial_weights(n_copies)
        left_out = ~np.isin(dicke_twice(n_copies), binomial_window(n_copies))
        bound = 2.0 * math.fsum(sb[left_out]) * sb.max()
        assert bound <= 2.2e-16 * outcome_density_fourier(n_copies)[0]
        if n_copies <= 10**4:  # and the whole-lattice coefficients themselves
            whole = np.correlate(sb, sb, "full")[n_copies:]
            assert np.max(whole[len(outcome_density_fourier(n_copies)) :]) <= 2.2e-16 * whole[0]

    @pytest.mark.parametrize("n_copies", [10**3, 10**4, 10**5])
    def test_clone_fidelity_matches_the_whole_lattice(self, n_copies):
        twice = dicke_twice(n_copies)
        for m_copies in (n_copies, 2 * n_copies, 10 * n_copies + 2, 10**7):
            root = np.exp(0.5 * (log_binomial_weight(n_copies, twice)
                                 + log_binomial_weight(m_copies, twice)))
            whole = math.fsum(root) ** 2
            assert clone_fidelity_exact(n_copies, m_copies) == pytest.approx(whole, rel=1e-15)


def _lag_products_by_dot(v, max_lag):
    """The autocorrelation lag by lag: one np.dot per lag."""
    lags = range(min(max_lag, len(v) - 1) + 1)
    return np.array([np.dot(v[: len(v) - k], v[k:]) for k in lags])


class TestLagProducts:
    # (labels, max_lag): one label; lag 0 only; the last lag; lags past the
    # end; lags in between, among them the lambda = 1 qubit ansatz window at
    # M = 4096 (825 labels) under an N = 256 seed.
    @pytest.mark.parametrize("size, max_lag", [(1, 0), (1, 5), (40, 0), (40, 39), (40, 41),
                                               (40, 1000), (40, 17), (319, 48), (825, 256)])
    def test_matches_one_dot_per_lag(self, size, max_lag):
        rng = np.random.default_rng(size + max_lag)
        v = rng.random(size) * np.exp(-((np.arange(size) - size / 2.0) / size) ** 2)
        r = _lag_products(v, max_lag)
        reference = _lag_products_by_dot(v, max_lag)
        assert len(r) == min(max_lag, size - 1) + 1
        assert np.all(np.abs(r - reference) <= 1e-15 * reference[0])


class TestPreparedStateAnsatz:
    def test_lambda_one_is_naive_copies(self):
        state = prepared_state_ansatz(6, 1.0)
        assert list(state.twice) == [-6, -4, -2, 0, 2, 4, 6]
        assert state.p == pytest.approx(
            [1 / 64, 6 / 64, 15 / 64, 20 / 64, 15 / 64, 6 / 64, 1 / 64]
        )

    def test_cutoff_rounding(self):
        assert ansatz_cutoff(4096, 64.0) == (64, False)
        state = prepared_state_ansatz(4096, 64.0)
        assert state.twice[0] == -64 and state.twice[-1] == 64

    def test_odd_parity_floor(self):
        assert ansatz_cutoff(7, 7.0) == (1, False)
        state = prepared_state_ansatz(7, 7.0)
        assert list(state.twice) == [-1, 1]
        assert state.p == pytest.approx([0.5, 0.5])

    def test_even_parity_clamp(self):
        k, clamped = ansatz_cutoff(4, 4.0)
        assert (k, clamped) == (2, True)

    def test_lambda_below_one_rejected(self):
        with pytest.raises(DomainError):
            prepared_state_ansatz(8, 0.5)

    def test_nan_lambda_rejected(self):
        with pytest.raises(DomainError):
            ansatz_cutoff(8, float("nan"))

    @pytest.mark.parametrize("n_copies, m_copies", [(2, 4096), (5, 4097), (64, 100000)])
    def test_naive_state_on_its_window(self, n_copies, m_copies):
        # lambda = 1 keeps ~13 sqrt(M) labels; the full lattice gives the same fidelity.
        state = prepared_state_ansatz(m_copies, 1.0)
        assert len(state.p) < m_copies / 4
        twice = dicke_twice(m_copies)
        p = np.exp(log_binomial_weight(m_copies, twice))
        full = PreparedState("qubit", M=m_copies, twice=twice, p=p / np.sum(p))
        assert mp_fidelity_exact(n_copies, m_copies, state) == pytest.approx(
            mp_fidelity_exact(n_copies, m_copies, full), rel=1e-14
        )

    def test_weights_sum_to_one(self):
        for m, lam in [(4096, 1.0), (4096, 64.0), (101, 3.0)]:
            state = prepared_state_ansatz(m, lam)
            assert float(np.sum(state.p)) == pytest.approx(1.0, abs=1e-14)


class TestPreparedStateQubit:
    def test_sparse_support_embedded_densely(self):
        state = PreparedState("qubit", M=4, twice=np.array([-4, 4]), p=np.array([0.5, 0.5]))
        assert list(state.twice) == [-4, -2, 0, 2, 4]
        assert list(state.p) == [0.5, 0.0, 0.0, 0.0, 0.5]

    def test_point_mass(self):
        state = PreparedState("qubit", M=8, twice=np.array([0]), p=np.array([1.0]))
        assert list(state.twice) == [0] and list(state.p) == [1.0]

    def test_mismatched_parity_rejected(self):
        with pytest.raises(DomainError):
            PreparedState("qubit", M=4, twice=np.array([1]), p=np.array([1.0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            PreparedState("qubit", M=2, twice=np.array([0]), p=np.array([0.9]))


class TestMpFidelityExact:
    def test_single_copy_naive(self):
        # a = (1/2, 1, 1/2), c = (1/4, 1/2, 1/4): sum a_k c_{-k} = 3/4
        state = prepared_state_ansatz(1, 1.0)
        assert mp_fidelity_exact(1, 1, state) == pytest.approx(0.75, abs=1e-12)

    def test_never_beats_optimal_cloner(self):
        for n_copies in range(1, 7):
            for m_copies in range(n_copies, 65, 2):
                if (m_copies - n_copies) % 2:
                    continue
                f_clon = clone_fidelity_exact(n_copies, m_copies)
                for lam in (1.0, 2.0, 4.0):
                    state = prepared_state_ansatz(m_copies, lam)
                    assert mp_fidelity_exact(n_copies, m_copies, state) <= f_clon + 1e-12

    def test_large_amplification_ratio(self):
        state = prepared_state_ansatz(4096, 64.0)
        fidelity = mp_fidelity_exact(2, 4096, state)
        assert fidelity / clone_fidelity_exact(2, 4096) >= 0.95

    def test_matches_quadrature_oracle(self):
        state = prepared_state_ansatz(4096, 64.0)
        fidelity = mp_fidelity_exact(2, 4096, state)
        oracle = phase_quadrature_fidelity(2, 4096, state, phase_nodes_required(2, 4096))
        assert fidelity == pytest.approx(oracle, abs=1e-10)

    def test_equivalence_ratio_grows_with_sqrt_m_rule(self):
        ratios = [
            mp_fidelity_exact(2, m, prepared_state_ansatz(m, math.sqrt(m)))
            / clone_fidelity_exact(2, m)
            for m in (256, 1024, 4096)
        ]
        assert ratios[0] <= ratios[1] <= ratios[2]
        assert ratios[2] >= 0.95

    def test_mismatched_m_rejected(self):
        with pytest.raises(DomainError):
            mp_fidelity_exact(1, 2, prepared_state_ansatz(4, 1.0))

    def test_entangled_state_rejected(self):
        with pytest.raises(DomainError):
            mp_fidelity_exact(2, 4, prepared_state_ansatz_ent(4, 1.0))


class TestPTrue:
    def test_small_values(self):
        assert p_true(1) == pytest.approx(2.0, abs=1e-12)
        assert p_true(2) == pytest.approx(2.914213562373095, abs=1e-12)
        assert p_true(2) == pytest.approx(p_true_oracle(2), abs=1e-12)

    def test_large_n_matches_moment_formula(self):
        assert p_true(100) == pytest.approx(math.sqrt(2 * math.pi * 100), rel=0.03)


class TestSqrtBinomialMoments:
    def test_moments_at_100(self):
        s1 = sqrt_binomial_sum(100)
        s2 = sqrt_binomial_second_moment(100)
        assert s1 == pytest.approx((2 * math.pi * 100) ** 0.25, rel=0.03)
        assert s2 == pytest.approx((2 * math.pi * 100) ** 0.25 * 50, rel=0.05)
