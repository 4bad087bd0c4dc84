import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import (
    DomainError,
    PreparedState,
    cg_overlap_count,
    eco_clone_fidelity_exact,
    eco_clone_fidelity_large_m,
    eco_clone_fidelity_large_n,
    mp_fidelity_exact_ent,
    prepared_state_ansatz,
    prepared_state_ansatz_ent,
)
from clonebench.entangled import (
    _char_square,
    p_true_ent,
    prepared_char_polynomial,
    seed_char_square,
)
from clonebench.quadrature import _char_values
from clonebench.spin import (
    _SQRT_FLOOR,
    central_binomial_weight,
    irrep_window,
    log_irrep_weight,
    sqrt_irrep_weights,
    total_spin_twice,
)
from _oracles import eco_clone_fidelity_oracle, frac_irrep_weight, mp_fidelity_ent_oracle


class TestEcoCloneFidelityExact:
    @pytest.mark.parametrize("n_copies", [1, 2, 4, 7])
    def test_identity_amplification(self, n_copies):
        assert eco_clone_fidelity_exact(n_copies, n_copies) == pytest.approx(1.0, abs=1e-13)

    def test_two_to_four(self):
        oracle = eco_clone_fidelity_oracle(2, 4)
        assert oracle == pytest.approx(0.6827646633859229, abs=1e-14)
        assert eco_clone_fidelity_exact(2, 4) == pytest.approx(oracle, abs=1e-12)

    def test_one_to_three(self):
        # c_{1/2}^{(1)} = 1, c_{1/2}^{(3)} = 2*2/8 = 1/2
        assert eco_clone_fidelity_exact(1, 3) == pytest.approx(0.5, abs=1e-13)

    @pytest.mark.parametrize("pair", [(2, 8), (3, 9), (4, 24), (5, 41)])
    def test_against_rational_oracle(self, pair):
        assert eco_clone_fidelity_exact(*pair) == pytest.approx(
            eco_clone_fidelity_oracle(*pair), rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eco_clone_fidelity_exact(4, 2)
        with pytest.raises(DomainError):
            eco_clone_fidelity_exact(2, 5)


class TestEcoCloneAsymptotics:
    def test_large_m_close_to_exact_even(self):
        exact = eco_clone_fidelity_exact(2, 4096)
        assert abs(eco_clone_fidelity_large_m(2, 4096) - exact) / exact <= 1e-2

    def test_large_m_close_to_exact_odd(self):
        exact = eco_clone_fidelity_exact(1, 4097)
        assert abs(eco_clone_fidelity_large_m(1, 4097) - exact) / exact <= 1e-2

    def test_prefactor_decays(self):
        values = [2 * central_binomial_weight(m) / m for m in (64, 256, 1024, 4096)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_large_n_closed_values(self):
        assert eco_clone_fidelity_large_n(5, 20) == pytest.approx(1.0)
        assert eco_clone_fidelity_large_n(60, 600) == pytest.approx(0.25298221281347033)

    def test_large_n_tracks_untruncated_gaussian(self):
        # The closed form drops the (1+N/M)^-3 factor of the underlying
        # integral, so compare against the exact sum only after restoring it.
        exact = eco_clone_fidelity_exact(60, 600)
        restored = eco_clone_fidelity_large_n(60, 600) / (1 + 60 / 600) ** 3
        assert abs(restored - exact) / exact <= 0.02


class TestCgOverlapCount:
    def test_trivial_irrep(self):
        assert cg_overlap_count(0, 0, 0, 0) == 1

    def test_half_spin_self_overlap(self):
        assert cg_overlap_count(0.5, 0.5, 0.5, 0.5) == 2

    def test_mixed_pair(self):
        assert cg_overlap_count(0.5, 0.5, 1, 1) == 2

    def test_lattice_mismatch_gives_zero(self):
        assert cg_overlap_count(0, 0, 0.5, 0.5) == 1  # both series are integer lattices
        assert cg_overlap_count(0.5, 0, 1, 1) == 0  # half-integer vs integer

    def test_character_orthonormality(self):
        for t1 in range(13):
            for t2 in range(13):
                expected = 1 if t1 == t2 else 0
                assert cg_overlap_count(t1 / 2, t2 / 2, 0, 0) == expected

    def test_negative_spin_rejected(self):
        with pytest.raises(DomainError):
            cg_overlap_count(-0.5, 0.5, 0, 0)

    def test_scalar_labels_give_an_int(self):
        assert type(cg_overlap_count(1.5, 2, 0.5, 3)) is int

    def test_array_matches_scalar_on_the_full_grid(self):
        t = np.indices((13,) * 4).reshape(4, -1)
        counts = cg_overlap_count(*t / 2)
        assert counts.shape == (13**4,)
        for k, quadruple in enumerate(t.T):
            assert counts[k] == cg_overlap_count(*(int(x) / 2 for x in quadruple))

    @pytest.mark.parametrize("bad", [-0.5, 0.3, float("nan")])
    @pytest.mark.parametrize("position", range(4))
    def test_bad_array_entry_rejected(self, bad, position):
        labels = [np.array([0.0, 1.0, 2.5]) for _ in range(4)]
        labels[position][1] = bad
        with pytest.raises(DomainError):
            cg_overlap_count(*labels)


class TestPreparedStateAnsatzEnt:
    def test_lambda_one_is_naive_copies(self):
        state = prepared_state_ansatz_ent(2, 1.0)
        assert list(state.twice) == [0, 2]
        assert state.p == pytest.approx([0.25, 0.75])

    def test_cutoff_rounding(self):
        state = prepared_state_ansatz_ent(2048, 64.0)
        assert state.twice[-1] == 32  # K = 32, top block j = 16

    def test_odd_parity_floor(self):
        state = prepared_state_ansatz_ent(9, 9.0)
        assert list(state.twice) == [1]
        assert state.p == pytest.approx([1.0])

    def test_weights_sum_to_one(self):
        state = prepared_state_ansatz_ent(2048, 1.0)
        assert float(np.sum(state.p)) == pytest.approx(1.0, abs=1e-14)

    def test_lambda_below_one_rejected(self):
        with pytest.raises(DomainError):
            prepared_state_ansatz_ent(8, 0.0)


_WINDOW_SIZES = [*range(1, 301), 4095, 4096, 16385, 10**5, 10**5 + 1]


class TestAnsatzWindow:
    @pytest.mark.parametrize("k", _WINDOW_SIZES)
    def test_holds_every_weight_above_the_floor(self, k):
        # Against the full j-lattice: the labels left out carry c_j <= eps^2 c_max,
        # and at most 4 eps^2 / (K + 2) of the mass.
        twice = total_spin_twice(k)
        c = np.exp(log_irrep_weight(k, twice))
        kept = prepared_state_ansatz_ent(k, 1.0).twice
        assert kept[0] == twice[0] and np.all(np.diff(kept) == 2)
        left_out = twice > kept[-1]
        assert np.all(c[left_out] <= _SQRT_FLOOR**2 * c.max())
        assert math.fsum(c[left_out]) <= 4 * _SQRT_FLOOR**2 / (k + 2)

    @pytest.mark.parametrize("k, kept", [(4096, 453), (10**5, 2319)])
    def test_window_sizes(self, k, kept):
        assert len(prepared_state_ansatz_ent(k, 1.0).twice) == kept

    def test_weights_are_those_of_the_full_lattice(self):
        # The dropped mass is below double precision, so the normalized weights agree.
        state = prepared_state_ansatz_ent(4096, 1.0)
        c = np.exp(log_irrep_weight(4096, total_spin_twice(4096)))
        full = (c / np.sum(c))[: len(state.p)]
        assert np.allclose(state.p, full, rtol=1e-14, atol=0)


class TestSeedWindow:
    """The N side on spin.irrep_window(N) against the whole j-lattice."""

    @pytest.mark.parametrize("n_copies", [10**3, 10**4, 10**5])
    def test_seed_matches_the_whole_lattice(self, n_copies):
        seed = seed_char_square(n_copies)
        assert len(seed) == irrep_window(n_copies)[-1] + 1 < n_copies + 1
        # The whole-lattice seed: _char_square over every label, to J = N.
        whole = _char_square(sqrt_irrep_weights(n_copies), n_copies)[: len(seed)]
        assert np.max(np.abs(seed - whole)) <= 2.2e-20 * seed[0]

    @pytest.mark.parametrize("n_copies", [10**3, 10**4, 10**5])
    def test_dropped_coefficients_are_below_the_bound(self, n_copies):
        # A chi_J with J > T comes only from pairs with a label outside the
        # window, so A_J <= 2 (sum of the sqrt weights left out) (sum of all).
        # (The whole-lattice prefix sum itself reads ~1e-14 of cancellation
        # noise there, so the bound is taken from the weights.)
        twice_j, sqrt_c = sqrt_irrep_weights(n_copies)
        left_out = twice_j > irrep_window(n_copies)[-1]
        bound = 2.0 * math.fsum(sqrt_c[left_out]) * math.fsum(sqrt_c)
        assert bound <= 2.2e-20 * seed_char_square(n_copies)[0]

    @pytest.mark.parametrize("n_copies", [10**3, 10**4, 10**5])
    def test_clone_fidelity_matches_the_whole_lattice(self, n_copies):
        twice_j = total_spin_twice(n_copies)
        for m_copies in (n_copies, 2 * n_copies, 10 * n_copies + 2, 10**7):
            root = np.exp(0.5 * (log_irrep_weight(n_copies, twice_j)
                                 + log_irrep_weight(m_copies, twice_j)))
            whole = math.fsum(root) ** 2
            assert eco_clone_fidelity_exact(n_copies, m_copies) == pytest.approx(whole, rel=1e-15)


def _char_square_by_lag(poly, j_max):
    """The square lag by lag: one slice product per lag, its series ends in a difference array."""
    twice, alpha = poly
    diff = np.zeros(j_max + 2)
    for k in range(min(len(alpha), j_max + 1)):
        products = alpha[: len(alpha) - k] * alpha[k:]
        if k:
            products *= 2.0
        diff[k] += products.sum()
        ending = np.searchsorted(twice[: len(products)], j_max - k)
        diff[twice[:ending] + k + 1] -= products[:ending]
    return np.cumsum(diff[: j_max + 1])


class TestCharSquare:
    # (j_max, labels): (2048, 2319) is the lambda = 1 window at M = 10^5 under
    # an N = 2048 seed.  The square is quadratic in the weights, so the bound
    # relative to the largest coefficient holds at every weight scale.
    @pytest.mark.parametrize("j_max, size", [(2, 2049), (64, 129), (2048, 2319), (48, 318),
                                             (7, 1), (1, 2)])
    @pytest.mark.parametrize("scale", [2**16, 1000, 1])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_matches_the_lag_loop(self, j_max, size, scale, parity):
        rng = np.random.default_rng(size + j_max)
        twice = np.arange(parity, parity + 2 * size, 2)
        alpha = rng.random(size) * np.exp(-(twice / (2.0 * size)) ** 2)
        seed_twice, seed_alpha = sqrt_irrep_weights(j_max)
        for poly in ((twice, scale * alpha), (seed_twice, scale * seed_alpha)):
            square = _char_square(poly, j_max)
            reference = _char_square_by_lag(poly, j_max)
            # Coefficients near j_max cancel to ~1e-16 of the largest, so the
            # error is relative to that.
            assert np.all(np.abs(square - reference) <= 1e-15 * np.abs(reference).max())

    # (first doubled label, labels, j_max): the first label at or above j_max,
    # so no series ends below j_max, and a single label at j_max = 0.
    @pytest.mark.parametrize("first, size, j_max", [(6, 4, 3), (9, 3, 4), (5, 2, 5), (4, 5, 4),
                                                    (0, 1, 0), (1, 1, 0), (10, 1, 0), (7, 1, 0)])
    def test_no_series_end_below_j_max(self, first, size, j_max):
        twice = np.arange(first, first + 2 * size, 2)
        alpha = np.linspace(1.0, 0.5, size)
        square = _char_square((twice, alpha), j_max)
        reference = _char_square_by_lag((twice, alpha), j_max)
        assert len(square) == j_max + 1
        assert np.all(np.abs(square - reference) <= 1e-15 * np.abs(reference).max())

    def test_sparse_support_matches_the_lag_loop(self):
        # A support that starts above j_min and has a zero weight inside.
        state = PreparedState("entangled", M=40, twice=[6, 8, 12, 14], p=[0.4, 0.1, 0.2, 0.3])
        poly = prepared_char_polynomial(state)
        for j_max in (1, 3, 8, 40):
            assert np.allclose(_char_square(poly, j_max), _char_square_by_lag(poly, j_max),
                               rtol=1e-15, atol=1e-17)


class TestMpFidelityExactEnt:
    def test_single_copy_naive(self):
        state = prepared_state_ansatz_ent(1, 1.0)
        assert mp_fidelity_exact_ent(1, 1, state) == pytest.approx(0.5, abs=1e-12)

    def test_never_beats_economical_cloner(self):
        for n_copies in range(1, 5):
            for m_copies in range(n_copies, 41):
                if (m_copies - n_copies) % 2:
                    continue
                bound = eco_clone_fidelity_exact(n_copies, m_copies)
                for lam in (1.0, 2.0, 4.0):
                    state = prepared_state_ansatz_ent(m_copies, lam)
                    value = mp_fidelity_exact_ent(n_copies, m_copies, state)
                    assert value <= bound + 1e-12

    def test_large_amplification_ratio(self):
        state = prepared_state_ansatz_ent(2048, 64.0)
        value = mp_fidelity_exact_ent(2, 2048, state)
        assert value / eco_clone_fidelity_exact(2, 2048) >= 0.9

    def test_seed_density_normalized(self):
        # sum over j1, j2 of sqrt(c c) [j1 == j2] collapses to sum_j c_j = 1
        for n_copies in range(1, 31):
            twice_j, sqrt_c = sqrt_irrep_weights(n_copies)
            total = sum(
                float(sqrt_c[i] * sqrt_c[k])
                * cg_overlap_count(twice_j[i] / 2, twice_j[k] / 2, 0, 0)
                for i in range(len(twice_j))
                for k in range(len(twice_j))
            )
            assert abs(total - 1.0) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        n_copies=st.integers(1, 8),
        extra=st.integers(0, 12),
        lam=st.floats(1.0, 64.0),
    )
    def test_matches_quadruple_sum(self, n_copies, extra, lam):
        m_copies = n_copies + 2 * extra
        state = prepared_state_ansatz_ent(m_copies, lam)
        value = mp_fidelity_exact_ent(n_copies, m_copies, state)
        assert math.isfinite(value) and 0.0 <= value <= 1.0
        assert value <= eco_clone_fidelity_exact(n_copies, m_copies)
        assert value == pytest.approx(mp_fidelity_ent_oracle(n_copies, state), rel=1e-13)

    def test_hand_built_state_matches_quadruple_sum(self):
        # a support that starts above j_min and has a gap inside
        state = PreparedState("entangled", M=14, twice=[4, 6, 10], p=[0.5, 0.2, 0.3])
        for n_copies in (1, 2, 5, 6):
            assert mp_fidelity_exact_ent(n_copies, 14, state) == pytest.approx(
                mp_fidelity_ent_oracle(n_copies, state), rel=1e-13
            )

    def test_naive_row_at_large_m_stays_small(self):
        state = prepared_state_ansatz_ent(4096, 1.0)
        tracemalloc.start()
        try:
            mp_fidelity_exact_ent(2, 4096, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_wide_seed_at_large_m_stays_small(self):
        state = prepared_state_ansatz_ent(10**5, 1.0)
        tracemalloc.start()
        try:
            mp_fidelity_exact_ent(2048, 10**5, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_mismatched_m_rejected(self):
        with pytest.raises(DomainError):
            mp_fidelity_exact_ent(1, 3, prepared_state_ansatz_ent(5, 1.0))

    def test_qubit_state_rejected(self):
        with pytest.raises(DomainError):
            mp_fidelity_exact_ent(2, 4, prepared_state_ansatz(4, 1.0))


class TestPTrueEnt:
    def test_single_copy(self):
        assert p_true_ent(1) == pytest.approx(4.0, abs=1e-12)

    def test_two_copies(self):
        # (1/2 + 3 sqrt(3)/2)^2
        assert p_true_ent(2) == pytest.approx(9.598076211353316, abs=1e-10)

    def test_monotone_growth(self):
        assert p_true_ent(20) > p_true_ent(10) > 0


class TestCharPolynomials:
    def test_seed_matches_block_weights_at_identity_limit(self):
        # chi_j(phi) -> d_j as phi -> 0, so the seed polynomial tends to p_true^(1/2)
        phi = np.array([1e-6])
        value = _char_values(sqrt_irrep_weights(4), phi)[0]
        assert value == pytest.approx(math.sqrt(p_true_ent(4)), rel=1e-6)

    def test_prepared_polynomial_normalization(self):
        # the Haar average of |prepared|^2 is the average-state expectation sum_j p_j c_j / d_j^2
        state = prepared_state_ansatz_ent(6, 2.0)
        poly = prepared_char_polynomial(state)
        nodes = 64
        phi = (np.arange(nodes) + 0.5) * math.pi / nodes
        integral = 2.0 / nodes * float(np.sum(_char_values(poly, phi) ** 2 * np.sin(phi) ** 2))
        expected = sum(p * float(frac_irrep_weight(6, int(t))) / (t + 1) ** 2
                       for t, p in zip(state.twice, state.p))
        assert integral == pytest.approx(expected, abs=1e-12)
