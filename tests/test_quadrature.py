import random
import tracemalloc
import warnings

import pytest

from clonebench import (
    DomainError,
    QuadratureWarning,
    mp_fidelity_exact,
    mp_fidelity_exact_ent,
    phase_nodes_required,
    phase_quadrature_fidelity,
    prepared_state_ansatz,
    prepared_state_ansatz_ent,
    su2_nodes_required,
    su2_quadrature_fidelity_ent,
    weyl_quadrature_char4,
)
import numpy as np

from clonebench import PreparedState
from _oracles import phase_quadrature_reference


class TestQuadratureSpec:
    def test_validation(self):
        """Every oracle rejects fewer than 3 nodes."""
        qubit, ent = prepared_state_ansatz(1, 1.0), prepared_state_ansatz_ent(1, 1.0)
        for nodes in (2, 0):
            with pytest.raises(DomainError):
                phase_quadrature_fidelity(1, 1, qubit, nodes)
            with pytest.raises(DomainError):
                su2_quadrature_fidelity_ent(1, 1, ent, nodes)
            with pytest.raises(DomainError):
                weyl_quadrature_char4(0, 0, 0, 0, nodes)


class TestPhaseQuadrature:
    def test_single_copy_naive_nine_nodes(self):
        state = prepared_state_ansatz(1, 1.0)
        assert phase_quadrature_fidelity(1, 1, state, 9) == pytest.approx(0.75, abs=1e-12)

    def test_node_count_independence_beyond_threshold(self):
        state = prepared_state_ansatz(12, 2.0)
        base = phase_quadrature_fidelity(3, 12, state, phase_nodes_required(3, 12))
        for extra in (7, 64, 301):
            again = phase_quadrature_fidelity(
                3, 12, state, phase_nodes_required(3, 12) + extra
            )
            assert again == pytest.approx(base, abs=1e-12)

    def test_agrees_with_convolution_evaluator(self):
        state = prepared_state_ansatz(64, 4.0)
        quad = phase_quadrature_fidelity(2, 64, state, 261)
        assert quad == pytest.approx(mp_fidelity_exact(2, 64, state), abs=1e-10)

    def test_coarse_grid_warns(self):
        state = prepared_state_ansatz(8, 1.0)
        with pytest.warns(QuadratureWarning):
            phase_quadrature_fidelity(2, 8, state, 5)


class TestPhaseQuadratureByFFT:
    """The folded-FFT rule against the node-by-node sum it replaced."""

    def test_matches_the_node_sum(self):
        rng = random.Random(2024)
        parities, folded, worst = set(), 0, 0.0
        for _ in range(600):
            n_copies = rng.randint(1, 6)
            m_copies = rng.randint(n_copies, 262)
            state = prepared_state_ansatz(m_copies, rng.choice([1.0, 2.0, 4.0, 8.0]))
            parities.add((n_copies % 2, m_copies % 2))
            for nodes in (phase_nodes_required(n_copies, m_copies), 40, 1001):
                folded += len(state.p) > nodes
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", QuadratureWarning)
                    value = phase_quadrature_fidelity(n_copies, m_copies, state, nodes)
                reference = phase_quadrature_reference(n_copies, m_copies, state, nodes)
                worst = max(worst, abs(value - reference))
        assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert folded >= 100
        assert worst <= 1e-15

    @pytest.mark.parametrize("nodes", [3, 4, 5])
    def test_seed_longer_than_the_nodes(self, nodes):
        state = prepared_state_ansatz(9, 2.0)
        with pytest.warns(QuadratureWarning):
            value = phase_quadrature_fidelity(6, 9, state, nodes)
        reference = phase_quadrature_reference(6, 9, state, nodes)
        assert abs(value - reference) <= 1e-15

    def test_many_nodes_in_little_memory(self):
        # The full 257-label support: the node-by-node sum over 1024-node
        # blocks peaks at ~8.8 MB here, the FFT at ~4.6 MB.
        state = prepared_state_ansatz(256, 1.0)
        tracemalloc.start()
        try:
            value = phase_quadrature_fidelity(6, 256, state, 100000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(value - mp_fidelity_exact(6, 256, state)) <= 1e-14
        assert peak <= 8 * 2**20


class TestWeylQuadrature:
    def test_haar_normalization(self):
        assert weyl_quadrature_char4(0, 0, 0, 0, 16) == pytest.approx(1.0, abs=1e-12)

    def test_half_spin_self_overlap(self):
        assert weyl_quadrature_char4(0.5, 0.5, 0.5, 0.5, 40) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("twice_j", range(0, 13))
    def test_character_orthonormality(self, twice_j):
        j = twice_j / 2
        value = weyl_quadrature_char4(j, j, 0, 0, 4 * twice_j + 8)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_coarse_grid_warns(self):
        with pytest.warns(QuadratureWarning):
            weyl_quadrature_char4(2, 2, 2, 2, 10)

    def test_scalar_labels_give_a_float(self):
        assert type(weyl_quadrature_char4(1.5, 2, 0.5, 3, 36)) is float


def _grid():
    """Every quadruple of doubled labels 0..12, as a (4, 13**4) int array."""
    return np.indices((13,) * 4).reshape(4, -1)


class TestWeylQuadratureArrays:
    def test_array_matches_scalar_calls(self):
        t = _grid()[:, ::37]
        nodes = 2 * t.sum(axis=0) + 8
        assert t.shape[1] >= 700
        for group_nodes in np.unique(nodes):
            group = t[:, nodes == group_nodes]
            values = weyl_quadrature_char4(*group / 2, int(group_nodes))
            assert values.shape == (group.shape[1],)
            for value, quadruple in zip(values, group.T):
                scalar = weyl_quadrature_char4(*(int(x) / 2 for x in quadruple),
                                               int(group_nodes))
                assert abs(value - scalar) <= 1e-14

    # 619 multisets: 104 nodes take one gathered call, 1024 ten blocks of at most 64.
    @pytest.mark.parametrize("nodes", [104, 1024])
    def test_label_order_does_not_move_a_bit(self, nodes):
        # Each quadruple is summed once per multiset of labels, in a fixed order,
        # so every permutation of the labels gives the same double.
        t = _grid()[:, ::37]
        values = weyl_quadrature_char4(*t / 2, nodes)
        for perm in ((3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)):
            assert np.array_equal(weyl_quadrature_char4(*t[list(perm)] / 2, nodes), values)

    def test_keeps_the_label_shape(self):
        j = np.full((2, 3), 0.5)
        values = weyl_quadrature_char4(j, j, j, j, 40)
        assert values.shape == (2, 3)
        assert values == pytest.approx(np.full((2, 3), 2.0), abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.5, 0.3, float("nan")])
    @pytest.mark.parametrize("position", range(4))
    def test_bad_array_entry_rejected(self, bad, position):
        labels = [np.array([0.0, 1.0, 2.5]) for _ in range(4)]
        labels[position][1] = bad
        with pytest.raises(DomainError):
            weyl_quadrature_char4(*labels, 64)

    @pytest.mark.parametrize("nodes", [2, 0])
    def test_too_few_nodes_rejected(self, nodes):
        j = np.zeros(3)
        with pytest.raises(DomainError):
            weyl_quadrature_char4(j, j, j, j, nodes)

    def test_one_member_below_threshold_warns(self):
        j = np.array([0.0, 2.0])  # thresholds 8 and 40
        with pytest.warns(QuadratureWarning):
            weyl_quadrature_char4(j, j, j, j, 39)
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureWarning)
            weyl_quadrature_char4(j, j, j, j, 40)

    def test_node_count_per_quadruple_matches_one_call_per_count(self):
        # One call with each quadruple's own node count gives, bit for bit,
        # what one call per node count gives: 49 counts over all 13^4 quadruples.
        t = _grid()
        nodes = 2 * t.sum(axis=0) + 8
        values = weyl_quadrature_char4(*t / 2, nodes)
        counts = np.unique(nodes)
        assert len(counts) == 49
        for count in counts:
            group = nodes == count
            assert np.array_equal(values[group],
                                  weyl_quadrature_char4(*t[:, group] / 2, int(count)))

    def test_node_count_per_quadruple_keeps_label_order_out(self):
        t = _grid()[:, ::37]
        nodes = 2 * t.sum(axis=0) + 8 + np.arange(t.shape[1]) % 3
        values = weyl_quadrature_char4(*t / 2, nodes)
        for perm in ((3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)):
            assert np.array_equal(weyl_quadrature_char4(*t[list(perm)] / 2, nodes), values)

    @pytest.mark.parametrize("nodes, message", [
        ([8, 39, 16], "39 nodes is below the exactness threshold 40"),
        ([7, 39, 11], "11 nodes is below the exactness threshold 16"),  # the largest shortfall
    ])
    def test_one_warning_for_quadruples_below_their_own_threshold(self, nodes, message):
        j = np.array([0.0, 2.0, 0.5])  # thresholds 8, 40 and 16
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", QuadratureWarning)
            weyl_quadrature_char4(j, j, j, j, np.array(nodes))
        assert [str(w.message) for w in caught] == [message]
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureWarning)
            values = weyl_quadrature_char4(j, j, j, j, np.array([8, 40, 16]))
        assert values == pytest.approx([1.0, 5.0, 2.0], abs=1e-12)

    @pytest.mark.parametrize("nodes", [np.array([8, 2, 40]), np.array([8, 40]),
                                       np.array([8.0, 40.0, 12.0])])
    def test_bad_node_array_rejected(self, nodes):
        j = np.array([0.0, 2.0, 0.5])
        with pytest.raises(DomainError):
            weyl_quadrature_char4(j, j, j, j, nodes)

    def test_labels_too_wide_for_one_key(self):
        # 40001^4 labels by 8 node counts overflow an int64 key; such a batch
        # is ranked before the last fold, with the same per-row sums.
        t = np.array([[0, 2, 40000, 40000], [1, 3, 40000, 1], [0, 0, 39999, 1],
                      [1, 1, 1, 40000]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureWarning)
            values = weyl_quadrature_char4(*t / 2, 7)
            for k, quadruple in enumerate(t.T):
                assert values[k] == weyl_quadrature_char4(*t[:, k : k + 1] / 2, 7)[0]
                assert values[k] == pytest.approx(
                    weyl_quadrature_char4(*(int(x) / 2 for x in quadruple), 7), abs=1e-12)

    def test_wide_labels_keep_their_node_counts_apart(self):
        # With labels 2^16 - 1 the node count's place in a packed key is 2^64,
        # which wraps to 0: an unranked key would merge the 7- and 8-node rows.
        j = np.full((4, 2), (2**16 - 1) / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureWarning)
            values = weyl_quadrature_char4(*j, np.array([7, 8]))
            alone = [weyl_quadrature_char4(*j[:, :1], count)[0] for count in (7, 8)]
        assert values[0] != values[1]
        assert values.tolist() == alone

    def test_memory_is_bounded_by_the_chunk(self):
        # One group at 20000 nodes, as `oracle-check --nodes 20000` forms it.  A
        # Gram formed over the whole node axis at once needs > 16 MB per factor.
        j = _grid() / 2
        tracemalloc.start()
        try:
            weyl_quadrature_char4(*j, 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestSu2Quadrature:
    def test_single_copy_naive(self):
        state = prepared_state_ansatz_ent(1, 1.0)
        value = su2_quadrature_fidelity_ent(1, 1, state, 64)
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_point_mass_top_block(self):
        state = PreparedState("entangled", M=2, twice=np.array([2]), p=np.array([1.0]))
        quad = su2_quadrature_fidelity_ent(2, 2, state, 64)
        assert quad == pytest.approx(mp_fidelity_exact_ent(2, 2, state), abs=1e-9)

    def test_stable_under_node_doubling(self):
        state = prepared_state_ansatz_ent(12, 2.0)
        nodes = 2 * su2_nodes_required(4, 12)
        once = su2_quadrature_fidelity_ent(4, 12, state, nodes)
        twice = su2_quadrature_fidelity_ent(4, 12, state, 2 * nodes)
        assert twice == pytest.approx(once, abs=1e-11)

    def test_coarse_grid_warns(self):
        state = prepared_state_ansatz_ent(8, 1.0)
        with pytest.warns(QuadratureWarning):
            su2_quadrature_fidelity_ent(4, 8, state, 5)


class TestRandomizedAgreement:
    def test_oracles_match_closed_forms(self):
        rng = random.Random(99)
        for _ in range(50):
            n_copies = rng.randint(1, 4)
            m_copies = rng.randint(n_copies, 24)
            lam = rng.choice([1.0, 2.0, 4.0])
            state_q = prepared_state_ansatz(m_copies, lam)
            exact_q = mp_fidelity_exact(n_copies, m_copies, state_q)
            quad_q = phase_quadrature_fidelity(
                n_copies, m_copies, state_q, phase_nodes_required(n_copies, m_copies)
            )
            assert abs(exact_q - quad_q) < 1e-9

            state_e = prepared_state_ansatz_ent(m_copies, lam)
            exact_e = mp_fidelity_exact_ent(n_copies, m_copies, state_e)
            quad_e = su2_quadrature_fidelity_ent(
                n_copies, m_copies, state_e, 2 * su2_nodes_required(n_copies, m_copies)
            )
            assert abs(exact_e - quad_e) < 1e-9
