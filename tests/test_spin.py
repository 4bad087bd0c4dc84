import math
from fractions import Fraction

import numpy as np
import pytest

from clonebench import (
    DomainError,
    PreparedState,
    irrep_spectrum,
    mp_fidelity_exact,
    mp_fidelity_exact_ent,
)
from clonebench.spin import (
    _LOG_FACTORIALS,
    _MAX_WINDOW_COPIES,
    _doubled,
    _log_factorial,
    binomial_weight,
    binomial_window,
    central_binomial_weight,
    dicke_twice,
    log_binomial_weight,
    multiplicity,
    sqrt_binomial_weights,
    sqrt_irrep_weights,
    total_spin_twice,
)
from _oracles import exact_multiplicity, frac_binomial, frac_irrep_weight


class TestSpinIndex:
    """Coercion of half-integer spin labels to their doubled integers."""

    def test_of_accepts_half_integers(self):
        assert _doubled(1.5) == 3
        assert _doubled(-2) == -4
        assert _doubled(np.float64(2.5)) == 5
        assert type(_doubled(np.float64(2.5))) is int

    def test_of_rejects_non_half_integers(self):
        with pytest.raises(DomainError):
            _doubled(0.3)


class TestLattices:
    def test_dicke_lattice_parity(self):
        assert list(dicke_twice(3)) == [-3, -1, 1, 3]
        assert list(dicke_twice(2) / 2) == [-1.0, 0.0, 1.0]

    def test_total_spin_lattice_floor(self):
        assert list(total_spin_twice(4) / 2) == [0.0, 1.0, 2.0]
        assert list(total_spin_twice(3) / 2) == [0.5, 1.5]


class TestBinomialWindow:
    """The closed-form window holds every label whose weight can matter."""

    @pytest.mark.parametrize("n_copies", [*range(1, 65), 1023, 4096, 16385, 100000])
    @pytest.mark.parametrize("floor", [1e-34, 1e-8, 1e-300])
    def test_holds_every_weight_above_the_floor(self, n_copies, floor):
        window = binomial_window(n_copies, floor)
        full = dicke_twice(n_copies)
        log_b = log_binomial_weight(n_copies, full)
        heavy = full[log_b > math.log(floor) + log_b.max()]
        assert heavy[0] >= window[0] and heavy[-1] <= window[-1]
        assert np.isin(window, full).all()  # on the lattice
        assert window[0] == -window[-1]

    @pytest.mark.parametrize("n_copies", range(1, 65))
    def test_small_copy_numbers_keep_the_lattice(self, n_copies):
        assert np.array_equal(binomial_window(n_copies, 1e-34), dicke_twice(n_copies))

    def test_exact_weights_stay_inside(self):
        # Exact rationals, no log-gamma: b_{N,t} <= 1e-34 b_max just past the edge.
        for n_copies in (200, 1023, 1024):
            edge = int(binomial_window(n_copies, 1e-34)[-1]) + 2
            assert frac_binomial(n_copies, edge) * 10**34 <= frac_binomial(n_copies, n_copies % 2)

    def test_large_copy_numbers_keep_a_sqrt_window(self):
        assert len(binomial_window(100000, 1e-34)) == 4111
        assert len(binomial_window(10**8, 1e-34)) < 140000


class TestWindowCopyBound:
    def test_largest_supported_copy_number_is_accepted(self):
        assert binomial_window(_MAX_WINDOW_COPIES)[-1] < 140000

    @pytest.mark.parametrize("n_copies", [_MAX_WINDOW_COPIES + 1, 10**10, 10**14])
    def test_larger_copy_numbers_are_refused(self, n_copies):
        with pytest.raises(MemoryError, match="copies exceed"):
            binomial_window(n_copies)

    @pytest.mark.parametrize("family, evaluator", [("qubit", mp_fidelity_exact),
                                                   ("entangled", mp_fidelity_exact_ent)])
    def test_evaluators_refuse_larger_copy_numbers(self, family, evaluator):
        # Both form weights over the M-lattice on the state's labels, however few.
        m_copies = _MAX_WINDOW_COPIES + 2
        state = PreparedState(family, M=m_copies, twice=[0], p=[1.0])
        with pytest.raises(MemoryError, match="copies exceed"):
            evaluator(2, m_copies, state)
        state = PreparedState(family, M=_MAX_WINDOW_COPIES, twice=[0], p=[1.0])
        assert 0.0 < evaluator(2, _MAX_WINDOW_COPIES, state) < 1.0

    def test_closed_forms_are_not_bounded(self):
        # Only windowed weights are refused; the scalar forms form no M-lattice.
        # Their log-factorial differences keep ~5 digits at 10^10 (1.8e-5 relative off).
        assert central_binomial_weight(10**10) == pytest.approx(
            math.sqrt(2.0 / (math.pi * 10**10)), rel=1e-4
        )


class TestBinomialWeight:
    def test_trivial_values(self):
        assert binomial_weight(2, 0) == pytest.approx(0.5)  # C(2,1)/4
        assert binomial_weight(1, 0.5) == pytest.approx(0.5)
        assert binomial_weight(3, 0.5) == pytest.approx(3 / 8)

    @pytest.mark.parametrize("n_copies", list(range(1, 51)))
    def test_matches_integer_arithmetic_up_to_50(self, n_copies):
        for t in range(-n_copies, n_copies + 1, 2):
            exact = float(frac_binomial(n_copies, t))
            assert binomial_weight(n_copies, t / 2) == pytest.approx(exact, rel=1e-13)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(DomainError):
            binomial_weight(2, 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            binomial_weight(2, 2)

    @pytest.mark.parametrize("n_copies", list(range(1, 31)))
    def test_sum_is_one(self, n_copies):
        assert sum(frac_binomial(n_copies, t) for t in range(-n_copies, n_copies + 1, 2)) == 1
        total = math.fsum(binomial_weight(n_copies, t / 2) for t in range(-n_copies, n_copies + 1, 2))
        assert abs(total - 1.0) < 1e-14

    def test_central_weight_odd_even(self):
        assert central_binomial_weight(2) == pytest.approx(0.5)
        assert central_binomial_weight(3) == pytest.approx(3 / 8)

    @pytest.mark.parametrize("n_copies", [8193, 10001, 16385])
    def test_gammaln_branch_above_exact_comb_max(self, n_copies):
        # Above _EXACT_COMB_MAX the weight is a difference of Stirling-series
        # log-factorials, which loses ~1e-11 relative at these N (the worst
        # case here is 1.6e-11).
        # Loader's saddle-point form (ROADMAP item 2) would tighten this bound.
        for labels_out in (0, 20, 100):
            t = n_copies % 2 + 2 * labels_out
            exact = float(frac_binomial(n_copies, t))
            assert binomial_weight(n_copies, t / 2) == pytest.approx(exact, rel=5e-11)


class TestLogFactorial:
    """_log_factorial reproduces scipy.special.gammaln(k + 1), the
    log-factorial the weights were first computed with."""

    @pytest.fixture(scope="class")
    def gammaln(self):
        return pytest.importorskip("scipy.special").gammaln

    def test_table_range_is_bitwise(self, gammaln):
        k = np.arange(len(_LOG_FACTORIALS))
        assert np.array_equal(_log_factorial(k), gammaln(k + 1.0))

    def test_scalars_are_bitwise(self, gammaln):
        rng = np.random.default_rng(28)
        ks = [*range(3000), 10**6, 10**8 - 1, 10**8, 10**8 + 1, 10**10, 10**14,
              *rng.integers(0, 10**12, 2000).tolist()]
        assert [_log_factorial(k) for k in ks] == [float(gammaln(k + 1.0)) for k in ks]
        assert _log_factorial(np.int64(12345)) == gammaln(12346.0)

    def test_arrays_within_one_ulp(self, gammaln):
        # numpy's vectorized log may round 1 ulp away from libm's (the
        # scalar log behind gammaln), at a few integers in 10^5.
        k = np.array([*range(300001), 10**6, 10**8 - 1, 10**8])
        got, want = _log_factorial(k), gammaln(k + 1.0)
        assert np.all(np.abs(got - want) <= np.spacing(want))

    def test_empty_and_zero_dimensional(self, gammaln):
        assert _log_factorial(np.array([], dtype=np.int64)).shape == (0,)
        for k in (5, 10**6):
            got = _log_factorial(np.array(k))
            assert np.shape(got) == ()
            assert abs(got - gammaln(k + 1.0)) <= np.spacing(gammaln(k + 1.0))


class TestIrrepSpectrum:
    def test_single_copy(self):
        (block,) = irrep_spectrum(1)
        assert (block.twice_j, block.dim_rep, block.multiplicity, block.weight) == (1, 2, 1, 1.0)

    def test_two_copies_singlet_triplet(self):
        blocks = irrep_spectrum(2)
        assert [(b.twice_j, b.dim_rep, b.multiplicity, b.weight) for b in blocks] == [
            (0, 1, 1, 0.25),
            (2, 3, 1, 0.75),
        ]

    def test_four_copies(self):
        blocks = irrep_spectrum(4)
        assert [(b.twice_j, b.dim_rep, b.multiplicity) for b in blocks] == [
            (0, 1, 2),
            (2, 3, 3),
            (4, 5, 1),
        ]
        assert [b.weight for b in blocks] == pytest.approx([1 / 8, 9 / 16, 5 / 16])
        assert sum(b.dim_rep * b.multiplicity for b in blocks) == 16

    @pytest.mark.parametrize("n_copies", list(range(1, 31)))
    def test_dimension_and_weight_sums(self, n_copies):
        blocks = irrep_spectrum(n_copies)
        assert sum(b.dim_rep * b.multiplicity for b in blocks) == 2**n_copies
        assert sum(Fraction(b.dim_rep * b.multiplicity, 2**n_copies) for b in blocks) == 1
        assert math.fsum(b.weight for b in blocks) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n_copies", list(range(1, 31)))
    def test_multiplicity_formula_is_integer_valued(self, n_copies):
        for t in range(n_copies % 2, n_copies + 1, 2):
            direct = Fraction(t + 1, (n_copies + t) // 2 + 1) * math.comb(
                n_copies, (n_copies + t) // 2
            )
            assert direct.denominator == 1
            assert multiplicity(n_copies, t / 2) == direct == exact_multiplicity(n_copies, t)


class TestSqrtWeights:
    def test_binomial_normalization(self):
        weights = sqrt_binomial_weights(4) ** 2
        assert abs(float(np.sum(weights)) - 1.0) < 1e-12
        assert weights[2] == pytest.approx(6 / 16)  # n = 0
        assert weights[4] == pytest.approx(1 / 16)  # n = 2
        assert len(weights) == 5

    def test_irrep_weights_match_spectrum(self):
        twice_j, sqrt_c = sqrt_irrep_weights(6)
        blocks = irrep_spectrum(6)
        assert list(twice_j) == [b.twice_j for b in blocks]
        assert sqrt_c**2 == pytest.approx([b.weight for b in blocks], rel=1e-13)

    def test_large_n_weights_match_exact(self):
        twice_j, sqrt_c = sqrt_irrep_weights(2048)
        assert twice_j[1] == 2
        assert sqrt_c[1] ** 2 == pytest.approx(float(frac_irrep_weight(2048, 2)), rel=1e-10)


class TestPreparedState:
    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            PreparedState("qubit", M=2, twice=np.array([-2, 0, 2]),
                          p=np.array([0.3, 0.3, 0.3]))

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            PreparedState("qutrit", M=2, twice=np.array([0]), p=np.array([1.0]))

    def test_lattice_floor_follows_family(self):
        # m = -1 is a Dicke projection of 2 copies; j = -1 is no total spin
        state = PreparedState("qubit", M=2, twice=np.array([-2]), p=np.array([1.0]))
        assert list(state.twice) == [-2] and list(state.p) == [1.0]
        with pytest.raises(DomainError):
            PreparedState("entangled", M=2, twice=np.array([-2]), p=np.array([1.0]))

    def test_entangled_sparse_support_embedded_densely(self):
        state = PreparedState("entangled", M=5, twice=np.array([5, 1]),
                              p=np.array([0.25, 0.75]))
        assert list(state.twice) == [1, 3, 5]
        assert list(state.p) == [0.75, 0.0, 0.25]

    @pytest.mark.parametrize("twice, p", [
        ([0, 0], [0.5, 0.5]),
        ([0, 2], [1.5, -0.5]),
        ([0, 6], [0.5, 0.5]),
        ([1], [1.0]),
        ([0], [math.nan]),
        ([0.7, 2], [0.5, 0.5]),
        ([math.nan], [1.0]),
    ], ids=["duplicate-point", "negative-weight", "beyond-half-M", "off-parity", "nan-weight",
            "non-integer-label", "nan-label"])
    def test_rejections_shared_by_both_families(self, twice, p):
        for family in ("qubit", "entangled"):
            with pytest.raises(DomainError):
                PreparedState(family, M=4, twice=np.array(twice), p=np.array(p))
