"""Rank-sum test against a brute-force enumeration oracle."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsa import RandomSource, decide, rank_sum_p, summarize
from ecsa.stats import COMPARABLE, SIGNIFICANTLY_DIFFERENT, _midranks


def brute_force_rank_sum_p(a, b):
    """Independent oracle: enumerate every assignment of pooled midranks.

    Two-sided p: the fraction of C(n+m, n) rank subsets whose sum deviates
    from the null mean at least as much as the observed sum.
    """
    pooled = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
    ranks = _midranks(pooled)
    n = len(a)
    observed = ranks[:n].sum()
    mean = n * (len(pooled) + 1) / 2.0
    deviation = abs(observed - mean)
    extreme = 0
    total = 0
    for subset in itertools.combinations(range(len(pooled)), n):
        total += 1
        if abs(sum(ranks[i] for i in subset) - mean) >= deviation - 1e-9:
            extreme += 1
    return extreme / total


class TestSummarize:
    def test_hand_arithmetic(self):
        assert summarize([1.0, 2.0, 3.0]) == (2.0, 1.0)

    def test_constant_sample(self):
        assert summarize([5.0, 5.0, 5.0, 5.0]) == (5.0, 0.0)

    def test_two_values(self):
        mean, std = summarize([0.0, 10.0])
        assert mean == 5.0
        assert std == pytest.approx(math.sqrt(50.0), rel=1e-12)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            summarize([1.0])

    @pytest.mark.parametrize("sample", [[math.inf, 2.5], [math.inf, math.inf]])
    def test_infinite_value_has_infinite_std(self, sample):
        # the engine reports +inf for a trial whose every evaluation was NaN or inf
        assert summarize(sample) == (math.inf, math.inf)

    def test_large_finite_values_do_not_overflow(self):
        # the sum and the squares overflowed to inf, with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert summarize([1e308, 1e308]) == (1e308, 0.0)
            mean, std = summarize([1e308, -1e308])
        assert mean == 0.0
        assert std == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)

    # |v| > 1e-100 keeps every square of a deviation clear of underflow
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) > 1e-100),
                    min_size=2, max_size=8))
    def test_scaled_values_give_scaled_bits(self, sample):
        # near the top of the float range the sums overflow and summarize
        # rescales; scaling by a power of two must not change a bit
        exponent = 1003  # 1e6 * 2**1003 < 2**1023
        big = summarize(np.ldexp(sample, exponent))
        assert big == tuple(np.ldexp(summarize(sample), exponent))


class TestRankSumExact:
    def test_separated_triples(self):
        assert rank_sum_p([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1, abs=1e-12)

    def test_identical_multisets(self):
        assert rank_sum_p([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_sum_p([], [1.0])

    def test_matches_brute_force_all_small_sizes(self):
        rng = RandomSource(913)
        for n in range(1, 8):
            for m in range(n, 8):
                a = np.round(10.0 * rng.random(n), 1)
                b = np.round(10.0 * rng.random(m), 1)
                expected = brute_force_rank_sum_p(a.tolist(), b.tolist())
                assert rank_sum_p(a, b) == pytest.approx(expected, abs=1e-12), (n, m)

    def test_matches_brute_force_with_heavy_ties(self):
        a = [1.0, 1.0, 2.0, 2.0]
        b = [1.0, 2.0, 2.0, 3.0]
        assert rank_sum_p(a, b) == pytest.approx(brute_force_rank_sum_p(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = RandomSource(515)
        for _ in range(25):
            a = rng.random(6)
            b = rng.random(9)
            assert rank_sum_p(a, b) == rank_sum_p(b, a)


class TestRankSumApproximate:
    def test_symmetry_large(self):
        rng = RandomSource(616)
        a = rng.random(30)
        b = rng.random(30)
        assert rank_sum_p(a, b) == rank_sum_p(b, a)

    def test_identical_large_samples(self):
        values = RandomSource(3).random(30)
        assert rank_sum_p(values, values) == 1.0

    def test_all_equal_samples_have_zero_variance(self):
        # every rank ties, so the tie-corrected variance is 0: a protocol cell
        # where both algorithms reach one value in all 30 trials
        p = rank_sum_p([0.0] * 11, [0.0] * 11)
        assert p == 1.0
        assert decide(p) == COMPARABLE

    def test_shift_sensitivity(self):
        rng = RandomSource(717)
        a = rng.random(30)
        sigma = float(np.std(a))
        p_values = [rank_sum_p(a, a + shift) for shift in (0.0, sigma, 3 * sigma)]
        assert p_values[0] > p_values[1] > p_values[2]

    def test_exact_vs_normal_agreement(self):
        # the normal approximation tracks exact enumeration within 0.03
        # absolute once both sides have >= 5 observations (below that the
        # exact p-grid is too coarse: at (3,3) the gap reaches 0.0375) and
        # within 0.05 down to 3 per side
        rng = RandomSource(818)
        from ecsa.stats import _normal_two_sided

        checked = 0
        for n in range(3, 11):
            for m in range(3, 11):
                for _ in range(8):
                    a = rng.random(n)
                    b = rng.random(m)
                    exact = rank_sum_p(a, b)
                    ranks = _midranks(np.concatenate([a, b]))
                    approx = _normal_two_sided(ranks, n, m, float(ranks[:n].sum()))
                    tolerance = 0.03 if min(n, m) >= 5 else 0.05
                    assert abs(approx - exact) <= tolerance, (n, m, exact, approx)
                    checked += min(n, m) >= 5
        assert checked >= 200

    def test_type_one_error_calibration(self):
        # two size-30 samples from the same distribution: p >= 0.05 in at
        # least 90% of 1000 repetitions
        rng = RandomSource(919)
        hits = 0
        for _ in range(1000):
            a = rng.random(30)
            b = rng.random(30)
            if rank_sum_p(a, b) >= 0.05:
                hits += 1
        assert hits >= 900

    def test_fully_separated_samples_are_significant(self):
        a = np.arange(30, dtype=float)
        b = a + 100.0
        assert rank_sum_p(a, b) < 1e-9

    def test_matches_scipy_asymptotic(self):
        # scipy's tie-corrected normal approximation with continuity
        # correction is the oracle for samples above EXACT_LIMIT
        rng = RandomSource(4242)
        for n, m in [(11, 11), (11, 40), (30, 30), (25, 60), (200, 150)]:
            for shift in (0.0, 0.5, 2.0):
                a = np.round(10.0 * rng.random(n), 1)
                b = np.round(10.0 * rng.random(m) + shift, 1)
                expected = scipy.stats.mannwhitneyu(
                    a, b, alternative="two-sided", use_continuity=True, method="asymptotic"
                ).pvalue
                assert expected > 0.0
                assert rank_sum_p(a, b) == pytest.approx(expected, rel=1e-12, abs=0.0), (n, m)

    def test_underflow_stays_positive(self):
        # the normal tail underflows to 0.0 here (scipy's does too); the
        # p-value is floored at the smallest positive double so that it
        # stays in (0, 1] and the decision rule accepts it
        a = np.arange(1000, dtype=float)
        b = a + 1e4
        p = rank_sum_p(a, b)
        assert p == rank_sum_p(b, a) == math.ulp(0.0)
        assert decide(p) == SIGNIFICANTLY_DIFFERENT


# values with frequent ties (small integers) mixed with spread-out floats
sample_values = st.lists(
    st.one_of(st.integers(-5, 5).map(float), st.floats(-1e6, 1e6)), min_size=1, max_size=40
)


class TestRankSumProperties:
    @settings(max_examples=200, deadline=None)
    @given(sample_values, sample_values)
    def test_symmetric_and_in_unit_interval(self, a, b):
        p = rank_sum_p(a, b)
        assert 0.0 < p <= 1.0
        assert p == rank_sum_p(b, a)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 1500), st.integers(11, 1500), st.floats(0.0, 1e6), st.booleans())
    def test_separated_samples_stay_in_unit_interval(self, n, m, gap, swap):
        # every value of one sample below every value of the other: at
        # large sizes the normal tail underflows and must stay positive
        a = np.arange(n, dtype=float)
        b = n + gap + np.arange(m, dtype=float)
        if swap:
            a, b = b, a
        p = rank_sum_p(a, b)
        assert 0.0 < p <= 1.0
        assert p == rank_sum_p(b, a)
        assert decide(p) in (COMPARABLE, SIGNIFICANTLY_DIFFERENT)


class TestDecide:
    def test_comparable_case(self):
        assert decide(0.212, 0.05) == COMPARABLE

    def test_significant_case(self):
        assert decide(1.86e-09, 0.05) == SIGNIFICANTLY_DIFFERENT

    def test_boundary_is_comparable(self):
        assert decide(0.05, 0.05) == COMPARABLE

    def test_validation(self):
        with pytest.raises(ValueError):
            decide(0.0, 0.05)
        with pytest.raises(ValueError):
            decide(1.5, 0.05)
        with pytest.raises(ValueError):
            decide(0.5, 1.0)


def loop_midranks(pooled):
    """Reference: walk the stably sorted values, one tie group at a time."""
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.size)
    i = 0
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf, math.nan])
                | st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_midranks_match_the_loop_reference(values):
    # every NaN is a tie group of its own; -0.0 ties with 0.0; infinities tie
    pooled = np.array(values)
    assert np.array_equal(_midranks(pooled), loop_midranks(pooled))
