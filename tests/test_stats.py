"""Accuracy, Friedman, Holm, Wilcoxon and Cohen's Dz contracts."""

import itertools

import numpy as np
import pytest
from scipy import stats as sps

from semgcal import DataError, EmptyInputError, NumericError, ShapeError
from semgcal.stats import (
    WILCOXON_EXACT_MAX,
    _chi2_sf,
    _norm_sf,
    _rankdata,
    accuracy,
    cohens_dz,
    friedman_test,
    holm_posthoc,
    wilcoxon_signed_rank,
)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_none_correct(self):
        assert accuracy(np.array([1, 2, 3]), np.array([4, 5, 6])) == 0.0

    def test_three_of_four(self):
        assert accuracy(np.array([1, 2, 3, 4]), np.array([1, 2, 3, 9])) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            accuracy(np.array([]), np.array([]))


def rank_row_oracle(row):
    """Exhaustive per-row sorting oracle: rank 1 = best with mid-rank ties."""
    order = sorted(range(len(row)), key=lambda j: -row[j])
    ranks = [0.0] * len(row)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and row[order[j]] == row[order[i]]:
            j += 1
        mid = (i + 1 + j) / 2.0
        for idx in order[i:j]:
            ranks[idx] = mid
        i = j
    return ranks


class TestFriedman:
    def test_consistent_ordering(self):
        table = np.array([[0.9, 0.8, 0.7]] * 6)
        res = friedman_test(table)
        np.testing.assert_allclose(res.avg_ranks, [1.0, 2.0, 3.0])

    def test_tie_gets_midrank(self):
        table = np.array([[0.5, 0.5, 0.1], [0.9, 0.8, 0.7]])
        res = friedman_test(table)
        # first subject: algorithms 1 and 2 tie for best -> both 1.5
        assert res.avg_ranks[0] == pytest.approx((1.5 + 1) / 2)
        assert res.avg_ranks[1] == pytest.approx((1.5 + 2) / 2)

    def test_matches_bruteforce_oracle_on_random_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            table = rng.random((5, 3))
            res = friedman_test(table)
            oracle_ranks = np.mean([rank_row_oracle(row) for row in table], axis=0)
            np.testing.assert_allclose(res.avg_ranks, oracle_ranks)
            n, k = table.shape
            stat = 12.0 * n / (k * (k + 1)) * np.sum((oracle_ranks - (k + 1) / 2) ** 2)
            assert res.statistic == pytest.approx(stat)

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(3)
        table = rng.random((12, 4))
        res = friedman_test(table)
        stat, p = sps.friedmanchisquare(*[table[:, j] for j in range(4)])
        assert res.statistic == pytest.approx(stat)
        assert res.p_value == pytest.approx(p)

    def test_degenerate_all_equal(self):
        res = friedman_test(np.full((6, 4), 0.5))
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        np.testing.assert_allclose(res.avg_ranks, 2.5)

    def test_rank_sums_per_subject(self):
        rng = np.random.default_rng(1)
        table = rng.random((20, 7))
        res = friedman_test(table)
        k = 7
        assert res.avg_ranks.sum() == pytest.approx(k * (k + 1) / 2)
        assert np.all(res.avg_ranks >= 1.0) and np.all(res.avg_ranks <= k)

    def test_too_small(self):
        with pytest.raises(DataError):
            friedman_test(np.ones((1, 3)))


class TestHolm:
    def test_identical_ranks_no_rejection(self):
        res = holm_posthoc(np.full(5, 3.0), n=20, control=0)
        assert not res.reject.any()

    def test_large_gap_rejected(self):
        # z = (R_c - R_j) / sqrt(k(k+1)/(6n)); make the gap big enough for z > 4
        ranks = np.array([6.0, 1.0, 3.5, 3.5, 3.5, 3.5])
        k, n = 6, 20
        se = np.sqrt(k * (k + 1) / (6 * n))
        z = (6.0 - 1.0) / se
        assert z > 4  # normal-tail oracle: p < 3.2e-5
        res = holm_posthoc(ranks, n=n, control=0)
        assert res.reject[1]
        assert res.p_values[1] == pytest.approx(sps.norm.sf(z))

    def test_stepdown_monotone_rejection_set(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            ranks = rng.uniform(1, 7, 7)
            ranks[0] = 6.5  # weak control
            res = holm_posthoc(ranks, n=20, control=0)
            ps = res.p_values[1:]
            rejected = res.reject[1:]
            for a, b in itertools.product(range(6), range(6)):
                if ps[a] < ps[b] and rejected[b]:
                    assert rejected[a]

    def test_single_comparison_reduces_to_z_test(self):
        ranks = np.array([1.8, 1.2])
        res = holm_posthoc(ranks, n=20, control=0)
        z = (1.8 - 1.2) / np.sqrt(2 * 3 / (6 * 20.0))
        assert res.p_values[1] == pytest.approx(sps.norm.sf(z))
        assert res.p_adjusted[1] == pytest.approx(min(1.0, sps.norm.sf(z)))
        assert res.reject[1] == (sps.norm.sf(z) <= 0.05)

    def test_adjusted_p_monotone_in_order(self):
        ranks = np.array([5.0, 1.0, 2.0, 4.9, 3.0])
        res = holm_posthoc(ranks, n=20, control=0)
        ordered = sorted((p, pa) for p, pa in zip(res.p_values[1:], res.p_adjusted[1:]))
        adjusted_in_order = [pa for _, pa in ordered]
        assert all(a <= b + 1e-15 for a, b in zip(adjusted_in_order, adjusted_in_order[1:]))


def wilcoxon_enum_oracle(diffs):
    """Two-sided p by explicit 2^n enumeration of sign flips."""
    diffs = np.asarray(diffs, dtype=float)
    diffs = diffs[diffs != 0]
    n = len(diffs)
    ranks = sps.rankdata(np.abs(diffs))
    w_obs = ranks[diffs > 0].sum()
    w_all = []
    for signs in itertools.product([0, 1], repeat=n):
        w_all.append(sum(r for r, s in zip(ranks, signs) if s))
    w_all = np.array(w_all)
    p_ge = np.mean(w_all >= w_obs - 1e-12)
    p_le = np.mean(w_all <= w_obs + 1e-12)
    return min(1.0, 2.0 * min(p_le, p_ge))


class TestWilcoxon:
    def test_equal_samples_p_one(self):
        a = np.arange(8.0)
        assert wilcoxon_signed_rank(a, a) == 1.0

    def test_five_positive_differences(self):
        # all 5 signs positive: W+ = 15 is the largest of 32 sign patterns
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = a - 1.0
        assert wilcoxon_signed_rank(a, b) == pytest.approx(2 / 32)

    def test_exact_matches_enumeration_n12(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.standard_normal(12)
            b = rng.standard_normal(12)
            assert wilcoxon_signed_rank(a, b) == pytest.approx(wilcoxon_enum_oracle(a - b), abs=1e-12)

    def test_exact_matches_enumeration_with_ties(self):
        a = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        b = np.array([2.0, 2.0, 3.0, 0.0, 4.0, 7.0, 4.0, 6.0])  # one zero diff, tied |d|
        assert wilcoxon_signed_rank(a, b) == pytest.approx(wilcoxon_enum_oracle(a - b), abs=1e-12)

    @pytest.mark.parametrize("n, method", [(WILCOXON_EXACT_MAX, "exact"),
                                           (WILCOXON_EXACT_MAX + 1, "approx")])
    def test_exact_null_up_to_twenty_pairs(self, n, method):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n) + 0.4, rng.standard_normal(n)
        ref = sps.wilcoxon(a, b, method=method, correction=True).pvalue
        assert wilcoxon_signed_rank(a, b) == pytest.approx(ref, rel=1e-9)

    def test_normal_approximation_reasonable(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(60) + 0.8
        b = rng.standard_normal(60)
        p = wilcoxon_signed_rank(a, b)
        ref = sps.wilcoxon(a, b).pvalue
        assert p == pytest.approx(ref, rel=0.25)
        assert p < 0.01

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            wilcoxon_signed_rank(np.ones(3), np.ones(4))


class TestCohensDz:
    def test_opposite_differences_give_zero(self):
        assert cohens_dz(np.array([1.0, -1.0]), np.zeros(2)) == 0.0

    def test_closed_form(self):
        a = np.array([2.0, 4.0, 6.0])
        assert cohens_dz(a, np.zeros(3)) == pytest.approx(4.0 / 2.0)

    def test_constant_shift_rejected(self):
        a = np.array([1.0, 2.0, 3.0])
        with pytest.raises(NumericError):
            cohens_dz(a + 5.0, a)

    def test_too_few_pairs(self):
        with pytest.raises(DataError):
            cohens_dz(np.array([1.0]), np.array([0.0]))


# scipy is the oracle for the numpy rank and tail functions; the package
# itself does not import it.


class TestNumpyStatisticsMatchScipy:
    @pytest.mark.parametrize("row", [
        [3.0, 1.0, 2.0, 2.0, 0.0, -0.0, 5.0],
        [0.0, -0.0],
        [0.7, 0.7, 0.7, 0.7],
        [0.25],
        [],
        [np.nan, 1.0, 2.0],
    ])
    def test_rankdata_cases(self, row):
        assert np.array_equal(_rankdata(row), sps.rankdata(row), equal_nan=True)

    def test_rankdata_random_ties(self):
        rng = np.random.default_rng(4)
        for row in rng.integers(-3, 4, size=(500, 9)) / 2.0:
            assert np.array_equal(_rankdata(row), sps.rankdata(row))
        for row in rng.random((100, 20)):
            assert np.array_equal(_rankdata(row), sps.rankdata(row))

    @pytest.mark.parametrize("dof", range(1, 11))
    def test_chi2_sf(self, dof):
        xs = np.concatenate((np.logspace(-6, np.log10(700.0), 400), np.linspace(0.05, 80.0, 400)))
        got = np.array([_chi2_sf(x, dof) for x in xs])
        np.testing.assert_allclose(got, sps.chi2.sf(xs, dof), rtol=1e-12, atol=0)
        assert _chi2_sf(0.0, dof) == 1.0

    def test_normal_sf_and_cdf(self):
        zs = np.concatenate((np.linspace(-37.0, 37.0, 2001), [-1e-300, 0.0, 1e-300]))
        sf = np.array([_norm_sf(z) for z in zs])
        cdf = np.array([_norm_sf(-z) for z in zs])
        np.testing.assert_allclose(sf, sps.norm.sf(zs), rtol=1e-12, atol=0)
        np.testing.assert_allclose(cdf, sps.norm.cdf(zs), rtol=1e-12, atol=0)

    def test_battery_p_values_match_scipy(self):
        rng = np.random.default_rng(11)
        no_ties = rng.random((20, 5))
        assert friedman_test(no_ties).p_value == pytest.approx(
            sps.friedmanchisquare(*no_ties.T).pvalue, rel=1e-12)
        # rounded accuracies tie in most rows; scipy's statistic would add a
        # tie correction that the battery does not make, so compare the tail
        res = friedman_test(np.round(rng.random((20, 5)), 2))
        assert res.p_value == pytest.approx(sps.chi2.sf(res.statistic, 4), rel=1e-12)
        holm = holm_posthoc(res.avg_ranks, n=20, control=0)
        np.testing.assert_allclose(holm.p_values[1:], sps.norm.sf(holm.z_values[1:]), rtol=1e-12)
