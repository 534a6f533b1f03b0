"""Wilcoxon signed-rank test against hand computation and scipy."""

import numpy as np
import pytest
import scipy.stats

from flowshop.errors import ValidationError
from flowshop.stats import wilcoxon_signed_rank


class TestWilcoxon:
    def test_textbook_ten_pairs(self):
        # worked example: d = [15,-7,5,20,0,-9,17,-12,5,-10]; the zero drops,
        # |d| ranks give W+ = 7+1.5+9+8+1.5 = 27, mean 22.5,
        # variance 9*10*19/24 - (2^3-2)/48 = 71.125, z = 4.5/sqrt(71.125),
        # two-sided p = 0.5936 (normal approximation)
        a = np.array([125, 115, 130, 140, 140, 115, 140, 125, 140, 135], dtype=float)
        b = np.array([110, 122, 125, 120, 140, 124, 123, 137, 135, 145], dtype=float)
        result = wilcoxon_signed_rank(a, b)
        assert result.n_nonzero == 9
        assert result.statistic == 27.0
        assert result.p_value == pytest.approx(0.5936, abs=1e-3)
        assert not result.significant

    def test_matches_scipy_normal_approximation(self, rng):
        for trial in range(20):
            a = rng.normal(10, 2, size=25)
            b = a + rng.normal(0.3, 1.0, size=25)
            ours = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(
                a, b, zero_method="wilcox", correction=False, method="approx"
            )
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_matches_scipy_with_ties(self, rng):
        a = rng.integers(0, 6, size=40).astype(float)
        b = rng.integers(0, 6, size=40).astype(float)
        if np.count_nonzero(a - b) < 6:  # pragma: no cover - rng guard
            pytest.skip("degenerate draw")
        ours = wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, zero_method="wilcox", correction=False, method="approx")
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_w_plus_matches_rankdata_on_ties(self, rng):
        for trial in range(20):
            diff = rng.integers(-4, 5, size=30).astype(float)
            diff = diff[diff != 0]
            ranks = scipy.stats.rankdata(np.abs(diff))  # ties share their average rank
            ours = wilcoxon_signed_rank(diff, np.zeros_like(diff))
            assert ours.statistic == ranks[diff > 0].sum()

    def test_constant_shift_strongly_significant(self):
        b = np.linspace(1.0, 30.0, 30)
        a = b + 3.0
        result = wilcoxon_signed_rank(a, b)
        assert result.p_value < 1e-3
        assert result.significant

    def test_equal_samples_rejected(self):
        x = np.arange(10, dtype=float)
        with pytest.raises(ValidationError, match="nonzero pairs"):
            wilcoxon_signed_rank(x, x)

    def test_too_few_pairs_rejected(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = a + 1.0
        with pytest.raises(ValidationError):
            wilcoxon_signed_rank(a, b)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            wilcoxon_signed_rank(np.ones(5), np.ones(6))
