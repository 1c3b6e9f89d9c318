"""Tests for the statistics substrate (metrics, CIs, moments, delta)."""

from __future__ import annotations

import math
import random
import statistics

import pytest
from scipy import stats as scipy_stats

from repro.stats.confidence import confidence_interval, inverse_normal_cdf, z_score
from repro.stats.merge import merge_reports
from repro.stats.metrics import (
    absolute_relative_error,
    ci_coverage,
    max_absolute_relative_error,
    mean_absolute_relative_error,
    normalized_rmse,
)
from repro.stats.running import RunningMoments
from repro.stats.variance import (
    clustering_variance,
    pooled_mean,
    pooled_variance,
    ratio_variance_delta,
)


class TestInverseNormal:
    @pytest.mark.parametrize("p", [0.001, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999])
    def test_matches_scipy(self, p):
        assert inverse_normal_cdf(p) == pytest.approx(
            scipy_stats.norm.ppf(p), abs=1e-7
        )

    def test_symmetry(self):
        assert inverse_normal_cdf(0.3) == pytest.approx(-inverse_normal_cdf(0.7))

    def test_median_is_zero(self):
        assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_out_of_range_raises(self, p):
        with pytest.raises(ValueError):
            inverse_normal_cdf(p)

    def test_z_score_95(self):
        assert z_score(0.95) == pytest.approx(1.959964, abs=1e-5)

    def test_z_score_invalid(self):
        with pytest.raises(ValueError):
            z_score(1.5)


class TestConfidenceInterval:
    def test_95_interval(self):
        lb, ub = confidence_interval(100.0, 25.0)
        assert lb == pytest.approx(100 - 1.959964 * 5, abs=1e-3)
        assert ub == pytest.approx(100 + 1.959964 * 5, abs=1e-3)

    def test_zero_variance_collapses(self):
        assert confidence_interval(7.0, 0.0) == (7.0, 7.0)

    def test_negative_variance_clamped(self):
        assert confidence_interval(7.0, -3.0) == (7.0, 7.0)

    def test_wider_level_wider_interval(self):
        lb95, ub95 = confidence_interval(0.0, 1.0, level=0.95)
        lb99, ub99 = confidence_interval(0.0, 1.0, level=0.99)
        assert lb99 < lb95 < ub95 < ub99


class TestMetrics:
    def test_are_basic(self):
        assert absolute_relative_error(90, 100) == pytest.approx(0.1)
        assert absolute_relative_error(110, 100) == pytest.approx(0.1)

    def test_are_zero_actual(self):
        assert absolute_relative_error(0, 0) == 0.0
        assert absolute_relative_error(5, 0) == float("inf")

    def test_mare(self):
        assert mean_absolute_relative_error([90, 110], [100, 100]) == pytest.approx(0.1)

    def test_mare_skips_zero_actuals(self):
        assert mean_absolute_relative_error([5, 90], [0, 100]) == pytest.approx(0.1)

    def test_mare_all_zero_actuals(self):
        assert mean_absolute_relative_error([5], [0]) == 0.0

    def test_mare_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_absolute_relative_error([1, 2], [1])

    def test_max_are(self):
        assert max_absolute_relative_error([90, 150], [100, 100]) == pytest.approx(0.5)

    def test_nrmse(self):
        assert normalized_rmse([90, 110], 100) == pytest.approx(0.1)

    def test_nrmse_requires_data(self):
        with pytest.raises(ValueError):
            normalized_rmse([], 10)
        with pytest.raises(ValueError):
            normalized_rmse([1.0], 0)

    def test_ci_coverage(self):
        intervals = [(0, 2), (5, 6), (0.5, 1.5)]
        assert ci_coverage(intervals, 1.0) == pytest.approx(2 / 3)

    def test_ci_coverage_empty(self):
        with pytest.raises(ValueError):
            ci_coverage([], 1.0)


class TestRunningMoments:
    def test_matches_batch_statistics(self):
        rng = random.Random(1)
        values = [rng.gauss(5, 2) for _ in range(500)]
        mom = RunningMoments()
        mom.extend(values)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert mom.mean == pytest.approx(mean)
        assert mom.variance == pytest.approx(var)
        assert mom.std == pytest.approx(math.sqrt(var))
        assert mom.minimum == min(values)
        assert mom.maximum == max(values)

    def test_std_error(self):
        mom = RunningMoments()
        mom.extend([1.0, 2.0, 3.0, 4.0])
        assert mom.std_error == pytest.approx(mom.std / 2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            RunningMoments().mean

    def test_single_value(self):
        mom = RunningMoments()
        mom.add(3.0)
        assert mom.mean == 3.0
        assert mom.variance == 0.0


class TestDeltaMethod:
    def test_matches_monte_carlo(self):
        # X ~ N(100, 4), Y ~ N(50, 1) independent; Var(X/Y) by simulation.
        rng = random.Random(2)
        ratios = []
        for _ in range(40_000):
            x = rng.gauss(100, 2)
            y = rng.gauss(50, 1)
            ratios.append(x / y)
        mean = sum(ratios) / len(ratios)
        empirical = sum((r - mean) ** 2 for r in ratios) / (len(ratios) - 1)
        approx = ratio_variance_delta(100, 50, 4.0, 1.0, 0.0)
        assert approx == pytest.approx(empirical, rel=0.1)

    def test_zero_denominator(self):
        assert ratio_variance_delta(1, 0, 1, 1) == 0.0

    def test_negative_inputs_clamped(self):
        assert ratio_variance_delta(10, 5, -1.0, -1.0) == 0.0

    def test_result_clamped_non_negative(self):
        # Huge positive covariance can push the expansion negative.
        assert ratio_variance_delta(10, 5, 0.1, 0.1, covariance=100.0) == 0.0

    def test_clustering_variance_scaling(self):
        base = ratio_variance_delta(30, 300, 9.0, 25.0, 2.0)
        assert clustering_variance(30, 300, 9.0, 25.0, 2.0) == pytest.approx(9 * base)


class TestPooledMoments:
    """Pooled group moments (the sharded-study merge math)."""

    def test_pooled_mean_hand_computed_unequal_counts(self):
        # Groups [3, 7] and [10, 20, 30]: mean of all five values is 14.
        assert pooled_mean([2, 3], [5.0, 20.0]) == pytest.approx(14.0)

    def test_pooled_variance_hand_computed_unequal_counts(self):
        # Values [9, 11] (n=2, mean 10, s²=2) and [15, 16, 17]
        # (n=3, mean 16, s²=1).  Concatenated: mean 13.6,
        # SS = (1·2 + 2·(10−13.6)²) + (2·1 + 3·(16−13.6)²) = 47.2,
        # sample variance 47.2/4 = 11.8.
        assert pooled_variance(
            [2, 3], [10.0, 16.0], [2.0, 1.0]
        ) == pytest.approx(11.8)

    def test_matches_statistics_variance_of_concatenation(self):
        rng = random.Random(7)
        groups = [
            [rng.gauss(10, 3) for _ in range(n)] for n in (2, 5, 1, 9)
        ]
        counts = [len(g) for g in groups]
        means = [sum(g) / len(g) for g in groups]
        variances = [
            statistics.variance(g) if len(g) > 1 else 0.0 for g in groups
        ]
        flat = [v for g in groups for v in g]
        assert pooled_mean(counts, means) == pytest.approx(
            statistics.mean(flat)
        )
        assert pooled_variance(counts, means, variances) == pytest.approx(
            statistics.variance(flat)
        )

    def test_empty_groups_are_skipped(self):
        assert pooled_mean([0, 3], [999.0, 4.0]) == pytest.approx(4.0)
        assert pooled_variance(
            [0, 3], [999.0, 4.0], [999.0, 2.5]
        ) == pytest.approx(2.5)

    def test_degenerate_pools_have_no_spread(self):
        assert pooled_mean([], []) == 0.0
        assert pooled_variance([], [], []) == 0.0
        assert pooled_variance([1], [5.0], [0.0]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="disagree on length"):
            pooled_mean([1, 2], [1.0])
        with pytest.raises(ValueError, match="disagree on length"):
            pooled_variance([1, 2], [1.0, 2.0], [0.0])

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            pooled_mean([-1], [1.0])

    def test_negative_variance_raises(self):
        with pytest.raises(ValueError, match="variances must be >= 0"):
            pooled_variance([2, 2], [1.0, 2.0], [1.0, -0.5])


class TestMergeReports:
    """Cross-shard pooling of replicate report groups."""

    def test_pools_unequal_groups_to_hand_computed_values(self):
        merged = merge_reports([
            {"triangles": (2, 10.0, 2.0)},
            {"triangles": (3, 16.0, 1.0)},
        ])
        tri = merged["triangles"]
        assert tri.count == 5
        assert tri.mean == pytest.approx(13.6)
        assert tri.variance == pytest.approx(11.8)
        assert tri.std_error == pytest.approx((11.8 / 5) ** 0.5)

    def test_confidence_interval_matches_direct_computation(self):
        merged = merge_reports(
            [{"x": (4, 8.0, 4.0)}, {"x": (4, 12.0, 4.0)}], level=0.95
        )
        metric = merged["x"]
        low, high = confidence_interval(
            metric.mean, metric.variance / metric.count, level=0.95
        )
        assert metric.ci_low == pytest.approx(low)
        assert metric.ci_high == pytest.approx(high)
        assert metric.to_dict()["ci_low"] == pytest.approx(low)

    def test_metric_name_mismatch_raises(self):
        with pytest.raises(ValueError, match="metric"):
            merge_reports([
                {"triangles": (2, 1.0, 0.0)},
                {"wedges": (2, 1.0, 0.0)},
            ])

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            merge_reports([])
