"""Statistical acceptance harness: sharded GPS is unbiased.

Replicates sharded and unsharded gps-post over hundreds of *fixed*
seeds on a small exactly-countable graph and asserts, for every shard
count S ∈ {1, 2, 4, 8}:

* **unbiasedness** — the mean triangle/wedge estimate lies within
  ``Z_TOLERANCE`` standard errors of the exact count (the Monte-Carlo
  z-statistic of the replicate population);
* **CI calibration** — the empirical coverage of the per-replication
  95% confidence intervals stays within a binomial tolerance band of
  the nominal level.

Everything is seeded, so the suite is deterministic — the tolerances
are *calibrated headroom*, not flake insurance: the observed maxima
across the ladder are z ≈ 1.4 and coverage ∈ [0.885, 0.940], against
bounds of z ≤ 3 and coverage ≥ 0.86.

The harness is deliberately heavier than tier-1 (REPLICATIONS × |S|
full passes), so it is marked ``statistical`` and deselected by
default (``addopts`` in pyproject.toml); CI runs it as its own job via
``pytest -m statistical``.
"""

from __future__ import annotations

import math

import pytest

from repro.graph.exact import compute_statistics
from repro.graph.generators import chung_lu
from repro.shard.runner import ShardedRunner
from repro.stats.merge import merge_reports
from repro.streams.stream import EdgeStream

pytestmark = pytest.mark.statistical

#: Fixed-seed replications per shard count (≥ 200 per the acceptance
#: protocol; the z and coverage tolerances below assume this scale).
REPLICATIONS = 200

#: Shard ladder under test; 1 is the unsharded reference sampler.
SHARD_LADDER = (1, 2, 4, 8)

#: Total budget; divisible by every ladder entry (8 · 30 edges/shard).
BUDGET = 240

#: Monte-Carlo z bound: |mean − exact| ≤ Z_TOLERANCE · SE.  Observed
#: maximum across the ladder is ≈ 1.43 with these seeds.
Z_TOLERANCE = 3.0

#: Empirical-coverage band around the nominal 95% level: four binomial
#: standard deviations (√(0.95·0.05/200) ≈ 0.0154) plus a 3pp
#: allowance for the HT variance estimator's small-budget undercoverage
#: (30 edges per shard at S=8).  Observed minimum is 0.885.
COVERAGE_FLOOR = 0.86

CONFIDENCE_LEVEL = 0.95


@pytest.fixture(scope="module")
def population():
    """A small heavy-tailed graph with exactly-countable statistics."""
    graph = chung_lu(150, 600, exponent=2.2, seed=9)
    edges = EdgeStream.canonical_edges(graph)
    exact = compute_statistics(graph)
    assert exact.triangles > 0 and exact.wedges > 0
    return edges, exact


def _replicate(edges, shards):
    """REPLICATIONS seeded sharded passes; returns per-metric series."""
    runner = ShardedRunner(edges, shards=shards, budget=BUDGET)
    rows = []
    for i in range(REPLICATIONS):
        estimates = runner.run(
            stream_seed=i, sampler_seed=1_000 + i
        ).estimates
        rows.append(estimates)
    return rows


def _z_statistic(values, truth):
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    std_error = math.sqrt(variance / len(values))
    return abs(mean - truth) / std_error


@pytest.fixture(scope="module", params=SHARD_LADDER)
def ladder_rung(request, population):
    edges, exact = population
    return request.param, exact, _replicate(edges, request.param)


class TestUnbiasedness:
    def test_triangle_mean_within_tolerance(self, ladder_rung):
        shards, exact, rows = ladder_rung
        values = [r.triangles.value for r in rows]
        z = _z_statistic(values, exact.triangles)
        assert z <= Z_TOLERANCE, (
            f"S={shards}: triangle mean {sum(values) / len(values):.1f} "
            f"vs exact {exact.triangles} is {z:.2f} SEs away"
        )

    def test_wedge_mean_within_tolerance(self, ladder_rung):
        shards, exact, rows = ladder_rung
        values = [r.wedges.value for r in rows]
        z = _z_statistic(values, exact.wedges)
        assert z <= Z_TOLERANCE, (
            f"S={shards}: wedge mean {sum(values) / len(values):.1f} "
            f"vs exact {exact.wedges} is {z:.2f} SEs away"
        )


class TestConfidenceCalibration:
    def test_triangle_ci_coverage(self, ladder_rung):
        shards, exact, rows = ladder_rung
        covered = sum(
            low <= exact.triangles <= high
            for low, high in (r.triangles.confidence_bounds() for r in rows)
        )
        coverage = covered / len(rows)
        assert COVERAGE_FLOOR <= coverage <= 1.0, (
            f"S={shards}: triangle CI coverage {coverage:.3f} outside "
            f"[{COVERAGE_FLOOR}, 1.0]"
        )

    def test_wedge_ci_coverage(self, ladder_rung):
        shards, exact, rows = ladder_rung
        covered = sum(
            low <= exact.wedges <= high
            for low, high in (r.wedges.confidence_bounds() for r in rows)
        )
        coverage = covered / len(rows)
        assert COVERAGE_FLOOR <= coverage <= 1.0, (
            f"S={shards}: wedge CI coverage {coverage:.3f} outside "
            f"[{COVERAGE_FLOOR}, 1.0]"
        )


class TestPooledMomentsEndToEnd:
    def test_merge_reports_recovers_the_study_mean(self, population):
        # Split the S=4 replicate series into unequal groups, summarise
        # each by (count, mean, sample variance), and pool: the merged
        # moments must be exactly the flat series' moments — the same
        # contract a study pooled from separately run groups relies on.
        edges, _ = population
        runner = ShardedRunner(edges, shards=4, budget=BUDGET)
        values = [
            runner.run(stream_seed=i, sampler_seed=5_000 + i)
            .estimates.triangles.value
            for i in range(24)
        ]
        groups = [values[:5], values[5:12], values[12:24]]
        reports = []
        for group in groups:
            mean = sum(group) / len(group)
            variance = sum((v - mean) ** 2 for v in group) / (
                len(group) - 1
            )
            reports.append({"triangles": (len(group), mean, variance)})
        merged = merge_reports(reports)["triangles"]
        flat_mean = sum(values) / len(values)
        flat_var = sum((v - flat_mean) ** 2 for v in values) / (
            len(values) - 1
        )
        assert merged.count == 24
        assert merged.mean == pytest.approx(flat_mean, rel=1e-12)
        assert merged.variance == pytest.approx(flat_var, rel=1e-12)
