"""End-to-end integration tests across the whole pipeline."""

from __future__ import annotations

import pytest
from exact_oracle import ExactStreamCounter

from repro.core.in_stream import InStreamEstimator
from repro.core.post_stream import PostStreamEstimator
from repro.core.priority_sampler import GraphPrioritySampler
from repro.core.subgraphs import CliqueEstimator, StarEstimator
from repro.core.weights import TriangleWeight, UniformWeight, WedgeWeight
from repro.graph.exact import compute_statistics
from repro.graph.generators import powerlaw_cluster
from repro.graph.io import read_edge_list, write_edge_list
from repro.stats.metrics import ci_coverage
from repro.stats.running import RunningMoments
from repro.streams.stream import EdgeStream
from repro.streams.transforms import simplify_edges


class TestFileToEstimatePipeline:
    def test_write_stream_sample_estimate(self, tmp_path, medium_graph, medium_stats):
        """Full user journey: edge list on disk → GPS → estimates."""
        path = tmp_path / "graph.txt.gz"
        write_edge_list(medium_graph, path)
        graph = read_edge_list(path)
        stream = EdgeStream.from_graph(graph, seed=11)
        estimator = InStreamEstimator(capacity=1500, seed=12)
        estimator.process_stream(simplify_edges(stream))
        estimates = estimator.estimates()
        assert estimates.triangles.value == pytest.approx(
            medium_stats.triangles, rel=0.35
        )
        assert estimates.wedges.value == pytest.approx(medium_stats.wedges, rel=0.15)


class TestSingleSampleManyQueries:
    def test_reference_sample_supports_all_estimators(self, medium_graph):
        """One GPS reference sample answers triangle/wedge/clique/star queries."""
        sampler = GraphPrioritySampler(capacity=1200, seed=3)
        sampler.process_stream(EdgeStream.from_graph(medium_graph, seed=3))
        alg2 = PostStreamEstimator(sampler).estimate()
        triangles_via_cliques = CliqueEstimator(sampler, size=3).estimate()
        wedges_via_stars = StarEstimator(sampler, leaves=2).estimate()
        assert triangles_via_cliques.value == pytest.approx(alg2.triangles.value)
        assert wedges_via_stars.value == pytest.approx(alg2.wedges.value)


class TestConfidenceCoverage:
    def test_in_stream_bounds_cover_truth(self, social_graph, social_stats):
        """95% bounds should cover the truth in most runs (Sec. 6 step 4)."""
        intervals = []
        for seed in range(120):
            estimator = InStreamEstimator(capacity=200, seed=80_000 + seed)
            estimator.process_stream(EdgeStream.from_graph(social_graph, seed=seed))
            intervals.append(estimator.estimates().triangles.confidence_bounds())
        coverage = ci_coverage(intervals, social_stats.triangles)
        assert coverage >= 0.80

    def test_post_stream_bounds_cover_truth(self, social_graph, social_stats):
        intervals = []
        for seed in range(120):
            sampler = GraphPrioritySampler(capacity=200, seed=90_000 + seed)
            sampler.process_stream(EdgeStream.from_graph(social_graph, seed=seed))
            est = PostStreamEstimator(sampler).estimate()
            intervals.append(est.triangles.confidence_bounds())
        assert ci_coverage(intervals, social_stats.triangles) >= 0.80


class TestWeightObjectives:
    """Sec. 3.5: weights tuned to a subgraph class cut that class's
    *post-stream* estimation variance (the cost model is derived for the
    HT estimator over the final sample; in-stream snapshots are much less
    sensitive to the weight choice)."""

    @pytest.fixture(scope="class")
    def skewed_graph(self):
        return powerlaw_cluster(800, 4, 0.6, seed=33)

    def _post_stream_runs(self, graph, weight_fn, statistic, runs, capacity=250):
        moments = RunningMoments()
        for seed in range(runs):
            sampler = GraphPrioritySampler(capacity, weight_fn=weight_fn, seed=seed)
            sampler.process_stream(EdgeStream.from_graph(graph, seed=seed))
            estimates = PostStreamEstimator(sampler).estimate()
            moments.add(getattr(estimates, statistic).value)
        return moments

    def test_triangle_weight_beats_uniform_for_triangles(self, skewed_graph):
        actual = compute_statistics(skewed_graph).triangles
        uniform = self._post_stream_runs(
            skewed_graph, UniformWeight(), "triangles", runs=100
        )
        weighted = self._post_stream_runs(
            skewed_graph, TriangleWeight(), "triangles", runs=100
        )
        # Measured effect is ~8x in variance; require at least 2x.
        assert weighted.variance < uniform.variance / 2
        # Both remain unbiased.
        assert abs(uniform.mean - actual) < 5 * uniform.std_error
        assert abs(weighted.mean - actual) < 5 * weighted.std_error

    def test_wedge_weight_helps_wedges(self, skewed_graph):
        actual = compute_statistics(skewed_graph).wedges
        uniform = self._post_stream_runs(
            skewed_graph, UniformWeight(), "wedges", runs=250, capacity=200
        )
        weighted = self._post_stream_runs(
            skewed_graph, WedgeWeight(), "wedges", runs=250, capacity=200
        )
        assert weighted.variance < uniform.variance
        assert abs(weighted.mean - actual) < 5 * weighted.std_error


class TestRealTimeTracking:
    def test_tracking_stays_close_to_exact(self, medium_graph):
        """Figure 3's property: estimates track the truth while streaming."""
        stream = EdgeStream.from_graph(medium_graph, seed=7)
        marks = stream.checkpoints(8)
        estimator = InStreamEstimator(capacity=2000, seed=8)
        exact = ExactStreamCounter()
        mark_set = set(marks)
        t = 0
        for u, v in stream:
            estimator.process(u, v)
            exact.process(u, v)
            t += 1
            if t in mark_set and exact.triangles > 50:
                estimate = estimator.triangle_estimate
                assert estimate == pytest.approx(exact.triangles, rel=0.4)

    def test_late_stream_estimates_tighter_than_early(self, medium_graph):
        """Relative CI width shrinks as the reservoir fills structure."""
        stream = EdgeStream.from_graph(medium_graph, seed=9)
        estimator = InStreamEstimator(capacity=1500, seed=10)
        widths = []
        marks = stream.checkpoints(4)
        for _t, est in estimator.track(stream, marks):
            if est.triangles.value > 0:
                lb, ub = est.triangles.confidence_bounds()
                widths.append((ub - lb) / est.triangles.value)
        assert widths[-1] <= widths[0] * 1.5
