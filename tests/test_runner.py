"""The paper's experiment protocol through ``run(spec)``, on small ad-hoc
graphs (not the dataset registry): shared-sample GPS runs, every
registered method at a common budget, and tracking against exact prefix
counts."""

from __future__ import annotations

import pytest

from repro.api import RunSpec, run
from repro.api.registry import baseline_method_names
from repro.baselines.triest import TriestImpr
from repro.engine.stream_engine import StreamEngine
from repro.graph.exact import compute_statistics, prefix_counts
from repro.graph.generators import powerlaw_cluster
from repro.stats.metrics import absolute_relative_error
from repro.streams.stream import EdgeStream


@pytest.fixture(scope="module")
def runner_graph():
    return powerlaw_cluster(400, 4, 0.5, seed=21)


@pytest.fixture(scope="module")
def runner_stats(runner_graph):
    return compute_statistics(runner_graph)


def run_on(graph, method="gps", budget=300, stream_seed=0, sampler_seed=1,
           **fields):
    spec = RunSpec(source="<in-memory>", method=method, budget=budget,
                   stream_seed=stream_seed, sampler_seed=sampler_seed,
                   **fields)
    return run(spec, graph=graph)


class TestRunGps:
    def test_shared_sample_protocol(self, runner_graph):
        report = run_on(runner_graph, budget=300, stream_seed=0)
        assert report.in_stream.sample_size == report.post_stream.sample_size
        assert report.in_stream.threshold == report.post_stream.threshold
        assert report.spec.budget == 300
        assert report.update_time_us > 0.0

    def test_sample_fraction(self, runner_graph, runner_stats):
        report = run_on(runner_graph, budget=300)
        assert report.in_stream.sample_size / runner_stats.num_edges == (
            pytest.approx(300 / runner_stats.num_edges)
        )

    def test_no_overflow_is_exact(self, runner_graph, runner_stats):
        report = run_on(runner_graph, budget=runner_stats.num_edges + 10)
        assert report.in_stream.triangles.value == pytest.approx(
            runner_stats.triangles
        )
        assert report.post_stream.triangles.value == pytest.approx(
            runner_stats.triangles
        )

    def test_deterministic(self, runner_graph):
        a = run_on(runner_graph, budget=200, stream_seed=3, sampler_seed=4)
        b = run_on(runner_graph, budget=200, stream_seed=3, sampler_seed=4)
        assert a.in_stream.triangles.value == b.in_stream.triangles.value
        assert a.post_stream.triangles.value == b.post_stream.triangles.value


class TestRunBaseline:
    @pytest.mark.parametrize("method", baseline_method_names())
    def test_every_method_dispatches(self, method, runner_graph, runner_stats):
        report = run_on(runner_graph, method=method, budget=120,
                        stream_seed=0, sampler_seed=1)
        assert report.spec.method == method
        assert report.triangle_estimate >= 0.0
        assert report.update_time_us > 0.0
        assert absolute_relative_error(
            report.triangle_estimate, runner_stats.triangles
        ) >= 0.0

    def test_unknown_method_raises(self, runner_graph):
        with pytest.raises(ValueError):
            run_on(runner_graph, method="nope", budget=10)

    def test_gps_post_reasonable(self, runner_graph, runner_stats):
        report = run_on(runner_graph, method="gps-post", budget=350,
                        stream_seed=0)
        assert absolute_relative_error(
            report.triangle_estimate, runner_stats.triangles
        ) < 1.0


class TestTracking:
    def test_gps_tracking_alignment(self, runner_graph):
        report = run_on(runner_graph, budget=200, checkpoints=6)
        points = report.tracking
        assert len(points) == 6
        assert all(p.in_stream is not None for p in points)
        positions = [p.position for p in points]
        assert positions == sorted(positions)
        assert positions[-1] == runner_graph.num_edges

    def test_gps_tracking_exact_when_capacity_large(self, runner_graph):
        spec = RunSpec(source="<in-memory>", method="gps",
                       budget=runner_graph.num_edges + 5, checkpoints=4)
        report = run(spec, graph=runner_graph, include_post=True)
        for point in report.tracking:
            assert point.in_stream.triangles.value == pytest.approx(
                point.exact_triangles
            )
            assert point.post_stream.triangles.value == pytest.approx(
                point.exact_triangles
            )

    def test_gps_tracking_without_post(self, runner_graph):
        report = run_on(runner_graph, budget=100, checkpoints=3)
        assert len(report.tracking) == 3
        assert all(p.post_stream is None for p in report.tracking)
        assert all(p.in_stream is not None for p in report.tracking)

    def test_track_counter(self, runner_graph):
        """An unregistered counter tracks through the engine directly,
        scored against the exact series counted before the pass."""
        counter = TriestImpr(150, seed=0)
        stream = EdgeStream.from_graph(runner_graph, seed=0)
        checkpoints = stream.checkpoints(5)
        exact = iter(prefix_counts(*stream.columnar(), checkpoints))
        marks, truths, estimates = [], [], []

        def record(t):
            marks.append(t)
            truths.append(next(exact)[0])
            estimates.append(counter.triangle_estimate)

        StreamEngine(counter).run(
            stream, checkpoints=checkpoints, on_checkpoint=record
        )
        assert marks == checkpoints
        assert len(truths) == len(estimates) == 5
        assert truths == sorted(truths)
        assert truths[-1] == compute_statistics(runner_graph).triangles
