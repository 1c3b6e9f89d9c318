"""Tests for StreamEngine and for replicated runs on the executor."""

from __future__ import annotations

import pytest

from repro.baselines.triest import TriestImpr
from repro.core.in_stream import InStreamEstimator
from repro.core.priority_sampler import GraphPrioritySampler
from repro.core.weights import UniformWeight
from repro.api.execution import MetricSummary, execute, replicate, run
from repro.api.spec import RunSpec
from repro.engine import StreamEngine
from repro.graph.exact import compute_statistics
from repro.graph.generators import powerlaw_cluster
from repro.stats.running import RunningMoments
from repro.streams.stream import EdgeStream


@pytest.fixture(scope="module")
def engine_graph():
    return powerlaw_cluster(250, 3, 0.5, seed=11)


@pytest.fixture(scope="module")
def engine_stream(engine_graph):
    return EdgeStream.from_graph(engine_graph, seed=0)


class TestStreamEngine:
    def test_batched_path_matches_direct_processing(self, engine_stream):
        direct = InStreamEstimator(100, seed=3)
        direct.process_stream(engine_stream)
        driven = InStreamEstimator(100, seed=3)
        stats = StreamEngine(driven).run(engine_stream)
        assert stats.edges == len(engine_stream)
        assert stats.elapsed_seconds > 0.0
        assert driven.triangle_estimate == direct.triangle_estimate
        assert driven.wedge_estimate == direct.wedge_estimate
        assert driven.sampler.threshold == direct.sampler.threshold

    def test_checkpoints_fire_at_positions(self, engine_stream):
        marks = engine_stream.checkpoints(6)
        fired = []
        engine = StreamEngine(GraphPrioritySampler(50, seed=1))
        stats = engine.run(engine_stream, checkpoints=marks,
                           on_checkpoint=fired.append)
        assert fired == marks
        assert stats.checkpoints == tuple(marks)

    def test_checkpoint_state_matches_prefix_run(self, engine_stream):
        """At checkpoint t the counter state equals a fresh run over the
        t-edge prefix (batching must not smear past the mark)."""
        marks = engine_stream.checkpoints(4)
        estimator = InStreamEstimator(60, seed=9)
        seen = {}

        def record(t):
            seen[t] = estimator.triangle_estimate

        StreamEngine(estimator).run(engine_stream, checkpoints=marks,
                                    on_checkpoint=record)
        for t in marks:
            fresh = InStreamEstimator(60, seed=9)
            fresh.process_stream(engine_stream.prefix(t))
            assert seen[t] == fresh.triangle_estimate

    def test_counter_without_process_many(self, engine_stream):
        counter = TriestImpr(60, seed=0)
        stats = StreamEngine(counter).run(engine_stream)
        assert stats.edges == len(engine_stream)
        assert counter.triangle_estimate >= 0.0

    def test_rejects_counter_without_process_many(self):
        class PerEdgeOnly:
            def process(self, u, v):
                pass

        with pytest.raises(TypeError, match="process_many"):
            StreamEngine(PerEdgeOnly())
        with pytest.raises(TypeError, match="process_many"):
            StreamEngine(PerEdgeOnly(), chunk_size=64)

    def test_checkpoints_beyond_stream_never_fire(self):
        fired = []
        stats = StreamEngine(GraphPrioritySampler(5, seed=0)).run(
            [(0, 1), (1, 2)], checkpoints=[1, 5], on_checkpoint=fired.append
        )
        assert fired == [1]
        assert stats.edges == 2
        assert stats.checkpoints == (1,)

    def test_rejects_unsorted_checkpoints(self):
        engine = StreamEngine(GraphPrioritySampler(5, seed=0))
        with pytest.raises(ValueError):
            engine.run([(0, 1)], checkpoints=[3, 2])
        with pytest.raises(ValueError):
            engine.run([(0, 1)], checkpoints=[0, 2])

    def test_stats_throughput_fields(self, engine_stream):
        stats = StreamEngine(GraphPrioritySampler(40, seed=0)).run(engine_stream)
        assert stats.edges_per_second > 0.0
        assert stats.update_time_us > 0.0


def seeded(method="gps", budget=100, replications=4, stream_seed=0,
           sampler_seed=10_000, **kwargs):
    """The single-pass specs a replicated run hands the executor."""
    return [
        RunSpec(source="<g>", method=method, budget=budget,
                stream_seed=stream_seed + i, sampler_seed=sampler_seed + i,
                **kwargs)
        for i in range(replications)
    ]


def replicated(graph, workers, **kwargs):
    kwargs.setdefault("sampler_seed", 10_000)
    return run(RunSpec(source="<g>", workers=workers, **kwargs), graph=graph)


def outcome(report):
    """Everything a task report carries except its wall-clock timings."""
    return (report.estimates, report.sample_size, report.threshold,
            report.in_stream, report.post_stream)


class TestReplicatedRunner:
    """Replicated runs: R seeded single-pass tasks on the executor."""

    def test_eight_replications_two_workers(self, engine_graph):
        report = replicated(engine_graph, 2, budget=100, replications=8)
        assert report.workers == 2
        assert report.replications == 8
        reports, _ = execute(seeded(replications=8), workers=2,
                             populations={"<g>": engine_graph})
        # Aggregates agree with a direct Welford pass over the tasks.
        moments = RunningMoments()
        moments.extend(r.estimates["in_stream_triangles"] for r in reports)
        summary = report.metrics["in_stream_triangles"]
        assert summary.mean == pytest.approx(moments.mean)
        assert summary.variance == pytest.approx(moments.variance)
        assert summary.count == 8
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_pool_matches_inline_execution(self, engine_graph):
        specs = seeded(replications=4)
        pooled, _ = execute(specs, workers=2,
                            populations={"<g>": engine_graph})
        inline, _ = execute(specs, workers=0,
                            populations={"<g>": engine_graph})
        assert [outcome(r) for r in pooled] == [outcome(r) for r in inline]
        pooled_run = replicated(engine_graph, 2, replications=4)
        inline_run = replicated(engine_graph, 0, replications=4)
        assert inline_run.workers == 0
        assert pooled_run.metrics == inline_run.metrics
        assert pooled_run.estimates == inline_run.estimates

    def test_replication_stream_matches_from_graph_protocol(self, engine_graph):
        """Replication i streams exactly EdgeStream.from_graph(graph,
        seed=stream_seed + i) with sampler seed sampler_seed + i."""
        report = replicated(engine_graph, 0, budget=90, replications=2,
                            stream_seed=5, sampler_seed=77)
        direct = []
        for i in range(2):
            estimator = InStreamEstimator(90, seed=77 + i)
            estimator.process_stream(
                EdgeStream.from_graph(engine_graph, seed=5 + i)
            )
            direct.append(estimator)
        assert report.metrics["in_stream_triangles"] == (
            MetricSummary.from_values([e.triangle_estimate for e in direct])
        )
        (task,), _ = execute(seeded(budget=90, replications=1, stream_seed=5,
                                    sampler_seed=77),
                             workers=0, populations={"<g>": engine_graph})
        assert task.threshold == direct[0].sampler.threshold

    def test_mean_tracks_exact_count(self, engine_graph):
        exact = compute_statistics(engine_graph)
        report = replicated(engine_graph, 2, budget=150, replications=8)
        assert report.metrics["in_stream_triangles"].mean == pytest.approx(
            exact.triangles, rel=0.6
        )

    def test_accepts_raw_edge_sequence(self, engine_graph):
        edges = list(engine_graph.edges())
        report = replicated(edges, 0, budget=80, replications=2)
        assert report.replications == 2
        assert report.metrics["in_stream_triangles"].count == 2

    def test_picklable_weight_functions(self, engine_graph):
        kwargs = dict(budget=60, replications=3)
        pooled = run(RunSpec(source="<g>", workers=2, **kwargs),
                     graph=engine_graph, weight_fn=UniformWeight())
        inline = run(RunSpec(source="<g>", workers=0, **kwargs),
                     graph=engine_graph, weight_fn=UniformWeight())
        assert pooled.replications == 3
        assert pooled.metrics == inline.metrics

    def test_invalid_configurations_rejected(self, engine_graph):
        with pytest.raises(ValueError):
            RunSpec(source="<g>", budget=0)
        with pytest.raises(ValueError):
            RunSpec(source="<g>", budget=5, replications=0)
        with pytest.raises(ValueError):
            RunSpec(source="<g>", budget=5, workers=-1)
        with pytest.raises(ValueError):
            RunSpec(source="<g>", budget=5, replications=2, stream_seed=None)

    def test_worker_task_is_deterministic(self, engine_graph):
        spec = RunSpec(source="<g>", budget=70, stream_seed=3, sampler_seed=4)
        a, b = execute([spec, spec], workers=0,
                       populations={"<g>": engine_graph})[0]
        assert outcome(a) == outcome(b)
        assert a.counter is None  # tasks strip the live counter


class TestReplicatedBaselines:
    """Any registered method fans through the same executor."""

    def test_triest_through_pool(self, engine_graph):
        report = replicated(engine_graph, 2, budget=100, replications=4,
                            method="triest")
        assert report.spec.method == "triest"
        assert set(report.metrics) == {"triangles"}
        stats = report.metrics["triangles"]
        assert stats.count == 4
        assert stats.ci_low <= stats.mean <= stats.ci_high

    def test_baseline_pool_matches_inline(self, engine_graph):
        specs = seeded(method="triest-impr", budget=120, replications=3)
        pooled, _ = execute(specs, workers=2,
                            populations={"<g>": engine_graph})
        inline, _ = execute(specs, workers=0,
                            populations={"<g>": engine_graph})
        assert [r.estimates for r in pooled] == [r.estimates for r in inline]

    def test_baseline_replication_matches_direct_pass(self, engine_graph):
        """Replication i of a baseline runs exactly the seeded stream."""
        report = replicate(
            RunSpec(source="<g>", method="triest-impr", budget=90,
                    stream_seed=6, sampler_seed=42, workers=0),
            graph=engine_graph,
        )
        direct = TriestImpr(90, seed=42)
        for u, v in EdgeStream.from_graph(engine_graph, seed=6):
            direct.process(u, v)
        assert report.metrics["triangles"].mean == direct.triangle_estimate

    def test_unknown_method_rejected_up_front(self, engine_graph, monkeypatch):
        import repro.api.execution as execution

        def no_work(*args, **kwargs):
            raise AssertionError("resolved a source for an unknown method")

        monkeypatch.setattr(execution, "_resolve_edges", no_work)
        with pytest.raises(ValueError, match="unknown method"):
            replicated(engine_graph, 2, budget=10, replications=4,
                       method="frobnicate")

    def test_gps_legacy_accessors_still_work(self, engine_graph):
        report = replicated(engine_graph, 0, budget=80, replications=2)
        assert report.spec.method == "gps"
        assert report.estimates["in_stream_triangles"] == (
            report.metrics["in_stream_triangles"].mean
        )
        assert report.triangle_estimate == report.estimates[
            "in_stream_triangles"
        ]


class TestMetricSummary:
    def test_single_value_collapses(self):
        import repro

        assert repro.MetricSummary is MetricSummary
        summary = MetricSummary.from_values([5.0])
        assert summary.mean == 5.0
        assert summary.variance == 0.0
        assert summary.ci_low == summary.ci_high == 5.0

    def test_known_values(self):
        summary = MetricSummary.from_values([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.variance == pytest.approx(5.0 / 3.0)
        assert summary.count == 4
        assert summary.ci_low < 2.5 < summary.ci_high
