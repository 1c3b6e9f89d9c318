"""Tests for the NSAMP (neighbourhood sampling) baseline."""

from __future__ import annotations

import pytest

from repro.api import RunSpec, run
from repro.baselines.neighborhood import NeighborhoodSampling
from repro.graph.generators import powerlaw_cluster
from repro.graph.io import write_edge_list
from repro.stats.running import RunningMoments
from repro.streams.stream import EdgeStream


def drive(counter, graph, stream_seed=0):
    for u, v in EdgeStream.from_graph(graph, seed=stream_seed):
        counter.process(u, v)
    return counter


class TestBasics:
    def test_instances_validation(self):
        with pytest.raises(ValueError):
            NeighborhoodSampling(0)

    def test_empty_stream_estimate(self):
        assert NeighborhoodSampling(10, seed=0).triangle_estimate == 0.0

    def test_self_loops_ignored(self):
        counter = NeighborhoodSampling(10, seed=0)
        counter.process(1, 1)
        assert counter.arrivals == 0

    def test_single_triangle_capture_logic(self):
        """With one instance, e1=(0,1), e2=(1,2), edge (0,2) must close it."""
        counter = NeighborhoodSampling(1, seed=0)
        # t=1: e1 <- (0,1) with probability 1.
        counter.process(0, 1)
        # t=2: adjacency holds; c=1 so e2 <- (1,2) with probability 1,
        # unless the level-1 coin (prob 1/2) replaced e1 first.  Run until
        # we find a seed where the closure is detected.
        counter.process(1, 2)
        counter.process(0, 2)
        estimate = counter.triangle_estimate
        # Estimate is either 0 (e1 replaced) or c·t = 1·3.
        assert estimate in (0.0, 3.0)

    def test_closed_instances_counted(self, k4_graph):
        counter = drive(NeighborhoodSampling(500, seed=1), k4_graph)
        assert 0 < counter.closed_instances <= 500


class TestUnbiasedness:
    def test_k4_mean(self, k4_graph):
        # K4 has 4 triangles; average over instances and seeds.
        moments = RunningMoments()
        for seed in range(100):
            counter = drive(NeighborhoodSampling(300, seed=seed), k4_graph,
                            stream_seed=seed)
            moments.add(counter.triangle_estimate)
        assert abs(moments.mean - 4.0) < 5.0 * moments.std_error

    def test_social_graph_mean(self, social_graph, social_stats):
        moments = RunningMoments()
        for seed in range(40):
            counter = drive(
                NeighborhoodSampling(400, seed=5000 + seed),
                social_graph,
                stream_seed=seed,
            )
            moments.add(counter.triangle_estimate)
        assert abs(moments.mean - social_stats.triangles) < 5.0 * moments.std_error

    def test_more_instances_reduce_variance(self, social_graph):
        few = RunningMoments()
        many = RunningMoments()
        for seed in range(30):
            few.add(
                drive(
                    NeighborhoodSampling(50, seed=seed), social_graph, stream_seed=seed
                ).triangle_estimate
            )
            many.add(
                drive(
                    NeighborhoodSampling(800, seed=seed), social_graph, stream_seed=seed
                ).triangle_estimate
            )
        assert many.variance < few.variance


class TestLabels:
    """NSAMP reads label identity only, so any int64 labels serve."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_estimate_is_shift_invariant(self, seed):
        edges = list(EdgeStream.from_graph(
            powerlaw_cluster(300, 4, 0.5, seed=3), seed=seed
        ))

        def estimate(shift):
            counter = NeighborhoodSampling(500, seed=seed)
            for u, v in edges:
                counter.process(u + shift, v + shift)
            return counter.triangle_estimate

        unshifted = estimate(0)
        assert unshifted > 0.0
        for shift in (-1, -5, -100000, 1000):
            assert estimate(shift) == unshifted, shift

    def test_negative_file_ids_count(self, tmp_path):
        """Negative int32 ids reach NSAMP through the file reader."""
        graph = powerlaw_cluster(300, 4, 0.5, seed=3)
        reports = []
        for shift in (0, -100000):
            path = tmp_path / f"shift{shift}.txt"
            write_edge_list(((u + shift, v + shift)
                             for u, v in graph.edges()), path)
            reports.append(run(RunSpec(source=str(path), method="nsamp",
                                       budget=500, stream_seed=1,
                                       sampler_seed=1)))
        assert reports[0].estimates["triangles"] > 0.0
        assert reports[1].estimates == reports[0].estimates

    def test_unstorable_label_names_nsamp_and_label(self):
        ring = [("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n0")]
        with pytest.raises(ValueError, match=r"^nsamp .*'n[0-3]'"):
            run(RunSpec(source="<g>", method="nsamp", budget=10), graph=ring)
        counter = NeighborhoodSampling(4, seed=0)
        counter.process(0, 1)
        for label in (2**63, -(2**63) - 1, 1.5):
            with pytest.raises(ValueError, match=rf"^nsamp .*{label!r}"):
                counter.process(0, label)
        counter.process(2**63 - 1, -(2**63))
        assert counter.arrivals == 2
