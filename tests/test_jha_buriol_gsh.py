"""Tests for the JSP, Buriol, and graph sample-and-hold baselines."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines.buriol import BuriolSampler
from repro.baselines.jha import JhaSeshadhriPinar
from repro.baselines.sample_hold import GraphSampleHold
from repro.graph.generators import complete_graph
from repro.stats.running import RunningMoments
from repro.streams.stream import EdgeStream

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def drive(counter, graph, stream_seed=0):
    for u, v in EdgeStream.from_graph(graph, seed=stream_seed):
        counter.process(u, v)
    return counter


class TestJhaSeshadhriPinar:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            JhaSeshadhriPinar(1, 10)
        with pytest.raises(ValueError):
            JhaSeshadhriPinar(10, 0)

    def test_self_loops_ignored(self):
        counter = JhaSeshadhriPinar(4, 4, seed=0)
        counter.process(3, 3)
        assert counter.arrivals == 0

    def test_complete_graph_transitivity(self):
        # K20 has transitivity 1; ρ should be close to 1/3 and κ to 1.
        graph = complete_graph(20)
        moments = RunningMoments()
        for seed in range(30):
            counter = drive(
                JhaSeshadhriPinar(60, 60, seed=seed), graph, stream_seed=seed
            )
            moments.add(counter.transitivity_estimate)
        assert moments.mean == pytest.approx(1.0, abs=0.15)

    def test_triangle_estimate_tracks_truth(self, social_graph, social_stats):
        moments = RunningMoments()
        for seed in range(40):
            counter = drive(
                JhaSeshadhriPinar(200, 200, seed=6000 + seed),
                social_graph,
                stream_seed=seed,
            )
            moments.add(counter.triangle_estimate)
        # JSP is approximate (not strictly unbiased at small reservoirs):
        # accept the truth within 35% of the mean.
        assert moments.mean == pytest.approx(social_stats.triangles, rel=0.35)

    def test_zero_before_anything_closes(self):
        counter = JhaSeshadhriPinar(4, 4, seed=0)
        counter.process(0, 1)
        assert counter.triangle_estimate == 0.0
        assert counter.closed_fraction == 0.0

    def test_reservoir_wedge_count_tracks_degrees(self):
        counter = JhaSeshadhriPinar(100, 10, seed=0)
        counter.process(0, 1)
        counter.process(0, 2)
        # Every cell holds one of the two edges; the wedge total follows
        # the cell-degree table (duplicate cells included by design).
        assert counter.total_reservoir_wedges > 0


class TestBuriol:
    def test_instance_validation(self):
        with pytest.raises(ValueError):
            BuriolSampler(0)

    def test_fixed_universe(self, k4_graph):
        counter = BuriolSampler(200, nodes=list(range(4)), seed=0)
        for u, v in EdgeStream.from_graph(k4_graph, seed=0):
            counter.process(u, v)
        assert counter.num_nodes_seen == 4

    def test_mostly_zero_on_sparse_graphs(self, social_graph):
        """The paper's diagnosis: Buriol rarely finds triangles."""
        zero_estimates = 0
        runs = 30
        for seed in range(runs):
            counter = drive(BuriolSampler(30, seed=seed), social_graph,
                            stream_seed=seed)
            if counter.hit_count == 0:
                zero_estimates += 1
        assert zero_estimates > runs // 2

    def test_unbiased_in_expectation_on_dense_graph(self):
        # With the node universe fixed up front (the incidence-model
        # assumption), the estimator is exactly unbiased; the growing
        # universe variant carries a documented small bias.
        graph = complete_graph(12)  # 220 triangles, dense => hits happen
        moments = RunningMoments()
        for seed in range(150):
            counter = BuriolSampler(50, nodes=list(range(12)), seed=seed)
            drive(counter, graph, stream_seed=seed)
            moments.add(counter.triangle_estimate)
        assert abs(moments.mean - 220.0) < 5.0 * moments.std_error

    def test_estimate_zero_without_nodes(self):
        counter = BuriolSampler(5, seed=0)
        assert counter.triangle_estimate == 0.0


class TestGraphSampleHold:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GraphSampleHold(0.0)
        with pytest.raises(ValueError):
            GraphSampleHold(0.5, q=1.5)

    def test_exact_at_unit_probabilities(self, k5_graph):
        counter = drive(GraphSampleHold(1.0, 1.0, seed=0), k5_graph)
        assert counter.triangle_estimate == pytest.approx(10.0)
        assert counter.edge_estimate == pytest.approx(10.0)

    def test_edge_estimate_unbiased(self, social_graph):
        moments = RunningMoments()
        for seed in range(150):
            counter = drive(
                GraphSampleHold(0.2, 0.5, seed=seed), social_graph, stream_seed=seed
            )
            moments.add(counter.edge_estimate)
        assert abs(moments.mean - social_graph.num_edges) < 5.0 * moments.std_error

    def test_triangle_estimate_unbiased(self, social_graph, social_stats):
        moments = RunningMoments()
        for seed in range(150):
            counter = drive(
                GraphSampleHold(0.2, 0.5, seed=7000 + seed),
                social_graph,
                stream_seed=seed,
            )
            moments.add(counter.triangle_estimate)
        assert abs(moments.mean - social_stats.triangles) < 5.0 * moments.std_error

    def test_hold_bias_grows_sample(self, social_graph):
        plain = drive(GraphSampleHold(0.2, 0.2, seed=1), social_graph)
        held = drive(GraphSampleHold(0.2, 0.8, seed=1), social_graph)
        assert held.sample_size > plain.sample_size

    def test_default_q_is_one(self, k4_graph):
        counter = GraphSampleHold(0.5, seed=0)
        drive(counter, k4_graph)
        assert counter.sample_size >= 1

    def test_string_label_estimate_ignores_the_hash_seed(self):
        """The held triangles' products are visited in set order, which
        follows the string hash; their sum must not."""
        script = (
            "from repro.api import RunSpec, run\n"
            "from repro.graph.adjacency import AdjacencyGraph\n"
            "from repro.graph.generators import powerlaw_cluster\n"
            "g = powerlaw_cluster(200, 3, 0.5, seed=8)\n"
            "named = AdjacencyGraph((f'n{u}', f'n{v}') for u, v in g.edges())\n"
            "spec = RunSpec(source='g', method='gsh', budget=60,"
            " stream_seed=4, sampler_seed=9)\n"
            "print(repr(run(spec, graph=named).estimates['triangles']))\n"
        )
        outputs = set()
        for hash_seed in ("1", "2", "4", "5"):
            env = dict(os.environ, PYTHONPATH=SRC_DIR,
                       PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, outputs
