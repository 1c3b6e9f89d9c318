"""Tests for the declarative repro.api facade (registry, specs, run)."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    RunSpec,
    baseline_method_names,
    get_method,
    get_weight,
    method_names,
    register_method,
    register_weight,
    replicate,
    run,
    weight_names,
)
from repro.api.registry import _METHODS, _WEIGHTS
from repro.baselines.triest import TriestBase, TriestImpr
from repro.core.in_stream import InStreamEstimator
from repro.core.weights import TriangleWeight, UniformWeight
from repro.graph.exact import compute_statistics
from repro.graph.generators import powerlaw_cluster
from repro.streams.stream import EdgeStream


@pytest.fixture(scope="module")
def api_graph():
    return powerlaw_cluster(300, 3, 0.5, seed=13)


@pytest.fixture(scope="module")
def api_stats(api_graph):
    return compute_statistics(api_graph)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_methods_registered(self):
        names = set(method_names())
        assert {
            "gps", "gps-post", "gps-in-stream", "triest", "triest-impr",
            "mascot", "mascot-c", "nsamp", "jsp", "gsh", "buriol",
        } <= names
        assert set(baseline_method_names()) == names - {"gps"}

    def test_builtin_weights_registered(self):
        assert {"triangle", "uniform", "wedge"} <= set(weight_names())
        assert isinstance(get_weight("uniform").factory(), UniformWeight)
        assert isinstance(get_weight("triangle").factory(), TriangleWeight)

    def test_unknown_method_lists_known_names(self):
        with pytest.raises(ValueError, match="unknown method 'nope'.*triest"):
            get_method("nope")

    def test_unknown_weight_lists_known_names(self):
        with pytest.raises(ValueError, match="unknown weight 'nope'.*uniform"):
            get_weight("nope")

    def test_register_and_lookup_custom_method(self):
        try:
            @register_method("test-custom", description="custom for tests")
            def make_custom(budget, stream_length, seed):
                return TriestBase(budget, seed=seed)

            spec = get_method("test-custom")
            counter = spec.make(10, 100, 0)
            assert isinstance(counter, TriestBase)
            assert spec.extract(counter) == {"triangles": 0.0}
        finally:
            _METHODS.pop("test-custom", None)

    def test_duplicate_method_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_method("triest")(lambda budget, n, seed: None)

    def test_duplicate_weight_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_weight("uniform")(UniformWeight)

    def test_custom_weight_round_trip(self):
        try:
            register_weight("test-uniform2")(lambda: UniformWeight(2.0))
            weight = get_weight("test-uniform2").factory()
            assert weight.constant == 2.0
        finally:
            _WEIGHTS.pop("test-uniform2", None)

    def test_budget_interpretation_validates(self):
        with pytest.raises(ValueError, match="budget"):
            get_method("triest").make(0, 100, 0)


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
class TestRunSpec:
    def test_json_round_trip(self):
        replicated = RunSpec(
            source="infra-roadNet-CA", method="triest-impr", budget=400,
            weight="uniform", stream_seed=3, sampler_seed=9,
            replications=4, workers=2,
        )
        tracking = replicated.replace(replications=1, workers=None,
                                      checkpoints=5)
        for spec in (replicated, tracking):
            assert RunSpec.from_json(spec.to_json()) == spec
            assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_defaults_round_trip(self):
        spec = RunSpec(source="x")
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"source": "x", "frobnicate": 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"source": ""},
            {"source": "x", "budget": 0},
            {"source": "x", "checkpoints": -1},
            {"source": "x", "replications": 0},
            {"source": "x", "workers": -1},
            {"source": "x", "replications": 2, "stream_seed": None},
            {"source": "x", "replications": 2, "checkpoints": 3},
            # A float shard count would reach `budget % shards`, which
            # overflows for a budget beyond float range.
            {"source": "x", "budget": 10**400, "shards": 1.5},
            {"source": "x", "budget": 8, "shards": 2.0},
            # Integer fields are checked by type: a quoted seed would
            # stream another permutation, a float budget fail later.
            {"source": "x", "stream_seed": "7"},
            {"source": "x", "stream_seed": True},
            {"source": "x", "sampler_seed": 1.0},
            {"source": "x", "budget": 50.5},
            {"source": "x", "budget": True},
            {"source": "x", "checkpoints": 1.5},
            {"source": "x", "replications": 2.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunSpec(**kwargs)

    def test_replace(self):
        spec = RunSpec(source="x", budget=10)
        other = spec.replace(budget=20, method="triest")
        assert other.budget == 20 and other.method == "triest"
        assert spec.budget == 10  # original untouched


# ----------------------------------------------------------------------
# run(spec): equivalence with the legacy hand-rolled paths
# ----------------------------------------------------------------------
class TestRunEquivalence:
    def test_gps_matches_direct_estimator_pass(self, api_graph):
        """run(spec) is bit-identical to the hand-rolled GPS protocol."""
        report = run(
            RunSpec(source="<g>", method="gps", budget=150,
                    stream_seed=2, sampler_seed=5),
            graph=api_graph,
        )
        direct = InStreamEstimator(150, seed=5)
        direct.process_stream(EdgeStream.from_graph(api_graph, seed=2))
        assert report.estimates["in_stream_triangles"] == direct.triangle_estimate
        assert report.estimates["in_stream_wedges"] == direct.wedge_estimate
        assert report.in_stream.triangles.value == direct.triangle_estimate
        assert report.threshold == direct.sampler.threshold
        assert report.sample_size == direct.sampler.sample_size

    def test_baseline_matches_direct_counter_pass(self, api_graph):
        report = run(
            RunSpec(source="<g>", method="triest-impr", budget=120,
                    stream_seed=1, sampler_seed=7),
            graph=api_graph,
        )
        direct = TriestImpr(120, seed=7)
        for u, v in EdgeStream.from_graph(api_graph, seed=1):
            direct.process(u, v)
        assert report.estimates["triangles"] == direct.triangle_estimate

    def test_unknown_method_raises(self, api_graph):
        with pytest.raises(ValueError, match="unknown method"):
            run(RunSpec(source="<g>", method="nope"), graph=api_graph)

    def test_weight_on_weight_free_method_rejected(self, api_graph):
        with pytest.raises(ValueError, match="does not use a weight"):
            run(RunSpec(source="<g>", method="triest", budget=50,
                        weight="wedge"), graph=api_graph)

    def test_unseeded_file_pass_matches_direct_drive(self, api_graph, tmp_path):
        """A sample-style run (no stream seed) streams the file's simplified
        edges in file order: it equals the estimator driven directly
        over the reference line loop."""
        from repro.graph.io import write_edge_list

        path = str(tmp_path / "unseeded.txt")
        write_edge_list(api_graph, path)
        unseeded = run(RunSpec(source=path, method="gps", budget=90,
                               stream_seed=None, sampler_seed=4))
        from repro.graph.io import iter_edge_list
        from repro.streams.transforms import simplify_edges

        direct = InStreamEstimator(90, seed=4)
        direct.process_stream(simplify_edges(iter_edge_list(path)))
        assert (unseeded.estimates["in_stream_triangles"]
                == direct.triangle_estimate)
        assert unseeded.threshold == direct.sampler.threshold

    def test_unresolvable_source_raises(self):
        with pytest.raises(ValueError, match="cannot resolve source"):
            run(RunSpec(source="no-such-dataset-or-file"))


# ----------------------------------------------------------------------
# run(spec): tracking and replicated modes
# ----------------------------------------------------------------------
class TestRunModes:
    def test_tracking_pass_records_checkpoints(self, api_graph):
        report = run(
            RunSpec(source="<g>", method="gps", budget=100, checkpoints=5),
            graph=api_graph, include_post=True,
        )
        assert report.mode == "track"
        positions = [p.position for p in report.tracking]
        stream = EdgeStream.from_graph(api_graph, seed=0)
        assert positions == stream.checkpoints(5)
        last = report.tracking[-1]
        exact = compute_statistics(api_graph)
        assert last.exact_triangles == exact.triangles
        assert last.in_stream is not None and last.post_stream is not None

    def test_tracking_pass_for_baseline(self, api_graph):
        report = run(
            RunSpec(source="<g>", method="triest", budget=100, checkpoints=4),
            graph=api_graph,
        )
        assert len(report.tracking) == 4
        assert all(p.in_stream is None for p in report.tracking)
        assert report.tracking[-1].estimate == report.estimates["triangles"]

    def test_replicated_baseline_mean_ci_sanity(self, api_graph, api_stats):
        report = run(
            RunSpec(source="<g>", method="triest", budget=200,
                    replications=6, workers=0),
            graph=api_graph,
        )
        assert report.mode == "replicate"
        summary = report.metrics["triangles"]
        assert summary.count == 6
        assert summary.ci_low <= summary.mean <= summary.ci_high
        assert summary.variance >= 0.0
        # Reservoir TRIEST is unbiased; the 6-seed mean should land in the
        # right ballpark of the truth (generous Monte-Carlo tolerance).
        assert summary.mean == pytest.approx(api_stats.triangles, rel=0.8)
        assert report.estimates["triangles"] == summary.mean

    def test_replicated_pool_matches_inline(self, api_graph):
        kwargs = dict(method="triest-impr", budget=150, replications=4)
        inline = run(RunSpec(source="<g>", workers=0, **kwargs), graph=api_graph)
        pooled = run(RunSpec(source="<g>", workers=2, **kwargs), graph=api_graph)
        assert pooled.workers == 2 and inline.workers == 0
        assert pooled.metrics["triangles"].mean == inline.metrics["triangles"].mean
        assert pooled.metrics["triangles"].variance == (
            inline.metrics["triangles"].variance
        )

    def test_replicate_entry_point_honours_single_replication(self, api_graph):
        """replicate() with R=1 still yields a replicate-shaped report."""
        report = replicate(
            RunSpec(source="<g>", method="gps", budget=100, replications=1,
                    workers=0),
            graph=api_graph,
        )
        assert report.mode == "replicate"
        summary = report.metrics["in_stream_triangles"]
        assert summary.count == 1
        assert summary.ci_low == summary.mean == summary.ci_high

    def test_replicate_entry_point_rejects_checkpoints(self, api_graph):
        with pytest.raises(ValueError, match="mutually exclusive"):
            replicate(
                RunSpec(source="<g>", budget=50, checkpoints=4,
                        replications=1, workers=0),
                graph=api_graph,
            )

    def test_gps_bundle_metrics_match_extractor(self, api_graph):
        """from_bundles report values == the worker extractor's values."""
        spec = RunSpec(source="<g>", method="gps", budget=110,
                       stream_seed=3, sampler_seed=8)
        single = run(spec, graph=api_graph)  # metrics via from_bundles
        pooled = replicate(spec.replace(workers=0), graph=api_graph)  # extract
        assert single.estimates == {
            name: s.mean for name, s in pooled.metrics.items()
        }

    def test_triangle_estimate_accessor(self, api_graph):
        gps = run(RunSpec(source="<g>", method="gps", budget=80),
                  graph=api_graph)
        assert gps.triangle_estimate == gps.estimates["in_stream_triangles"]
        base = run(RunSpec(source="<g>", method="triest", budget=80),
                   graph=api_graph)
        assert base.triangle_estimate == base.estimates["triangles"]
        from dataclasses import replace

        with pytest.raises(KeyError, match="no triangle metric"):
            _ = replace(base, estimates={"weird_metric": 1.0}).triangle_estimate

    def test_replicated_gps_keeps_shared_sample_metrics(self, api_graph):
        report = run(
            RunSpec(source="<g>", method="gps", budget=100,
                    replications=3, workers=0),
            graph=api_graph,
        )
        assert set(report.metrics) == {
            "in_stream_triangles", "post_stream_triangles",
            "in_stream_wedges", "in_stream_clustering",
        }


# ----------------------------------------------------------------------
# RunReport serialisation
# ----------------------------------------------------------------------
class TestRunReport:
    def test_json_parses_and_round_trips_spec(self, api_graph):
        spec = RunSpec(source="<g>", method="gps", budget=80,
                       replications=3, workers=0)
        report = run(spec, graph=api_graph)
        payload = json.loads(report.to_json())
        assert RunSpec.from_dict(payload["spec"]) == spec
        assert payload["mode"] == "replicate"
        assert payload["metrics"]["in_stream_triangles"]["count"] == 3

    def test_single_pass_json_carries_estimate_bundles(self, api_graph):
        report = run(RunSpec(source="<g>", method="gps", budget=80),
                     graph=api_graph)
        payload = json.loads(report.to_json())
        for flavour in ("in_stream", "post_stream"):
            assert {"triangles", "wedges", "clustering"} <= set(payload[flavour])
            tri = payload[flavour]["triangles"]
            assert tri["ci_low"] <= tri["value"] <= tri["ci_high"]

    def test_tracking_json(self, api_graph):
        report = run(RunSpec(source="<g>", method="triest", budget=100,
                             checkpoints=3), graph=api_graph)
        payload = json.loads(report.to_json())
        assert len(payload["tracking"]) == 3
        assert payload["tracking"][-1]["position"] == api_graph.num_edges
