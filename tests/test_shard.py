"""Tests for sharded GPS: router properties, ShardSpec, the runner,
and the sharded execution path behind ``RunSpec(shards=...)``.

The router tests are property-style: the partition must be a pure
function of the canonical (unordered) edge and the router seed — never
of arrival orientation, process identity or ``PYTHONHASHSEED`` — and
the shard substreams must concatenate back to a permutation of the
input.  The runner tests pin the merge algebra to the single-sampler
post-stream estimator (S=1 is exactly the unsharded estimate) and
prove the scalar and chunked drives, and inline and pooled sharded
replications, bit-identical.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.execution import execute, replicate, run
from repro.api.spec import RunSpec
from repro.api.sweep import SweepSpec, run_sweep
from repro.core.weights import UniformWeight, WedgeWeight, is_label_free
from repro.engine.stream_engine import StreamEngine
from repro.graph.generators import chung_lu
from repro.graph.io import write_edge_list
from repro.shard.router import (
    edge_key,
    edge_shard,
    shard_columns,
    split_stream,
)
from repro.shard.runner import (
    SHARDABLE_METHODS,
    ShardedRunner,
    validate_shardable_method,
)
from repro.shard.spec import ShardSpec
from repro.streams.stream import EdgeStream

np = pytest.importorskip("numpy")

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def edges():
    """A small heavy-tailed population with int labels."""
    graph = chung_lu(600, 3000, exponent=2.2, seed=5)
    return EdgeStream.canonical_edges(graph)


def _sharded_reference(edges, *, shards, budget, stream_seed, sampler_seed):
    """A default-weight sharded pass rebuilt from its parts: a tuple
    shuffle, ``split_stream``, one scalar engine drive per shard and
    ``merge_estimates``."""
    from repro.api.registry import get_method
    from repro.core.reservoir import snapshot_view
    from repro.stats.merge import merge_estimates

    order = list(edges)
    random.Random(stream_seed).shuffle(order)
    samples = []
    for s, substream in enumerate(split_stream(order, shards)):
        counter = get_method("gps-post").make(
            budget // shards, 0, sampler_seed * shards + s
        )
        StreamEngine(counter).run(substream)
        sampler = counter.sampler
        samples.append([
            (record.u, record.v,
             record.inclusion_probability(sampler.threshold))
            for record in snapshot_view(sampler.sample).records()
        ])
    return merge_estimates(samples)


def _assert_merged(result, merged):
    estimates = result.estimates
    assert estimates.triangles.value == merged.triangle_count
    assert estimates.triangles.variance == merged.triangle_variance
    assert estimates.wedges.value == merged.wedge_count
    assert estimates.wedges.variance == merged.wedge_variance
    assert estimates.sample_size == merged.sample_size


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class TestRouter:
    def test_orientation_invariant(self):
        for u, v in [(0, 1), (5, 2), (1000, 3), (7, 7_000_000)]:
            for seed in (0, 1, 99):
                assert edge_key(u, v, seed) == edge_key(v, u, seed)
                assert edge_shard(u, v, 8, seed) == edge_shard(v, u, 8, seed)

    def test_known_values_pin_the_mixer(self):
        # Hardcoded splitmix64 outputs: any change to the hash chain —
        # constants, canonicalisation, seeding — fails loudly here, and
        # the same values are recomputed in a fresh interpreter below,
        # so the partition is provably process-independent.
        assert edge_key(0, 1, 0) == 3092335531369821329
        assert edge_key(12345, 67890, 0) == 1174895183225651080
        assert edge_key(7, 3, 42) == 11553577166213567705

    def test_stable_across_processes_and_hash_seeds(self):
        script = (
            "from repro.shard.router import edge_key;"
            "print(edge_key(0, 1, 0), edge_key(12345, 67890, 0),"
            " edge_key(7, 3, 42))"
        )
        outputs = set()
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONPATH=SRC_DIR,
                       PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(result.stdout.strip())
        assert outputs == {
            "3092335531369821329 1174895183225651080 "
            "11553577166213567705"
        }

    def test_seed_changes_the_partition(self):
        pairs = [(i, i + 1) for i in range(200)]
        a = [edge_shard(u, v, 4, seed=0) for u, v in pairs]
        b = [edge_shard(u, v, 4, seed=1) for u, v in pairs]
        assert a != b

    def test_single_shard_short_circuits(self):
        assert edge_shard(10, 20, 1, seed=123) == 0

    def test_covers_all_shards(self, edges):
        for shards in (2, 4, 8):
            seen = {edge_shard(u, v, shards) for u, v in edges}
            assert seen == set(range(shards))

    def test_vectorized_matches_scalar(self, edges):
        us = np.asarray([u for u, _ in edges], dtype=np.int32)
        vs = np.asarray([v for _, v in edges], dtype=np.int32)
        for shards in (2, 4, 8):
            for seed in (0, 7):
                ids = shard_columns(us, vs, shards, seed)
                expected = [
                    edge_shard(u, v, shards, seed) for u, v in edges
                ]
                assert ids.tolist() == expected

    def test_vectorized_handles_negative_labels(self):
        # int32 columns sign-extend into the 64-bit mix exactly like
        # Python's & mask on negative ints; canonical min/max must be
        # taken on the *signed* values.
        pairs = [(-5, 3), (-100, -2), (7, -7), (-1, 0)]
        us = np.asarray([u for u, _ in pairs], dtype=np.int32)
        vs = np.asarray([v for _, v in pairs], dtype=np.int32)
        ids = shard_columns(us, vs, 4, seed=3)
        assert ids.tolist() == [
            edge_shard(u, v, 4, seed=3) for u, v in pairs
        ]

    def test_split_stream_is_an_order_preserving_partition(self, edges):
        buckets = split_stream(edges, 4, seed=0)
        assert len(buckets) == 4
        # Concatenation is a permutation of the input (here: equality as
        # multisets), and each bucket preserves arrival order.
        flat = [e for bucket in buckets for e in bucket]
        assert sorted(flat) == sorted(edges)
        position = {e: i for i, e in enumerate(edges)}
        for bucket in buckets:
            order = [position[e] for e in bucket]
            assert order == sorted(order)
        # Membership agrees with the scalar router.
        for s, bucket in enumerate(buckets):
            assert all(edge_shard(u, v, 4, 0) == s for u, v in bucket)


# ----------------------------------------------------------------------
# ShardSpec
# ----------------------------------------------------------------------
class TestShardSpec:
    def test_round_trip(self):
        spec = ShardSpec(shards=4, router_seed=9)
        assert ShardSpec.from_json(spec.to_json()) == spec
        assert ShardSpec.from_dict(spec.to_dict()) == spec

    def test_defaults(self):
        spec = ShardSpec()
        assert spec.shards == 1
        assert spec.router_seed == 0

    def test_replace(self):
        assert ShardSpec().replace(shards=8).shards == 8

    def test_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ShardSpec(shards=0)
        with pytest.raises(ValueError, match="router_seed"):
            ShardSpec(router_seed=-1)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ShardSpec.from_dict({"shards": 2, "replicas": 3})


# ----------------------------------------------------------------------
# ShardedRunner
# ----------------------------------------------------------------------
class TestShardedRunner:
    def test_single_shard_equals_unsharded_post_stream(self, edges):
        # S=1 routes everything to one sampler with the same seed the
        # plain path uses, so the merged estimate must be *exactly* the
        # single-sampler post-stream estimate.
        from repro.api.registry import get_method
        from repro.core.post_stream import PostStreamEstimator

        result = ShardedRunner(
            edges, shards=1, budget=400, stream_seed=3, sampler_seed=11,
        ).run()

        import random

        order = list(edges)
        random.Random(3).shuffle(order)
        counter = get_method("gps-post").make(400, len(order), 11)
        StreamEngine(counter).run(order)
        direct = PostStreamEstimator(counter.sampler).estimate()

        assert result.estimates.triangles.value == direct.triangles.value
        assert result.estimates.wedges.value == direct.wedges.value
        assert (
            result.estimates.triangles.variance
            == direct.triangles.variance
        )

    def test_budget_splits_evenly(self, edges):
        result = ShardedRunner(edges, shards=4, budget=400).run()
        assert result.shards == 4
        assert all(size <= 100 for size in result.shard_sample_sizes)
        assert sum(result.shard_edges) == len(edges)
        assert result.estimates.sample_size == sum(
            result.shard_sample_sizes
        )

    def test_layout_round_trip(self, edges):
        layout = ShardSpec(shards=2, router_seed=5)
        runner = ShardedRunner.from_layout(edges, layout, budget=100)
        assert runner.layout == layout

    def test_chunked_equals_scalar_pipeline(self, edges, scalar_drive):
        # The uniform weight engages the vectorised per-shard drives;
        # forcing the scalar drive must not change a single bit.
        kwargs = dict(shards=4, budget=400, weight_fn=UniformWeight())
        chunked = ShardedRunner(edges, **kwargs).run()
        scalar = scalar_drive(ShardedRunner(edges, **kwargs).run)
        assert chunked.pipeline == "chunked"
        assert scalar.pipeline == "scalar"
        assert (
            chunked.estimates.triangles.value
            == scalar.estimates.triangles.value
        )
        assert chunked.shard_thresholds == scalar.shard_thresholds
        assert chunked.shard_sample_sizes == scalar.shard_sample_sizes

    def test_pooled_equals_inline(self, edges):
        """Sharded replications fan out over the executor's pool; each
        pass drives its shards in sequence, bit-identically."""
        spec = RunSpec(source="inline", method="gps-post", budget=400,
                       weight="uniform", shards=4, replications=3,
                       stream_seed=2, sampler_seed=20)
        inline = run(spec.replace(workers=0), graph=edges)
        pooled = run(spec.replace(workers=2), graph=edges)
        assert pooled.workers == 2
        assert inline.workers == 0
        assert pooled.pipeline == inline.pipeline == "chunked"
        assert pooled.metrics == inline.metrics
        # ... and equal to the sequential loop over one runner.
        runner = ShardedRunner(edges, shards=4, budget=400,
                               weight_fn=UniformWeight())
        values = [
            runner.run(stream_seed=2 + i, sampler_seed=20 + i)
            .estimates.triangles.value
            for i in range(3)
        ]
        assert [r.estimates["triangles"] for r in execute(
            [spec.replace(replications=1, stream_seed=2 + i,
                          sampler_seed=20 + i) for i in range(3)],
            workers=2, populations={"inline": edges},
        )[0]] == values

    def test_default_weight_falls_back_to_scalar_drive(self, edges):
        # gps-post defaults to the triangle weight, which reads the
        # evolving reservoir and cannot be vectorised; the runner must
        # quietly drive scalar (and record it).
        result = ShardedRunner(edges, shards=2, budget=100).run()
        assert result.pipeline == "scalar"

    def test_topology_weight_routes_on_columns(self, edges, monkeypatch):
        """A triangle-weight pass (no vectorised gate) over an int32
        tuple population converts it once and routes the permuted
        columns with shard_columns, bit-identically to the per-edge
        reference."""
        import repro.shard.runner as runner_module

        expected = _sharded_reference(edges, shards=4, budget=400,
                                      stream_seed=3, sampler_seed=11)

        def refuse(*args, **kwargs):
            raise AssertionError("split_stream routed an int32 population")

        monkeypatch.setattr(runner_module, "split_stream", refuse)
        result = ShardedRunner(edges, shards=4, budget=400,
                               stream_seed=3, sampler_seed=11).run()
        assert result.pipeline == "scalar"
        _assert_merged(result, expected)
        spec = RunSpec(source="inline", method="gps-post", budget=400,
                       weight="triangle", shards=4, stream_seed=3,
                       sampler_seed=11)
        report = run(spec, graph=edges)
        assert report.pipeline == "scalar"
        assert report.post_stream == result.estimates

    def test_column_population_routes_on_columns_on_the_scalar_drive(
        self, edges, monkeypatch
    ):
        """A triangle-weight pass drives scalar, yet a column-backed
        population is routed by shard_columns, bit-identically."""
        import repro.shard.runner as runner_module

        expected = _sharded_reference(edges, shards=4, budget=400,
                                      stream_seed=3, sampler_seed=11)

        def refuse(*args, **kwargs):
            raise AssertionError("split_stream routed an int32 population")

        monkeypatch.setattr(runner_module, "split_stream", refuse)
        population = EdgeStream.from_columns(
            np.array([u for u, _ in edges], dtype=np.int32),
            np.array([v for _, v in edges], dtype=np.int32),
        )
        result = ShardedRunner(population, shards=4, budget=400,
                               stream_seed=3, sampler_seed=11).run()
        assert result.pipeline == "scalar"
        _assert_merged(result, expected)

    def test_labels_outside_int32_route_per_edge(self, edges, monkeypatch):
        import repro.shard.runner as runner_module

        wide = list(edges) + [(0, 2**31)]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return split_stream(*args, **kwargs)

        monkeypatch.setattr(runner_module, "split_stream", counted)
        result = ShardedRunner(wide, shards=4, budget=400,
                               stream_seed=3, sampler_seed=11).run()
        assert len(calls) == 1
        _assert_merged(result, _sharded_reference(
            wide, shards=4, budget=400, stream_seed=3, sampler_seed=11
        ))

    def test_seed_overrides_change_the_pass(self, edges):
        runner = ShardedRunner(edges, shards=2, budget=200)
        a = runner.run()
        b = runner.run(stream_seed=1, sampler_seed=2)
        c = runner.run()
        assert a.estimates.triangles.value == c.estimates.triangles.value
        assert (
            a.estimates.triangles.value != b.estimates.triangles.value
        )

    def test_validation_errors(self, edges):
        with pytest.raises(ValueError, match="divide evenly"):
            ShardedRunner(edges, shards=3, budget=100)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ShardedRunner(edges, shards=0, budget=100)
        with pytest.raises(ValueError, match="cannot run sharded"):
            ShardedRunner(edges, shards=2, budget=100, method="triest")
        with pytest.raises(ValueError, match="integer node labels"):
            ShardedRunner([("a", "b")], shards=2, budget=100)
        # A pass has no pool of its own: the executor owns parallelism.
        with pytest.raises(TypeError, match="workers"):
            ShardedRunner(edges, shards=2, budget=100, workers=2)

    def test_shardable_registry(self):
        assert "gps-post" in SHARDABLE_METHODS
        assert validate_shardable_method("gps-post") == "gps-post"
        with pytest.raises(ValueError, match="unbiasedly"):
            validate_shardable_method("gps")


# ----------------------------------------------------------------------
# Execution / spec integration
# ----------------------------------------------------------------------
class TestShardedExecution:
    def test_runspec_shards_validation(self):
        with pytest.raises(ValueError, match="shards"):
            RunSpec(source="a.txt", shards=0)
        with pytest.raises(ValueError, match="divide evenly"):
            RunSpec(source="a.txt", budget=100, shards=3)
        with pytest.raises(ValueError, match="mutually exclusive"):
            RunSpec(source="a.txt", budget=100, shards=2, checkpoints=5)

    def test_runspec_round_trip_with_shards(self):
        spec = RunSpec(source="a.txt", method="gps-post", budget=400,
                       shards=4)
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_shards_one_is_bit_identical_to_the_plain_path(self, edges):
        # Acceptance gate: shards=1 must be *the same code path* as no
        # shards at all — for every registered label-free weight.
        from repro.api.registry import get_weight, weight_names

        label_free = [
            name for name in sorted(weight_names())
            if is_label_free(get_weight(name).factory())
        ]
        assert label_free  # the registry always has uniform at least
        for weight in label_free:
            base = RunSpec(source="inline", method="gps-post", budget=200,
                           weight=weight, stream_seed=2)
            plain = run(base, graph=edges)
            sharded = run(base.replace(shards=1), graph=edges)
            assert plain.mode == sharded.mode == "single"
            assert plain.estimates == sharded.estimates
            assert plain.threshold == sharded.threshold
            assert plain.sample_size == sharded.sample_size

    def test_sharded_run_report(self, edges):
        spec = RunSpec(source="inline", method="gps-post", budget=400,
                       shards=4)
        report = run(spec, graph=edges)
        assert report.mode == "sharded"
        assert set(report.estimates) == {
            "triangles", "wedges", "clustering"
        }
        assert report.post_stream is not None
        assert report.sample_size == report.post_stream.sample_size
        payload = json.loads(report.to_json())
        assert payload["spec"]["shards"] == 4
        assert payload["mode"] == "sharded"

    def test_sharded_replicate_report(self, edges):
        spec = RunSpec(source="inline", method="gps-post", budget=200,
                       shards=2, replications=3, workers=0)
        report = run(spec, graph=edges)
        assert report.mode == "replicate"
        assert report.metrics["triangles"].count == 3
        forced = replicate(
            RunSpec(source="inline", method="gps-post", budget=200,
                    shards=2), graph=edges,
        )
        assert forced.mode == "replicate"
        assert forced.metrics["triangles"].count == 1

    def test_non_shardable_method_fails_loudly(self, edges):
        spec = RunSpec(source="inline", method="triest", budget=200,
                       shards=2)
        with pytest.raises(ValueError, match="cannot run sharded"):
            run(spec, graph=edges)


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
class TestShardedSweep:
    def test_shards_axis_expands_and_collapses(self):
        spec = SweepSpec(sources=("a.txt",),
                         methods=("gps-post", "triest"),
                         budgets=(400,), shards=(1, 2, 4))
        cells = spec.expand()
        assert [(c.key.method, c.key.shards) for c in cells] == [
            ("gps-post", 1), ("gps-post", 2), ("gps-post", 4),
            ("triest", 1),
        ]
        for cell in cells:
            assert all(s.shards == cell.key.shards for s in cell.specs)

    def test_inline_sharded_work_never_starts_a_pool(self, edges, tmp_path,
                                                     monkeypatch):
        """workers=0 sweeps and single sharded passes stay in-process."""
        import repro.engine.resilient as resilient_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(resilient_module, "ProcessPoolExecutor", no_pool)
        path = tmp_path / "g.txt"
        write_edge_list(edges, path)
        report = run_sweep(SweepSpec(
            sources=(str(path),), methods=("gps-post",), budgets=(200,),
            weights=("uniform",), shards=(2,), runs=2, workers=0,
        ))
        assert report.cells[0].runs == 2
        single = run(RunSpec(source=str(path), method="gps-post",
                             weight="uniform", budget=200, shards=2))
        assert single.mode == "sharded"

    def test_shards_axis_round_trips(self):
        spec = SweepSpec(sources=("a.txt",), methods=("gps-post",),
                         shards=(1, 4), budgets=(400,))
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_shards_axis_validation(self):
        with pytest.raises(ValueError, match="shards"):
            SweepSpec(sources=("a.txt",), shards=())
        with pytest.raises(ValueError, match="shards"):
            SweepSpec(sources=("a.txt",), shards=(0,))


# ----------------------------------------------------------------------
# Weight sanity for the wedge weight used above
# ----------------------------------------------------------------------
def test_wedge_weight_is_label_free():
    # The bit-identity acceptance sweep iterates every label-free
    # registered weight; wedge and uniform must both be in that set.
    assert is_label_free(UniformWeight())
    assert is_label_free(WedgeWeight())
