"""The chunked (columnar) admission pipeline: bit-exactness and plumbing.

The chunked pipeline's contract mirrors the compact core's: given the
same ``(capacity, weight_fn, seed)`` and the same arrival order,
``process_chunk`` over columnar blocks is *indistinguishable* from the
scalar loops — same samples, thresholds, estimates and RNG state, bit
for bit — for every registered label-free weight, through every entry
point (direct classes, ``run(spec)``, tracking with mid-chunk marks,
inline and pooled replication).  Dirty blocks (self-loops, duplicates,
non-int labels) and label-reading configurations must fall back to the
scalar path, identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.execution import execute, replicate, run
from repro.api.registry import GpsPostStreamAdapter, get_weight, weight_names
from repro.api.spec import RunSpec
from repro.api.sweep import SweepSpec
from repro.core.compact import (
    CompactGraphPrioritySampler,
    CompactInStreamEstimator,
)
from repro.core.in_stream import InStreamEstimator
from repro.core.priority_sampler import GraphPrioritySampler
from repro.core.weights import AttributeWeight, UniformWeight, is_label_free
from repro.engine.stream_engine import StreamEngine
from repro.graph.generators import powerlaw_cluster
from repro.graph.io import iter_edge_chunks, write_edge_list
from repro.streams.chunks import (
    DEFAULT_CHUNK_SIZE,
    columnar_or_none,
    iter_chunks,
)
from repro.streams.interner import NodeInterner
from repro.streams.stream import EdgeStream


@pytest.fixture(scope="module")
def clean_edges():
    graph = powerlaw_cluster(400, 4, 0.6, seed=3)
    return list(EdgeStream.from_graph(graph, seed=0))


@pytest.fixture(scope="module")
def dirty_edges(clean_edges):
    """Self-loops and duplicates mixed in: every block must fall back."""
    return (clean_edges[:40] + [(7, 7)] + clean_edges[:15]
            + clean_edges[40:])


def label_free_weights():
    return [
        get_weight(name).factory()
        for name in weight_names()
        if is_label_free(get_weight(name).factory())
    ]


def sampler_signature(sampler):
    return (
        sampler.threshold,
        sampler.stream_position,
        sampler.duplicates_skipped,
        sampler.self_loops_skipped,
        sampler.normalized_probabilities(),
        [
            (r.key, r.weight, r.priority, r.arrival)
            for r in sampler.records()
        ],
        sampler._rng.getstate(),
    )


def drive_chunked(sampler, edges, chunk_size):
    for cu, cv in EdgeStream(edges).chunks(chunk_size):
        consumed = sampler.process_chunk(cu, cv)
        assert consumed == len(cu)


# ----------------------------------------------------------------------
# Columnar substrate
# ----------------------------------------------------------------------
class TestColumnar:
    def test_int_streams_columnarise_label_faithfully(self):
        u, v = columnar_or_none([(5, 3), (3, 9)])
        assert u.dtype == np.int32
        assert u.tolist() == [5, 3] and v.tolist() == [3, 9]

    @pytest.mark.parametrize("edges", [
        [("a", "b")],
        [(0.5, 1)],
        [(True, 2)],
        [(2**31, 1)],
        [(-(2**31) - 1, 1)],
    ], ids=["str", "float", "bool", "overflow", "underflow"])
    def test_non_int32_labels_refuse(self, edges):
        assert columnar_or_none(edges) is None

    def test_negative_int32_labels_allowed(self):
        u, v = columnar_or_none([(-3, 4)])
        assert (u.tolist(), v.tolist()) == ([-3], [4])

    def test_stream_chunks_slice_in_order(self, clean_edges):
        stream = EdgeStream(clean_edges)
        rebuilt = []
        for cu, cv in stream.chunks(64):
            assert len(cu) == len(cv) <= 64
            rebuilt.extend(zip(cu.tolist(), cv.tolist()))
        assert rebuilt == clean_edges
        # the columnar conversion is cached on the stream
        assert stream.columnar() is stream.columnar()

    def test_label_stream_needs_interner(self):
        stream = EdgeStream([("a", "b"), ("b", "c")])
        with pytest.raises(TypeError):
            next(stream.chunks(8))
        interner = NodeInterner()
        blocks = list(stream.chunks(8, interner=interner))
        assert [(u.tolist(), v.tolist()) for u, v in blocks] == [([0, 1], [1, 2])]
        assert interner.label(2) == "c"

    def test_iter_chunks_over_generator(self):
        blocks = list(iter_chunks(((i, i + 1) for i in range(10)), size=4))
        assert [len(u) for u, _ in blocks] == [4, 4, 2]
        assert blocks[2][1].tolist() == [9, 10]

    def test_iter_edge_chunks_parses_natively(self, tmp_path, clean_edges):
        path = tmp_path / "graph.txt"
        write_edge_list(clean_edges, path, header="a comment")
        rebuilt = []
        for cu, cv in iter_edge_chunks(path, size=100):
            assert cu.dtype == np.int32 and len(cu) <= 100
            rebuilt.extend(zip(cu.tolist(), cv.tolist()))
        assert rebuilt == clean_edges

    def test_invalid_sizes_rejected(self, clean_edges):
        with pytest.raises(ValueError):
            next(EdgeStream(clean_edges).chunks(0))
        with pytest.raises(ValueError):
            next(iter_chunks(clean_edges, size=-1))


# ----------------------------------------------------------------------
# process_chunk bit-equivalence (direct classes)
# ----------------------------------------------------------------------
class TestProcessChunkEquivalence:
    @pytest.mark.parametrize(
        "weight_fn", label_free_weights(), ids=lambda w: repr(w)[:40]
    )
    @pytest.mark.parametrize("chunk_size", [1, 37, 256, 10**6])
    def test_chunked_equals_scalar_and_object(
        self, clean_edges, weight_fn, chunk_size
    ):
        chunked = CompactGraphPrioritySampler(
            150, weight_fn=weight_fn, seed=9
        )
        drive_chunked(chunked, clean_edges, chunk_size)
        scalar = CompactGraphPrioritySampler(150, weight_fn=weight_fn, seed=9)
        scalar.process_many(clean_edges)
        assert sampler_signature(chunked) == sampler_signature(scalar)
        reference = GraphPrioritySampler(150, weight_fn=weight_fn, seed=9)
        reference.process_many(clean_edges)
        assert chunked.threshold == reference.threshold
        assert (
            chunked.normalized_probabilities()
            == reference.normalized_probabilities()
        )

    @pytest.mark.parametrize(
        "weight_fn", label_free_weights(), ids=lambda w: repr(w)[:40]
    )
    def test_dirty_blocks_fall_back_bit_exactly(self, dirty_edges, weight_fn):
        chunked = CompactGraphPrioritySampler(
            150, weight_fn=weight_fn, seed=9
        )
        drive_chunked(chunked, dirty_edges, 64)
        scalar = CompactGraphPrioritySampler(150, weight_fn=weight_fn, seed=9)
        scalar.process_many(dirty_edges)
        assert sampler_signature(chunked) == sampler_signature(scalar)
        assert chunked.duplicates_skipped > 0
        assert chunked.self_loops_skipped > 0

    def test_stream_shorter_than_one_chunk(self, clean_edges):
        short = clean_edges[:17]  # below capacity: pure fill phase
        chunked = CompactGraphPrioritySampler(150, seed=4)
        drive_chunked(chunked, short, DEFAULT_CHUNK_SIZE)
        scalar = CompactGraphPrioritySampler(150, seed=4)
        scalar.process_many(short)
        assert sampler_signature(chunked) == sampler_signature(scalar)

    def test_scalar_and_chunked_calls_interleave(self, clean_edges):
        mixed = CompactGraphPrioritySampler(
            120, weight_fn=UniformWeight(), seed=2
        )
        mixed.process_many(clean_edges[:101])
        drive_chunked(mixed, clean_edges[101:401], 50)
        mixed.process_many(clean_edges[401:500])
        drive_chunked(mixed, clean_edges[500:], 128)
        scalar = CompactGraphPrioritySampler(
            120, weight_fn=UniformWeight(), seed=2
        )
        scalar.process_many(clean_edges)
        assert sampler_signature(mixed) == sampler_signature(scalar)

    def test_plain_sequences_accepted(self, clean_edges):
        us = [u for u, _ in clean_edges[:300]]
        vs = [v for _, v in clean_edges[:300]]
        loose = CompactGraphPrioritySampler(80, seed=1)
        loose.process_chunk(us, vs)
        scalar = CompactGraphPrioritySampler(80, seed=1)
        scalar.process_many(clean_edges[:300])
        assert sampler_signature(loose) == sampler_signature(scalar)

    def test_mismatched_columns_rejected(self):
        sampler = CompactGraphPrioritySampler(8, seed=0)
        with pytest.raises(ValueError):
            sampler.process_chunk(np.array([1, 2]), np.array([3]))

    def test_chunk_vectorized_only_for_uniform(self):
        assert CompactGraphPrioritySampler(
            8, weight_fn=UniformWeight(), seed=0
        ).chunk_vectorized
        assert not CompactGraphPrioritySampler(8, seed=0).chunk_vectorized
        assert not CompactInStreamEstimator(8, seed=0).chunk_vectorized

    def test_estimator_chunks_match_scalar(self, clean_edges):
        for weight_fn in label_free_weights():
            chunked = CompactInStreamEstimator(
                100, weight_fn=weight_fn, seed=5
            )
            for cu, cv in EdgeStream(clean_edges).chunks(200):
                chunked.process_chunk(cu, cv)
            scalar = InStreamEstimator(100, weight_fn=weight_fn, seed=5)
            scalar.process_many(clean_edges)
            assert chunked.triangle_estimate == scalar.triangle_estimate
            assert chunked.wedge_estimate == scalar.wedge_estimate
            assert chunked.estimates() == scalar.estimates()

    def test_adapter_forwards_chunks_on_both_cores(self, clean_edges):
        columns = EdgeStream(clean_edges).columnar()
        for core_cls in (CompactGraphPrioritySampler, GraphPrioritySampler):
            adapter = GpsPostStreamAdapter(
                core_cls(90, weight_fn=UniformWeight(), seed=3)
            )
            adapter.process_chunk(*columns)
            scalar = core_cls(90, weight_fn=UniformWeight(), seed=3)
            scalar.process_many(clean_edges)
            assert adapter.sampler.threshold == scalar.threshold
            assert (
                adapter.sampler.normalized_probabilities()
                == scalar.normalized_probabilities()
            )


# ----------------------------------------------------------------------
# Engine: chunk splitting at marks
# ----------------------------------------------------------------------
class TestEngineChunking:
    def test_checkpoints_split_chunks_exactly(self, clean_edges):
        stream = EdgeStream(clean_edges)
        marks = [3, 64, 65, 301, len(clean_edges)]
        sampler = CompactGraphPrioritySampler(
            70, weight_fn=UniformWeight(), seed=8
        )
        seen = {}

        def record(t):
            seen[t] = sampler_signature(sampler)

        engine = StreamEngine(sampler, chunk_size=64)
        stats = engine.run(stream, checkpoints=marks, on_checkpoint=record)
        assert stats.edges == len(clean_edges)
        assert stats.checkpoints == tuple(marks)
        for t in marks:
            fresh = CompactGraphPrioritySampler(
                70, weight_fn=UniformWeight(), seed=8
            )
            fresh.process_many(clean_edges[:t])
            assert seen[t] == sampler_signature(fresh), t

    def test_chunked_engine_matches_scalar_engine(self, clean_edges):
        chunked = CompactGraphPrioritySampler(
            90, weight_fn=UniformWeight(), seed=5
        )
        StreamEngine(chunked, chunk_size=77).run(EdgeStream(clean_edges))
        scalar = CompactGraphPrioritySampler(
            90, weight_fn=UniformWeight(), seed=5
        )
        StreamEngine(scalar).run(EdgeStream(clean_edges))
        assert sampler_signature(chunked) == sampler_signature(scalar)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            StreamEngine(object(), chunk_size=0)


# ----------------------------------------------------------------------
# run(spec): pipeline plumbing and fallbacks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph_file(tmp_path_factory, clean_edges):
    path = tmp_path_factory.mktemp("chunked") / "graph.txt"
    write_edge_list(clean_edges, path)
    return str(path)


class TestRunSpecPipeline:
    @pytest.mark.parametrize("method", ["gps", "gps-post", "gps-in-stream"])
    @pytest.mark.parametrize("weight", ["uniform", "triangle", "wedge"])
    def test_chunked_vs_scalar_bit_equal(
        self, graph_file, method, weight, scalar_drive
    ):
        spec = RunSpec(source=graph_file, method=method, budget=120,
                       weight=weight)
        chunked = run(spec)
        scalar = scalar_drive(run, spec)
        assert chunked.estimates == scalar.estimates
        assert chunked.sample_size == scalar.sample_size
        assert chunked.threshold == scalar.threshold
        assert scalar.pipeline == "scalar"
        # only the vectorised-gate configuration reports chunked
        expected = "chunked" if (method == "gps-post"
                                 and weight == "uniform") else "scalar"
        assert chunked.pipeline == expected

    def test_tracking_marks_land_mid_chunk(self, graph_file, scalar_drive):
        spec = RunSpec(source=graph_file, method="gps-post", budget=80,
                       weight="uniform", checkpoints=7)
        chunked = run(spec)
        scalar = scalar_drive(run, spec)
        assert chunked.pipeline == "chunked"
        assert scalar.pipeline == "scalar"
        assert len(chunked.tracking) == 7
        for a, b in zip(chunked.tracking, scalar.tracking):
            assert (a.position, a.estimate, a.exact_triangles) == (
                b.position, b.estimate, b.exact_triangles
            )

    def test_label_reading_weight_falls_back(self, graph_file):
        spec = RunSpec(source=graph_file, method="gps-post", budget=80)
        report = run(spec, weight_fn=AttributeWeight(lambda u, v: 1.0))
        assert report.pipeline == "scalar"

    def test_report_round_trips_pipeline(self, graph_file):
        report = run(RunSpec(source=graph_file, method="gps-post",
                             budget=80, weight="uniform"))
        assert report.to_dict()["pipeline"] == "chunked"
        assert "pipeline" not in report.to_dict()["spec"]
        rebuilt = type(report).from_dict(report.to_dict())
        assert rebuilt.pipeline == "chunked"

    def test_spec_rejects_unknown_pipeline(self):
        """The drive is not an option: a spec naming one is rejected."""
        with pytest.raises(TypeError):
            RunSpec(source="x.txt", pipeline="scalar")
        with pytest.raises(TypeError):
            SweepSpec(pipeline="scalar")
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"source": "x.txt", "pipeline": "scalar"})

    def test_replicated_report_resolves_pipeline(
        self, graph_file, scalar_drive
    ):
        """A replicated report records the drive that ran: the default
        (triangle) weight has no vectorised gate, so it reports scalar;
        the uniform weight engages the gate."""
        spec = RunSpec(source=graph_file, method="gps-post", budget=100,
                       replications=3, workers=0)
        assert run(spec).pipeline == "scalar"
        assert run(spec.replace(weight="uniform")).pipeline == "chunked"
        assert scalar_drive(
            run, spec.replace(weight="uniform")
        ).pipeline == "scalar"

    def test_replicated_object_core_reuses_nothing_but_works(self, graph_file):
        """gps-post over the object core replicates fine and matches the
        compact core bit for bit."""
        spec = RunSpec(source=graph_file, method="gps-post", budget=100,
                       weight="uniform", replications=3, workers=0)
        compact = run(spec)
        object_core = run(spec.replace(core="object"))
        assert object_core.estimates == compact.estimates

    @pytest.mark.parametrize("workers", [0, 2])
    def test_replication_chunked_vs_scalar(
        self, graph_file, workers, scalar_drive
    ):
        spec = RunSpec(source=graph_file, method="gps-post", budget=100,
                       weight="uniform", replications=3, workers=workers)
        chunked = replicate(spec)
        scalar = scalar_drive(replicate, spec)
        assert (chunked.pipeline, scalar.pipeline) == ("chunked", "scalar")
        assert chunked.estimates == scalar.estimates
        for name in chunked.metrics:
            assert chunked.metrics[name] == scalar.metrics[name]


# ----------------------------------------------------------------------
# Replicated runs on the executor: task purity, drives, pool
# ----------------------------------------------------------------------
class TestWarmArena:
    """One process runs many tasks back to back; none may leak state."""

    def test_arena_reuse_is_bit_exact(self, clean_edges, scalar_drive):
        """Back-to-back executor tasks match fresh single runs exactly."""
        def spec(seed_pair):
            return RunSpec(source="<g>", method="gps-post", budget=90,
                           weight="uniform", stream_seed=seed_pair[0],
                           sampler_seed=seed_pair[1])

        def direct(fn, *args, **kwargs):
            return fn(*args, **kwargs)

        specs = [spec(pair) for pair in ((1, 2), (3, 4), (1, 2))]
        for drive, call in (("chunked", direct), ("scalar", scalar_drive)):
            warm, _ = call(execute, specs, workers=0,
                           populations={"<g>": clean_edges})
            assert {r.pipeline for r in warm} == {drive}
            first, other, again = (
                (r.estimates, r.threshold, r.sample_size) for r in warm
            )
            assert first == again
            assert first != other
            fresh = call(run, spec((1, 2)), graph=clean_edges)
            assert first == (fresh.estimates, fresh.threshold,
                             fresh.sample_size)

    def test_runner_pipelines_match(self, clean_edges, scalar_drive):
        spec = RunSpec(source="<g>", method="gps-post", budget=100,
                       replications=3, workers=0)
        chunked = run(spec, graph=clean_edges, weight_fn=UniformWeight())
        scalar = scalar_drive(run, spec, graph=clean_edges,
                              weight_fn=UniformWeight())
        assert (chunked.pipeline, scalar.pipeline) == ("chunked", "scalar")
        assert chunked.metrics == scalar.metrics

    def test_runner_rejects_unknown_pipeline(self):
        with pytest.raises(TypeError):
            RunSpec(source="<g>", replications=3, pipeline="scalar")

    def test_pooled_dispatches_match_inline(self, clean_edges):
        spec = RunSpec(source="<g>", method="gps-post", budget=90,
                       replications=2, workers=0)
        inline = run(spec, graph=clean_edges, weight_fn=UniformWeight())
        pooled = run(spec.replace(workers=1), graph=clean_edges,
                     weight_fn=UniformWeight())
        assert pooled.workers == 1
        assert pooled.metrics == inline.metrics
        assert pooled.estimates == inline.estimates
