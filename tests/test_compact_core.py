"""Shared-seed bit-equivalence: compact core vs the object reference.

The compact core's contract (see :mod:`repro.core.compact`) is that it
is *indistinguishable* from the object core under shared seeds: same
samples, same thresholds, same in-stream and post-stream estimates —
bit for bit, for every registered weight function, through every entry
point (direct classes, ``run(spec)``, executor tasks inline and
pooled, the sweep grid).  These tests enforce exactly that.
"""

from __future__ import annotations

import pytest

from repro.api.execution import execute, run
from repro.api.registry import get_weight, weight_names
from repro.api.spec import RunSpec
from repro.core.adaptive import AdaptiveTriangleWeight
from repro.core.compact import (
    CORES,
    DEFAULT_CORE,
    CompactGraphPrioritySampler,
    CompactInStreamEstimator,
    make_in_stream_estimator,
    make_priority_sampler,
    validate_core,
)
from repro.core.in_stream import InStreamEstimator
from repro.core.post_stream import PostStreamEstimator
from repro.core.priority_sampler import GraphPrioritySampler
from repro.core.weights import (
    AttributeWeight,
    LinearCombinationWeight,
    TriangleWeight,
    UniformWeight,
    WedgeWeight,
    is_label_free,
)
from repro.graph.generators import powerlaw_cluster
from repro.heap.slot_heap import SlotMinHeap
from repro.streams.stream import EdgeStream


@pytest.fixture(scope="module")
def stream_edges():
    """A clustered stream with self-loops and duplicates mixed in."""
    graph = powerlaw_cluster(400, 4, 0.6, seed=3)
    edges = list(EdgeStream.from_graph(graph, seed=0))
    return edges[:40] + [(7, 7)] + edges[:15] + edges[40:]


def weight_instances():
    return [
        UniformWeight(),
        TriangleWeight(),
        WedgeWeight(),
        TriangleWeight(coef=4.0, default=2.0),
        LinearCombinationWeight([(1.0, TriangleWeight()),
                                 (0.5, WedgeWeight())]),
        AdaptiveTriangleWeight(),
    ]


def record_signature(sampler):
    """Order-sensitive full-state fingerprint of a sampler's reservoir."""
    return [
        (r.key, r.weight, r.priority, r.arrival, r.cov_triangle, r.cov_wedge)
        for r in sampler.records()
    ]


# ----------------------------------------------------------------------
# Direct class equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "weight_fn", weight_instances(), ids=lambda w: repr(w)[:40]
)
def test_sampler_bit_equivalence(stream_edges, weight_fn):
    compact = CompactGraphPrioritySampler(150, weight_fn=weight_fn, seed=9)
    import copy

    reference = GraphPrioritySampler(
        150, weight_fn=copy.deepcopy(weight_fn), seed=9
    )
    compact.process_many(stream_edges)
    reference.process_many(stream_edges)
    assert compact.threshold == reference.threshold
    assert compact.sample_size == reference.sample_size
    assert compact.stream_position == reference.stream_position
    assert compact.duplicates_skipped == reference.duplicates_skipped
    assert compact.self_loops_skipped == reference.self_loops_skipped
    # Identical samples, in the identical adjacency iteration order
    # (which is what makes post-stream estimation bit-exact too).
    assert record_signature(compact) == record_signature(reference)
    assert (
        compact.normalized_probabilities()
        == reference.normalized_probabilities()
    )


@pytest.mark.parametrize(
    "weight_fn", weight_instances(), ids=lambda w: repr(w)[:40]
)
def test_in_stream_and_post_stream_bit_equivalence(stream_edges, weight_fn):
    import copy

    compact = CompactInStreamEstimator(150, weight_fn=weight_fn, seed=9)
    reference = InStreamEstimator(
        150, weight_fn=copy.deepcopy(weight_fn), seed=9
    )
    compact.process_many(stream_edges)
    reference.process_many(stream_edges)
    assert compact.triangle_estimate == reference.triangle_estimate
    assert compact.wedge_estimate == reference.wedge_estimate
    assert compact.clustering_estimate == reference.clustering_estimate
    a, b = compact.estimates(), reference.estimates()
    assert a.triangles.variance == b.triangles.variance
    assert a.wedges.variance == b.wedges.variance
    post_a = PostStreamEstimator(compact.sampler).estimate()
    post_b = PostStreamEstimator(reference.sampler).estimate()
    assert post_a.triangles.value == post_b.triangles.value
    assert post_a.triangles.variance == post_b.triangles.variance
    assert post_a.wedges.value == post_b.wedges.value
    assert post_a.clustering.value == post_b.clustering.value


def test_process_single_equals_batch(stream_edges):
    one = CompactInStreamEstimator(100, seed=4)
    batch = CompactInStreamEstimator(100, seed=4)
    for u, v in stream_edges[:300]:
        one.process(u, v)
    batch.process_many(stream_edges[:300])
    assert one.triangle_estimate == batch.triangle_estimate
    assert one.sampler.threshold == batch.sampler.threshold
    assert record_signature(one.sampler) == record_signature(batch.sampler)


def test_generic_weight_error_matches_object_core():
    compact = CompactGraphPrioritySampler(
        10, weight_fn=lambda u, v, sample: 0.0, seed=0
    )
    with pytest.raises(ValueError, match="non-positive"):
        compact.process_many([(1, 2)])
    reference = GraphPrioritySampler(
        10, weight_fn=lambda u, v, sample: 0.0, seed=0
    )
    with pytest.raises(ValueError, match="non-positive"):
        reference.process_many([(1, 2)])


def test_view_protocol_queries(stream_edges):
    compact = CompactGraphPrioritySampler(80, seed=2)
    compact.process_many(stream_edges)
    view = compact.sample
    records = list(view.records())
    assert len(records) == compact.sample_size == view.num_edges
    some = records[0]
    assert view.has_edge(some.u, some.v)
    assert view.record(some.u, some.v).priority == some.priority
    assert some.v in view.neighbors(some.u)
    assert view.degree(some.u) == len(view.neighbors(some.u))
    assert compact.contains_edge(some.u, some.v)
    assert compact.edge_probability(some.u, some.v) == pytest.approx(
        some.inclusion_probability(compact.threshold)
    )
    assert compact.edge_probability("nope", "nada") == 0.0


# ----------------------------------------------------------------------
# Factories and the core flag
# ----------------------------------------------------------------------
def test_factories_select_cores():
    assert isinstance(
        make_priority_sampler(8, core="compact"), CompactGraphPrioritySampler
    )
    assert isinstance(
        make_priority_sampler(8, core="object"), GraphPrioritySampler
    )
    assert isinstance(
        make_in_stream_estimator(8, core="compact"), CompactInStreamEstimator
    )
    assert isinstance(
        make_in_stream_estimator(8, core="object"), InStreamEstimator
    )
    assert DEFAULT_CORE == "compact" and DEFAULT_CORE in CORES
    with pytest.raises(ValueError, match="unknown core"):
        validate_core("quantum")
    with pytest.raises(ValueError, match="unknown core"):
        make_priority_sampler(8, core="quantum")


def test_runspec_validates_core():
    assert RunSpec(source="x.txt").core == "compact"
    assert RunSpec(source="x.txt", core="object").core == "object"
    with pytest.raises(ValueError, match="core"):
        RunSpec(source="x.txt", core="quantum")
    spec = RunSpec(source="x.txt", core="object")
    assert RunSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("method", ["gps", "gps-post", "gps-in-stream"])
@pytest.mark.parametrize("weight", [None, *weight_names()])
def test_run_spec_equivalence_across_cores(tmp_path, method, weight):
    """run(spec) must be bit-identical under core=compact vs core=object."""
    from repro.graph.io import write_edge_list

    path = tmp_path / "g.txt"
    write_edge_list(powerlaw_cluster(120, 3, 0.5, seed=5), path)
    reports = {
        core: run(
            RunSpec(source=str(path), method=method, budget=60,
                    weight=weight, stream_seed=1, sampler_seed=2, core=core)
        )
        for core in CORES
    }
    assert reports["compact"].estimates == reports["object"].estimates
    assert reports["compact"].threshold == reports["object"].threshold
    assert reports["compact"].sample_size == reports["object"].sample_size


def test_tracking_equivalence_across_cores(tmp_path):
    from repro.graph.io import write_edge_list

    path = tmp_path / "g.txt"
    write_edge_list(powerlaw_cluster(120, 3, 0.5, seed=5), path)
    reports = {
        core: run(
            RunSpec(source=str(path), method="gps", budget=60,
                    stream_seed=1, sampler_seed=2, checkpoints=5, core=core)
        )
        for core in CORES
    }
    a, b = reports["compact"].tracking, reports["object"].tracking
    assert len(a) == len(b) == 5
    for pa, pb in zip(a, b):
        assert pa.position == pb.position
        assert pa.estimate == pb.estimate
        assert pa.in_stream.triangles.value == pb.in_stream.triangles.value


# ----------------------------------------------------------------------
# Replicated runs: inline vs pooled, across cores and weights
# ----------------------------------------------------------------------
@pytest.mark.parametrize("weight_name", [None, *weight_names()])
def test_replication_inline_vs_pooled_vs_cores(weight_name):
    graph = powerlaw_cluster(120, 3, 0.5, seed=1)
    weight_fn = (
        get_weight(weight_name).factory() if weight_name is not None else None
    )
    outcomes = {}
    for core in CORES:
        for workers in (0, 1):
            specs = [
                RunSpec(source="<g>", budget=50, stream_seed=i,
                        sampler_seed=10_000 + i, core=core)
                for i in range(2)
            ]
            reports, _ = execute(
                specs, workers=workers, populations={"<g>": graph},
                weight_fn=(
                    get_weight(weight_name).factory()
                    if weight_name is not None else None
                ),
            )
            outcomes[(core, workers)] = [r.estimates for r in reports]
    baseline = outcomes[("compact", 0)]
    for key, metrics in outcomes.items():
        assert metrics == baseline, f"{key} diverged from compact/inline"
    assert weight_fn is None or is_label_free(weight_fn)


def test_checkpoint_round_trip_compact(tmp_path):
    from repro.core.checkpoint import load_checkpoint, save_checkpoint

    est = CompactInStreamEstimator(50, seed=3)
    stream = list(EdgeStream.from_graph(powerlaw_cluster(80, 3, 0.4, seed=2),
                                        seed=1))
    est.process_many(stream[:100])
    path = tmp_path / "ck.json"
    save_checkpoint(est, path)
    resumed = load_checkpoint(path)
    # Restoration rebuilds on the object core; continuing both must stay
    # bit-identical (shared RNG state, shared reservoir).
    est.process_many(stream[100:])
    resumed.process_many(stream[100:])
    assert resumed.triangle_estimate == est.triangle_estimate
    assert resumed.sampler.threshold == est.sampler.threshold

    bare = CompactGraphPrioritySampler(40, seed=6)
    bare.process_many(stream[:80])
    save_checkpoint(bare, path)
    restored = load_checkpoint(path, weight_fn=TriangleWeight())
    assert restored.threshold == bare.threshold
    assert sorted(r.key for r in restored.records()) == sorted(
        r.key for r in bare.records()
    )


# ----------------------------------------------------------------------
# SlotMinHeap unit behaviour
# ----------------------------------------------------------------------
def test_slot_heap_operations():
    heap = SlotMinHeap()
    priorities = [5.0, 1.0, 3.0, 4.0, 2.0]
    for slot, priority in enumerate(priorities):
        heap.push(slot, priority)
    assert len(heap) == 5 and heap.is_valid()
    assert heap.peek() == 1 and heap.min_priority() == 1.0
    assert sorted(heap) == [0, 1, 2, 3, 4]
    evicted = heap.replace_root(1, 9.0)  # slot reuse, new priority
    assert evicted == (1.0, 1)
    assert heap.is_valid() and heap.peek() == 4
    order = [heap.pop() for _ in range(len(heap))]
    assert order == [4, 2, 3, 0, 1]
    with pytest.raises(IndexError):
        heap.pop()
    with pytest.raises(IndexError):
        heap.peek()
    with pytest.raises(IndexError):
        heap.replace_root(0, 1.0)
    assert heap.min_priority() is None
    heap.rebuild([(2.0, 7), (1.0, 8)])
    assert heap.peek() == 8 and heap.is_valid()
    heap.clear()
    assert not heap


def test_materialize_preserves_orders_and_records(stream_edges):
    """CompactSample.materialize: object-core view, identical traversal."""
    compact = CompactGraphPrioritySampler(120, seed=8)
    reference = GraphPrioritySampler(120, seed=8)
    compact.process_many(stream_edges)
    reference.process_many(stream_edges)
    snapshot = compact.sample.materialize()
    assert snapshot.num_edges == compact.sample_size
    assert snapshot.num_nodes == compact.sample.num_nodes
    # records() order matches the live object core's exactly.
    assert [r.key for r in snapshot.records()] == [
        r.key for r in reference.sample.records()
    ]
    # One shared record per edge: both inner-dict entries are identical.
    some = next(snapshot.records())
    assert snapshot.neighbors(some.u)[some.v] is snapshot.neighbors(some.v)[some.u]
