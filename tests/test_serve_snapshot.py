"""Snapshot surface: ``snapshot_arrays`` bit-equivalence + the store.

The cheap dtype-pinned snapshot must carry exactly the state
``CompactSample.materialize()`` exposes — same records, same
priorities, same dict iteration orders — a held snapshot must never
change while its copy-on-write rows are shared with the live sampler,
and the epoch store must publish, recycle and wake waiters correctly.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core.compact import (
    CompactGraphPrioritySampler,
    SlotArrays,
    make_in_stream_estimator,
)
from repro.core.post_stream import PostStreamEstimator
from repro.core.weights import (
    AttributeWeight,
    TriangleWeight,
    UniformWeight,
    WedgeWeight,
)
from repro.graph.generators import powerlaw_cluster
from repro.serve.snapshot import SampleSnapshot, SnapshotStore
from repro.streams.stream import EdgeStream


def _stream(seed=3, nodes=200):
    graph = powerlaw_cluster(nodes, 3, 0.5, seed=2)
    return list(EdgeStream.from_graph(graph, seed=seed))


def _sampler(capacity=60, seed=5, weight=TriangleWeight):
    return CompactGraphPrioritySampler(
        capacity, weight_fn=weight(), seed=seed
    )


# ----------------------------------------------------------------------
# snapshot_arrays ≡ materialize
# ----------------------------------------------------------------------
def test_snapshot_arrays_matches_materialize_records():
    sampler = _sampler()
    sampler.process_many(_stream())
    arrays = sampler.snapshot_arrays()
    sample = sampler.sample.materialize()

    assert arrays.size == sampler.sample_size == sample.num_edges
    assert arrays.threshold == sampler.threshold
    assert arrays.stream_position == sampler.stream_position

    by_key = {record.key: record for record in sample.records()}
    assert len(by_key) == arrays.size
    for slot in range(arrays.size):
        record = arrays.record(slot)
        twin = by_key[record.key]
        assert record.weight == twin.weight
        assert record.priority == twin.priority
        assert record.arrival == twin.arrival
        assert record.cov_triangle == twin.cov_triangle
        assert record.cov_wedge == twin.cov_wedge


def test_snapshot_arrays_dtypes_are_pinned():
    sampler = _sampler()
    sampler.process_many(_stream())
    arrays = sampler.snapshot_arrays()
    assert arrays.weight.dtype == np.float64
    assert arrays.priority.dtype == np.float64
    assert arrays.arrival.dtype == np.int64
    assert arrays.cov_triangle.dtype == np.float64
    assert arrays.cov_wedge.dtype == np.float64


def test_snapshot_arrays_heap_root_is_the_threshold_candidate():
    sampler = _sampler()
    sampler.process_many(_stream())
    arrays = sampler.snapshot_arrays()
    assert arrays.heap_root is not None
    root_priority, root_slot = arrays.heap_root
    assert root_priority == min(
        float(arrays.priority[s]) for s in range(arrays.size)
    )
    assert 0 <= root_slot < arrays.size


def test_snapshot_arrays_empty_sampler():
    arrays = _sampler().snapshot_arrays()
    assert arrays.size == 0
    assert arrays.heap_root is None
    assert arrays.threshold == 0.0


def test_snapshot_arrays_out_recycling_overwrites_in_place():
    sampler = _sampler()
    edges = _stream()
    sampler.process_many(edges[: len(edges) // 2])
    first = sampler.snapshot_arrays()
    sampler.process_many(edges[len(edges) // 2:])
    second = sampler.snapshot_arrays(out=first)
    assert second is first
    fresh = sampler.snapshot_arrays()
    assert second.size == fresh.size
    assert second.threshold == fresh.threshold
    assert list(second.u) == list(fresh.u)
    np.testing.assert_array_equal(
        second.priority[: second.size], fresh.priority[: fresh.size]
    )


def test_snapshot_arrays_rejects_mismatched_capacity_buffer():
    sampler = _sampler(capacity=60)
    sampler.process_many(_stream())
    wrong = SlotArrays(10)
    arrays = sampler.snapshot_arrays(out=wrong)
    assert arrays is not wrong
    assert arrays.capacity == 60


def test_snapshot_is_immutable_under_further_ingestion():
    sampler = _sampler()
    edges = _stream()
    sampler.process_many(edges[:300])
    arrays = sampler.snapshot_arrays()
    adjacency = sampler.snapshot_adjacency()
    frozen_priorities = arrays.priority[: arrays.size].copy()
    frozen_adj = {u: dict(nbrs) for u, nbrs in adjacency.items()}
    sampler.process_many(edges[300:])
    np.testing.assert_array_equal(
        arrays.priority[: arrays.size], frozen_priorities
    )
    assert adjacency == frozen_adj


def test_snapshot_adjacency_preserves_slot_orders():
    sampler = _sampler()
    sampler.process_many(_stream())
    adjacency = sampler.snapshot_adjacency()
    live = sampler._adj
    assert list(adjacency) == list(live)
    for node, nbrs in adjacency.items():
        assert list(nbrs) == list(live[node])
        assert nbrs == dict(live[node])


def test_estimator_snapshot_delegates_to_sampler():
    estimator = make_in_stream_estimator(
        60, weight_fn=TriangleWeight(), seed=5
    )
    estimator.process_many(_stream())
    arrays = estimator.snapshot_arrays()
    assert arrays.size == estimator.sampler.sample_size
    assert estimator.snapshot_adjacency() == (
        estimator.sampler.snapshot_adjacency()
    )


# ----------------------------------------------------------------------
# SampleSnapshot
# ----------------------------------------------------------------------
def test_capture_materialize_matches_compact_materialize():
    sampler = _sampler()
    sampler.process_many(_stream())
    snapshot = SampleSnapshot.capture(sampler)
    ours = snapshot.materialize()
    theirs = sampler.sample.materialize()
    assert ours.num_edges == theirs.num_edges
    assert list(ours._adj) == list(theirs._adj)
    for node in ours._adj:
        assert list(ours._adj[node]) == list(theirs._adj[node])
    # Same traversal orders => bit-identical retrospective estimates.
    assert snapshot.materialize() is ours  # cached


def test_capture_post_stream_estimates_bit_identical():
    sampler = _sampler()
    sampler.process_many(_stream())
    snapshot = SampleSnapshot.capture(sampler)
    served = snapshot.estimates()
    batch = PostStreamEstimator(sampler).estimate()
    assert served.triangles == batch.triangles
    assert served.wedges == batch.wedges
    assert served.clustering == batch.clustering
    assert snapshot.estimates() is snapshot.estimates()  # cached


def test_capture_in_stream_counter_freezes_its_bundle():
    estimator = make_in_stream_estimator(
        60, weight_fn=TriangleWeight(), seed=5
    )
    estimator.process_many(_stream())
    snapshot = SampleSnapshot.capture(estimator)
    assert snapshot.estimates() == estimator.estimates()


def test_capture_requires_the_compact_surface():
    from repro.core.priority_sampler import GraphPrioritySampler

    sampler = GraphPrioritySampler(capacity=10, seed=1)
    with pytest.raises(TypeError, match="snapshot_arrays"):
        SampleSnapshot.capture(sampler)


def test_occupancy_facts():
    sampler = _sampler(capacity=60)
    sampler.process_many(_stream())
    snapshot = SampleSnapshot.capture(sampler)
    facts = snapshot.occupancy()
    assert facts["sample_size"] == 60
    assert facts["capacity"] == 60
    assert facts["fill"] == 1.0
    assert facts["threshold"] == sampler.threshold
    assert facts["stream_position"] == sampler.stream_position


# ----------------------------------------------------------------------
# SnapshotStore
# ----------------------------------------------------------------------
def test_store_epochs_are_monotone_and_stamped():
    sampler = _sampler()
    store = SnapshotStore()
    assert store.latest() is None
    assert store.epoch == 0
    edges = _stream()
    epochs = []
    for at in range(0, 600, 200):
        sampler.process_many(edges[at:at + 200])
        epochs.append(store.publish(SampleSnapshot.capture(sampler)))
    assert epochs == [1, 2, 3]
    assert store.latest().epoch == 3
    assert store.epoch == 3


def test_store_wait_for_returns_satisfying_snapshot():
    sampler = _sampler()
    store = SnapshotStore()
    store.publish(SampleSnapshot.capture(sampler))
    assert store.wait_for(1, timeout=0.1).epoch == 1
    assert store.wait_for(5, timeout=0.05) is None  # times out


def test_store_recycles_buffers_of_collected_snapshots():
    sampler = _sampler()
    sampler.process_many(_stream())
    store = SnapshotStore(max_buffers=2)
    assert store.take_buffer() is None
    first = SampleSnapshot.capture(sampler, out=store.take_buffer())
    arena = first.arrays
    store.publish(first)
    store.publish(SampleSnapshot.capture(sampler))  # retires `first`
    del first
    gc.collect()
    assert store.take_buffer() is arena  # arena returned to the pool
    assert store.take_buffer() is None


def test_recycled_buffer_round_trips_bit_identically():
    sampler = _sampler(weight=UniformWeight)
    edges = _stream()
    store = SnapshotStore()
    sampler.process_many(edges[:400])
    store.publish(SampleSnapshot.capture(sampler, out=store.take_buffer()))
    sampler.process_many(edges[400:])
    store.publish(SampleSnapshot.capture(sampler, out=store.take_buffer()))
    served = store.latest().estimates()
    batch = PostStreamEstimator(sampler).estimate()
    assert served.triangles == batch.triangles
    assert served.wedges == batch.wedges


# ----------------------------------------------------------------------
# Copy-on-write publication: shared rows, frozen snapshots
# ----------------------------------------------------------------------
_WEIGHTS = {
    "uniform": UniformWeight,
    "triangle": TriangleWeight,
    "wedge": WedgeWeight,
    "attribute": lambda: AttributeWeight(lambda u, v: 1.0 + (7 * u + v) % 5),
}


def _orders(adjacency):
    """An adjacency's outer and inner orders, as a deep nested copy."""
    return [(u, list(nbrs.items())) for u, nbrs in adjacency.items()]


def _feed(counter, block, drive):
    if drive == "process_chunk":
        us, vs = zip(*block)
        counter.process_chunk(
            np.array(us, dtype=np.int32), np.array(vs, dtype=np.int32)
        )
    else:
        assert drive == "process_many"
        counter.process_many(block)


@pytest.mark.parametrize("drive", ["process_many", "process_chunk"])
@pytest.mark.parametrize("counter_kind", ["sampler", "in-stream"])
@pytest.mark.parametrize("weight", sorted(_WEIGHTS))
def test_held_snapshots_equal_their_capture(weight, counter_kind, drive):
    weight_fn = _WEIGHTS[weight]()
    if counter_kind == "in-stream":
        counter = make_in_stream_estimator(60, weight_fn=weight_fn, seed=5)
        sampler = counter.sampler
    else:
        counter = sampler = CompactGraphPrioritySampler(
            60, weight_fn=weight_fn, seed=5
        )
    edges = _stream()
    held = []
    for at in range(0, len(edges), 40):
        _feed(counter, edges[at:at + 40], drive)
        snapshot = SampleSnapshot.capture(counter)
        frozen = _orders(snapshot.adjacency)
        assert frozen == _orders(sampler._adj)
        post = (
            PostStreamEstimator(sampler).estimate()
            if counter is sampler else None
        )
        held.append((snapshot, frozen, post))
    assert sampler.threshold > 0.0  # later blocks evicted sampled edges
    for snapshot, frozen, post in held:
        assert _orders(snapshot.adjacency) == frozen
        if post is not None:
            assert snapshot.estimates() == post


def test_rows_unwritten_between_captures_are_shared():
    sampler = _sampler(weight=UniformWeight)
    edges = _stream()
    sampler.process_many(edges[:300])
    first = sampler.snapshot_adjacency()
    before = set(sampler.sampled_edges())
    sampler.process_many(edges[300:340])
    second = sampler.snapshot_adjacency()
    left = before - set(sampler.sampled_edges())
    assert left  # the interval evicted sampled edges
    written = {x for edge in edges[300:340] for x in edge}
    written |= {x for edge in left for x in edge}
    untouched = [x for x in second if x in first and x not in written]
    assert len(untouched) > len(second) // 2
    for x in untouched:
        assert second[x] is first[x]


def test_owned_rows_stay_bounded_without_further_captures():
    # One capture, then ~20k arrivals: the admits after it touch ~280
    # distinct nodes, while the reservoir never holds more than 40 rows.
    graph = powerlaw_cluster(10000, 2, 0.3, seed=4)
    edges = list(EdgeStream.from_graph(graph, seed=1))
    sampler = _sampler(capacity=20, weight=UniformWeight)
    sampler.process_many(edges[:20])
    sampler.snapshot_adjacency()
    sampler.process_many(edges[20:])
    rows = len(sampler._adj)
    assert rows <= 40
    # Pruned once past twice the live rows plus 64; an admit then adds
    # up to 4 nodes and may delete 2 rows.
    assert len(sampler._owned) <= 2 * (rows + 2) + 64 + 4
