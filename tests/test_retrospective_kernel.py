"""Algorithm 2 without records: the kernel equals the record oracle.

:func:`repro.core.post_stream.algorithm2` reads a slot adjacency with
slot keys and a ``1/p`` per slot; the oracle
(``tests/post_stream_oracle.py``) is the record loop it replaced.  Every
bundle must be equal bit for bit, over every registered weight, both
cores, a live sampler and a snapshot held while later blocks ingest,
before and after the reservoir overflows.  The sharded merge runs the
same loop over the union of the shards' records.
"""

from __future__ import annotations

import numpy as np
import pytest
from post_stream_oracle import (
    oracle_estimate,
    oracle_merge,
    oracle_shard_records,
)

from repro.api.registry import get_method, get_weight, weight_names
from repro.core.post_stream import PostStreamEstimator
from repro.graph.generators import powerlaw_cluster
from repro.serve.snapshot import SampleSnapshot
from repro.shard.router import split_stream
from repro.shard.runner import ShardedRunner, _extract_sample
from repro.stats.merge import merge_estimates
from repro.streams.stream import EdgeStream

BLOCK = 24

#: ``(core, view)``: snapshots need the compact core's slot surface.
VIEWS = (("compact", "live"), ("compact", "snapshot"), ("object", "live"))


@pytest.fixture(scope="module")
def arrivals():
    graph = powerlaw_cluster(150, 3, 0.5, seed=2)
    return list(EdgeStream.from_graph(graph, seed=4))


def _blocks(edges):
    for start in range(0, len(edges), BLOCK):
        block = edges[start:start + BLOCK]
        yield (
            np.array([u for u, _ in block], dtype=np.int32),
            np.array([v for _, v in block], dtype=np.int32),
            block,
        )


def _feed(counter, core, block):
    us, vs, pairs = block
    if core == "compact":
        counter.process_chunk(us, vs)
    else:
        counter.process_many(pairs)


def _nodes(sampler):
    view = getattr(sampler, "slot_view", None)
    return set(view()[0] if view is not None else sampler.sample.adjacency)


@pytest.mark.parametrize("overflow", [False, True], ids=["z0", "overflowed"])
@pytest.mark.parametrize("core,view", VIEWS, ids=["-".join(v) for v in VIEWS])
@pytest.mark.parametrize("weight", weight_names())
@pytest.mark.parametrize("method", ["gps-post", "gps"])
def test_kernel_equals_the_record_oracle(arrivals, method, weight, core,
                                         view, overflow):
    capacity = 60 if overflow else len(arrivals)
    counter = get_method(method).make(
        capacity, 0, 7, weight_fn=get_weight(weight).factory(), core=core
    )
    sampler = counter.sampler
    held = []
    seen, emptied, recreated = set(), set(), set()
    for block in _blocks(arrivals):
        _feed(counter, core, block)
        nodes = _nodes(sampler)
        recreated |= emptied & nodes
        emptied |= seen - nodes
        seen |= nodes
        expected = oracle_estimate(sampler)
        if view == "snapshot":
            held.append((SampleSnapshot.capture(counter), expected))
        assert PostStreamEstimator(sampler).estimate() == expected
    # Held snapshots answer for their capture, however far the drive
    # went since, and whatever rows it emptied or re-created.
    for snapshot, expected in held:
        assert PostStreamEstimator(snapshot).estimate() == expected
        assert oracle_estimate(snapshot) == expected
        if method == "gps-post":
            assert snapshot.estimates() == expected
    if overflow:
        assert sampler.threshold > 0.0
        assert recreated, "no row was emptied and re-created"
    else:
        assert sampler.threshold == 0.0
        assert expected.triangles.variance == 0.0


def test_slot_view_matches_the_materialised_records(arrivals):
    counter = get_method("gps-post").make(60, 0, 3)
    counter.process_many(arrivals)
    adjacency, su, sv, weights = counter.sampler.slot_view()
    materialised = counter.sampler.sample.materialize()
    assert [
        (u, list(row)) for u, row in adjacency.items()
    ] == [(u, list(row)) for u, row in materialised.adjacency.items()]
    assert len(weights) == counter.sampler.sample_size
    for row in materialised.adjacency.values():
        for record in row.values():
            slot = adjacency[record.u][record.v]
            assert (su[slot], sv[slot], weights[slot]) == (
                record.u, record.v, record.weight
            )


# ----------------------------------------------------------------------
# The sharded merge runs the same loop
# ----------------------------------------------------------------------
def _shard_counters(arrivals, shards, core="compact", weight="triangle"):
    counters = []
    for s, substream in enumerate(split_stream(arrivals, shards)):
        counter = get_method("gps-post").make(
            120 // shards, 0, 11 * shards + s,
            weight_fn=get_weight(weight).factory(), core=core,
        )
        counter.process_many(substream)
        counters.append(counter)
    return counters


@pytest.mark.parametrize("weight", weight_names())
@pytest.mark.parametrize("core", ["compact", "object"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_merge_equals_the_oracle_union_pass(arrivals, shards, core, weight):
    counters = _shard_counters(arrivals, shards, core, weight)
    samples = [oracle_shard_records(counter) for counter in counters]
    # Slots read out exactly what the materialised records said.
    assert [_extract_sample(counter)[0] for counter in counters] == samples
    merged = merge_estimates(samples)
    sums, size = oracle_merge(samples)
    assert (
        merged.triangle_count,
        merged.triangle_variance,
        merged.wedge_count,
        merged.wedge_variance,
        merged.tri_wedge_covariance,
    ) == sums
    assert merged.sample_size == size == sum(
        counter.sampler.sample_size for counter in counters
    )


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_runner_equals_the_oracle_merge(arrivals, shards):
    population = EdgeStream(sorted(arrivals))
    result = ShardedRunner(
        population, shards=shards, budget=120, stream_seed=3, sampler_seed=2,
    ).run()
    stream = population.permuted(3)
    counters = []
    for s, substream in enumerate(split_stream(list(stream), shards)):
        counter = get_method("gps-post").make(120 // shards, 0, 2 * shards + s)
        counter.process_many(substream)
        counters.append(counter)
    (triangles, triangle_var, wedges, wedge_var, _), size = oracle_merge(
        [oracle_shard_records(counter) for counter in counters]
    )
    estimates = result.estimates
    assert estimates.triangles.value == triangles
    assert estimates.triangles.variance == triangle_var
    assert estimates.wedges.value == wedges
    assert estimates.wedges.variance == wedge_var
    assert estimates.sample_size == size


@pytest.mark.parametrize(
    "samples,message",
    [
        ([[(0, 1, 0.5)], [(1, 0, 0.5)]], "more than one shard"),
        ([[(0, 1, 0.5), (0, 1, 0.25)]], "more than one shard"),
        ([[(2, 2, 0.5)]], "self-loop"),
        ([[(0, 1, 0.0)]], r"must be in \(0, 1\]"),
        ([[(0, 1, 1.5)]], r"must be in \(0, 1\]"),
        ([[(0, 1, float("nan"))]], r"must be in \(0, 1\]"),
    ],
)
def test_merge_rejections_are_unchanged(samples, message):
    with pytest.raises(ValueError, match=message):
        merge_estimates(samples)
