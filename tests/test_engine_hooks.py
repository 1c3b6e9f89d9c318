"""``StreamEngine.on_chunk`` observers (satellite 2 of the serving PR).

Two invariant families:

* hooks fire at every natural segment boundary of whichever drive the
  engine picked, with monotone 1-based positions that end at the
  stream length;
* hooks are *observationally free* — registering one never perturbs
  the counter's RNG state, sample, or estimates relative to an
  unhooked run (the serving layer leans on this: snapshot publication
  must not change what is being snapshotted).
"""

from __future__ import annotations

import numpy as np

from repro.core.compact import CompactGraphPrioritySampler
from repro.core.priority_sampler import GraphPrioritySampler
from repro.core.weights import TriangleWeight
from repro.engine.stream_engine import StreamEngine
from repro.graph.generators import powerlaw_cluster
from repro.streams.stream import EdgeStream


def _edges(n_nodes=150, seed=7):
    graph = powerlaw_cluster(n_nodes, 3, 0.4, seed=4)
    return list(EdgeStream.from_graph(graph, seed=seed))


def _compact(seed=9):
    return CompactGraphPrioritySampler(
        50, weight_fn=TriangleWeight(), seed=seed
    )


def _run_with_hook(engine, edges, **kwargs):
    positions = []
    engine.on_chunk(positions.append)
    stats = engine.run(edges, **kwargs)
    return stats, positions


def _assert_boundary_contract(positions, total):
    assert positions, "hooks never fired"
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions), "double-fired a position"
    assert positions[-1] == total
    assert all(p >= 1 for p in positions)


# ----------------------------------------------------------------------
# Hooks fire in every drive
# ----------------------------------------------------------------------
def test_hooks_fire_in_chunked_drive_at_block_and_mark_boundaries():
    edges = _edges()
    engine = StreamEngine(_compact(), chunk_size=64)
    stats, positions = _run_with_hook(
        engine, edges, checkpoints=[100, 250], on_checkpoint=lambda t: None
    )
    _assert_boundary_contract(positions, stats.edges)
    # Checkpoint splits are segment boundaries too.
    assert 100 in positions and 250 in positions
    # Block-sized cadence between the marks.
    assert 64 in positions


def test_hooks_fire_in_batched_drive():
    edges = _edges()
    engine = StreamEngine(GraphPrioritySampler(capacity=50, seed=9))
    stats, positions = _run_with_hook(engine, edges, checkpoints=[120])
    _assert_boundary_contract(positions, stats.edges)
    assert 120 in positions


def test_on_chunk_works_as_decorator_and_stacks():
    edges = _edges()[:100]
    engine = StreamEngine(_compact(), chunk_size=32)
    first, second = [], []

    @engine.on_chunk
    def _observe(position):
        first.append(position)

    engine.on_chunk(second.append)
    engine.run(edges)
    assert first == second
    assert _observe is not None  # decorator returns the callback


def test_hooks_see_truncated_stream_end_position():
    edges = _edges()[:50]
    engine = StreamEngine(GraphPrioritySampler(capacity=20, seed=9))
    # Checkpoint past the end: stream dies early, hook still reports 50.
    stats, positions = _run_with_hook(engine, edges, checkpoints=[500])
    assert stats.edges == 50
    assert positions[-1] == 50


# ----------------------------------------------------------------------
# Hooks are observationally free
# ----------------------------------------------------------------------
def _final_state(sampler):
    sample = sampler.sample.materialize()
    return (
        sampler.stream_position,
        sampler.threshold,
        sorted(record.key for record in sample.records()),
        sorted(record.priority for record in sample.records()),
    )


def test_hooks_do_not_perturb_compact_chunked_run():
    edges = _edges()
    plain = _compact()
    StreamEngine(plain, chunk_size=64).run(edges)

    hooked = _compact()
    engine = StreamEngine(hooked, chunk_size=64)
    engine.on_chunk(lambda position: None)
    engine.on_chunk(lambda position: None)  # two observers, same answer
    engine.run(edges)

    assert _final_state(hooked) == _final_state(plain)
    np.testing.assert_array_equal(
        hooked.snapshot_arrays().priority[: hooked.sample_size],
        plain.snapshot_arrays().priority[: plain.sample_size],
    )


def test_hooks_do_not_perturb_batched_run():
    edges = _edges()
    plain = GraphPrioritySampler(capacity=50, seed=9)
    StreamEngine(plain).run(edges, checkpoints=[100])

    hooked = GraphPrioritySampler(capacity=50, seed=9)
    engine = StreamEngine(hooked)
    engine.on_chunk(lambda position: None)
    engine.run(edges, checkpoints=[100])

    assert hooked.stream_position == plain.stream_position
    assert hooked.threshold == plain.threshold
    assert sorted(e.key for e in hooked.sample.records()) == sorted(
        e.key for e in plain.sample.records()
    )


def test_reader_inside_hook_sees_consistent_prefix_state():
    """An observer reading the counter sees exactly-position state."""
    edges = _edges()
    sampler = _compact()
    engine = StreamEngine(sampler, chunk_size=64)
    seen = []
    engine.on_chunk(
        lambda position: seen.append((position, sampler.stream_position))
    )
    engine.run(edges)
    assert seen
    assert all(position == live for position, live in seen)
