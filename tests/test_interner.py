"""NodeInterner: dense first-encounter ids for arbitrary labels."""

from __future__ import annotations

import pytest

from repro.graph.generators import powerlaw_cluster
from repro.graph.io import iter_edge_list, write_edge_list
from repro.streams.interner import MAX_NODES, NodeInterner
from repro.streams.stream import EdgeStream


def test_intern_assigns_dense_first_encounter_ids():
    interner = NodeInterner()
    assert interner.intern("x") == 0
    assert interner.intern("y") == 1
    assert interner.intern("x") == 0  # idempotent
    assert len(interner) == 2
    assert "x" in interner and "z" not in interner
    assert interner.labels == ("x", "y")


def test_intern_edges_and_back():
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    interner = NodeInterner()
    interned = interner.intern_edges(edges)
    assert interned == [(0, 1), (1, 2), (0, 2)]
    assert list(interner.edge_labels(interned)) == edges
    assert interner.id_of("c") == 2
    assert interner.label(0) == "a"
    with pytest.raises(KeyError):
        interner.id_of("nope")
    with pytest.raises(KeyError):
        interner.label(99)
    assert MAX_NODES == 2**31 - 1


def test_stream_interned_preserves_order_and_length():
    graph = powerlaw_cluster(60, 3, 0.5, seed=4)
    stream = EdgeStream.from_graph(graph, seed=7)
    interner = NodeInterner()
    interned = interner.intern_edges(stream)
    assert len(interned) == len(stream)
    # Same structure edge for edge: labels map back exactly.
    for (u, v), (iu, iv) in zip(stream, interned):
        assert interner.label(iu) == u
        assert interner.label(iv) == v
    # Ids are dense 0..n-1.
    seen = {n for e in interned for n in e}
    assert seen == set(range(len(interner)))


def test_interning_is_estimate_neutral(tmp_path):
    """The whole point: interned streams give bit-identical estimates."""
    from repro.core.compact import CompactInStreamEstimator

    graph = powerlaw_cluster(100, 3, 0.5, seed=2)
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    # Same file read with string labels vs interned ints.
    labelled = list(iter_edge_list(path, node_type=str))
    interned = NodeInterner().intern_edges(labelled)
    a = CompactInStreamEstimator(60, seed=3)
    b = CompactInStreamEstimator(60, seed=3)
    a.process_many(labelled)
    b.process_many(interned)
    assert a.triangle_estimate == b.triangle_estimate
    assert a.wedge_estimate == b.wedge_estimate
    assert a.sampler.threshold == b.sampler.threshold
    assert a.sampler.sample_size == b.sampler.sample_size
