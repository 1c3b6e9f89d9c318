"""Serve soak: a live drive's memory stays flat once the reservoir fills.

One thread does what the service's drive and a reader do per block of
an unbounded synthetic stream: ingest, capture, publish and answer
``estimates``.  Once the reservoir is full, ``tracemalloc``'s current
size must stay within a small fixed bound, so snapshot buffer
recycling, the pruning of ``_owned`` and the copy-on-write slot
adjacency leak nothing per block.  Holding every snapshot instead, as
a leak would, breaks the bound many times over.
"""

from __future__ import annotations

import tracemalloc
from array import array

import pytest

from repro.api.registry import get_method
from repro.serve.snapshot import SampleSnapshot, SnapshotStore
from repro.serve.source import make_source
from repro.serve.spec import ServeSpec

BLOCKS = 120
#: Allowed spread of the traced size over the second half of the drive.
#: One held snapshot of this reservoir costs about 12 KiB.
BOUND = 64 * 1024


def _traced_sizes(method, hold=False):
    spec = ServeSpec(source="synthetic", method=method, budget=150,
                     chunk_size=256, max_edges=BLOCKS * 256, nodes=800,
                     stream_seed=7)
    counter = get_method(method).make(spec.budget, 0, spec.sampler_seed)
    store = SnapshotStore()
    held = []
    sizes = array("q", bytes(8 * BLOCKS))  # preallocated: no growth
    tracemalloc.start()
    try:
        for block, (us, vs) in enumerate(make_source(spec)):
            counter.process_chunk(us, vs)
            store.publish(
                SampleSnapshot.capture(counter, out=store.take_buffer())
            )
            store.latest().estimates()
            if hold:
                held.append(store.latest())
            sizes[block] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert block == BLOCKS - 1
    assert counter.sampler.sample_size == spec.budget
    return sizes[BLOCKS // 2:]


@pytest.mark.parametrize("method", ["gps-post", "gps"])
def test_memory_stays_flat_once_the_reservoir_is_full(method):
    sizes = _traced_sizes(method)
    assert max(sizes) - min(sizes) < BOUND, (min(sizes), max(sizes))


def test_held_snapshots_break_the_bound():
    sizes = _traced_sizes("gps-post", hold=True)
    assert sizes[-1] - sizes[0] > 8 * BOUND, (sizes[0], sizes[-1])
