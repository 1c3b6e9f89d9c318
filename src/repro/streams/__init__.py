"""Graph-stream substrate.

The paper's stream model presents the edges of a graph in arbitrary order,
each processed exactly once (Sec. 1).  Experiments generate streams by
randomly permuting a graph's edge set (Sec. 6).  :class:`EdgeStream`
implements that model with explicit seeding so every run is reproducible,
and :mod:`repro.streams.transforms` provides the stream hygiene
(simplification, tuple and columnar).
:mod:`repro.streams.interner` interns arbitrary node labels to dense
``int32`` ids, so a stream whose labels are not already int32 ints can
still run on machine integers, and :mod:`repro.streams.chunks` turns
streams into columnar ``int32`` blocks (``EdgeStream.chunks``) feeding
the compact core's vectorised ``process_chunk`` admission pre-pass.
"""

from repro.streams.chunks import (
    DEFAULT_CHUNK_SIZE,
    columnar_or_none,
    iter_chunks,
)
from repro.streams.interner import NodeInterner
from repro.streams.stream import EdgeStream
from repro.streams.transforms import simplify_edges

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "EdgeStream",
    "NodeInterner",
    "columnar_or_none",
    "iter_chunks",
    "simplify_edges",
]
