"""Columnar edge chunks: the numpy-facing shape of a stream.

Everything upstream of the samplers traffics in ``(u, v)`` tuples — the
natural Python shape, but the wrong one for a vectorised admission
pre-pass.  This module defines the columnar alternative: a *chunk* is a
pair of equal-length dense ``int32`` arrays ``(u, v)`` holding up to
``DEFAULT_CHUNK_SIZE`` arrivals in stream order.  Chunks feed
``process_chunk`` on the compact GPS core
(:mod:`repro.core.compact`), which screens a whole block against the
reservoir threshold in a handful of numpy operations instead of one
Python loop iteration per loser.

Three producers exist:

* :meth:`repro.streams.stream.EdgeStream.chunks` — zero-copy slices of
  the stream's int32 columns: those of a column-backed stream (an
  edge-list file parsed by :func:`repro.graph.io.read_edge_columns`, a
  population attached from shared memory), or a tuple stream's columns
  converted once and cached;
* :func:`repro.graph.io.iter_edge_chunks` — reads an edge-list file as
  blocks without ever materialising the whole stream, parsing one byte
  slab (about one block) at a time with numpy;
* :func:`iter_chunks` here — adapts any lazy ``(u, v)`` iterable, one
  block's worth of pairs in memory at a time.

Columnarisation never relabels: it only succeeds when every node label
already is a machine integer in ``[-2³¹, 2³¹)`` (the synthetic
generators, interned streams and integer edge-list files all are), so a
chunked pass sees exactly the labels a scalar pass would and samples,
checkpoints and reports stay label-faithful.  Arbitrary labels can opt
in through an explicit :class:`~repro.streams.interner.NodeInterner`.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from repro.graph.edge import Node

#: Default arrivals per columnar block.  Large enough to amortise the
#: per-block fixed costs (MT19937 state transplant ~170 µs, reservoir
#: screen ~80 µs), small enough that the admission gate's snapshot of
#: the heap root stays fresh; the bench chunk-size axis
#: (``python -m repro bench engine``) tracks the sensitivity, which is
#: flat within 2× either side of this value.
DEFAULT_CHUNK_SIZE = 16384

#: int32 bounds a label must fit for direct (relabelling-free) columns.
_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1

Edge = Tuple[Node, Node]
#: A columnar block: equal-length int32 arrays (u column, v column).
Chunk = Tuple["_np.ndarray", "_np.ndarray"]


def int32_labelled(edges: Iterable[Edge]) -> bool:
    """Whether every label is a plain int (``bool`` excluded) in int32 range.

    Exactly the populations that columnarise — or publish to a shared
    int32 segment — without relabelling.

    Examples
    --------
    >>> int32_labelled([(0, 1), (-5, 2**31 - 1)])
    True
    >>> int32_labelled([(0, 2**31)]), int32_labelled([(True, 1)])
    (False, False)
    """
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            return False
        if not (_INT32_MIN <= u <= _INT32_MAX and _INT32_MIN <= v <= _INT32_MAX):
            return False
    return True


def columnar_or_none(edges: Sequence[Edge]) -> Optional[Chunk]:
    """``(u, v)`` int32 columns of ``edges``, or ``None`` when impossible.

    Succeeds only when :func:`int32_labelled` holds — then the columns
    carry the *original* labels and a chunked pass is label-faithful.
    Anything else (strings, floats, overflow) returns ``None`` and
    callers keep the scalar tuple path.

    Examples
    --------
    >>> u, v = columnar_or_none([(0, 1), (1, 2)])
    >>> u.tolist(), v.tolist()
    ([0, 1], [1, 2])
    >>> columnar_or_none([("a", "b")]) is None
    True
    """
    if not int32_labelled(edges):
        return None
    n = len(edges)
    flat = _np.fromiter(
        chain.from_iterable(edges), dtype=_np.int32, count=2 * n
    )
    pairs = flat.reshape(n, 2)
    return _np.ascontiguousarray(pairs[:, 0]), _np.ascontiguousarray(pairs[:, 1])


def pairs_from_columns(us, vs):
    """A columnar block back as an iterator of plain-int ``(u, v)`` pairs.

    The one adapter every scalar fallback shares: ``tolist()`` unboxes
    numpy scalars to the exact Python ints/labels a tuple stream would
    have carried, so delegating a block to a scalar loop stays
    bit-identical (dict hashing, record contents, reprs).

    >>> import numpy as np
    >>> list(pairs_from_columns(np.array([0, 1]), np.array([1, 2])))
    [(0, 1), (1, 2)]
    """
    u_list = us.tolist() if hasattr(us, "tolist") else list(us)
    v_list = vs.tolist() if hasattr(vs, "tolist") else list(vs)
    return zip(u_list, v_list)


def iter_chunks(
    edges: Iterable[Edge], size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[Chunk]:
    """Adapt any lazy ``(u, v)`` iterable into columnar int32 blocks.

    Labels must already be int32-range ints; anything else raises
    :class:`TypeError` (intern arbitrary labels to dense ids first, with
    :class:`~repro.streams.interner.NodeInterner`).

    Examples
    --------
    >>> blocks = list(iter_chunks(((i, i + 1) for i in range(5)), size=2))
    >>> [(u.tolist(), v.tolist()) for u, v in blocks]
    [([0, 1], [1, 2]), ([2, 3], [3, 4]), ([4], [5])]
    """
    if size <= 0:
        raise ValueError("chunk size must be positive")
    it = iter(edges)
    while True:
        block: List[Edge] = list(islice(it, size))
        if not block:
            return
        columns = columnar_or_none(block)
        if columns is None:
            raise TypeError(
                "chunked streams need int32-range integer node labels; "
                "intern arbitrary labels with a NodeInterner first"
            )
        yield columns


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "columnar_or_none",
    "int32_labelled",
    "iter_chunks",
    "pairs_from_columns",
]
