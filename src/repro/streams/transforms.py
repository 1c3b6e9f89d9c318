"""Stream transforms: hygiene for edge streams.

The paper assumes simplified graphs (unique, loop-free edges).  Real edge
lists rarely guarantee that, so :func:`simplify_edges` is the standard
pre-processing step, a lazy generator over ``(u, v)`` pairs;
:func:`simplify_columns` is its vectorised twin over int32 columns (the
columnar file ingest).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Set, Tuple

import numpy as np

from repro.graph.edge import EdgeKey, Node, canonical_edge, is_self_loop


def simplify_edges(
    edges: Iterable[Tuple[Node, Node]],
) -> Iterator[Tuple[Node, Node]]:
    """Drop self loops and repeat occurrences of an undirected edge.

    The first arrival of each undirected edge is kept with its original
    endpoint order; later duplicates (in either orientation) are dropped.
    """
    seen: Set[EdgeKey] = set()
    for u, v in edges:
        if is_self_loop(u, v):
            continue
        key = canonical_edge(u, v)
        if key in seen:
            continue
        seen.add(key)
        yield u, v


def simplify_columns(us, vs):
    """:func:`simplify_edges` over ``(u, v)`` int32 columns, vectorised.

    Self loops drop; each undirected edge is keyed by the canonical code
    ``min·2³² + (max + 2³¹)``, injective over all int32 pairs and free
    of int64 overflow, and only its first occurrence stays, in its
    original orientation.  Returns the inputs themselves when nothing
    drops (one sort proves the codes distinct).

    >>> import numpy as np
    >>> u, v = simplify_columns(np.array([1, 2, 3, 1], dtype=np.int32),
    ...                         np.array([2, 1, 3, 4], dtype=np.int32))
    >>> u.tolist(), v.tolist()
    ([1, 1], [2, 4])
    """
    loops = us == vs
    if loops.any():
        us, vs = us[~loops], vs[~loops]
    lo = np.minimum(us, vs).astype(np.int64)
    hi = np.maximum(us, vs).astype(np.int64)
    codes = lo * (1 << 32) + (hi + (1 << 31))
    # Most files hold no duplicates, and a plain sort proves that at a
    # fraction of np.unique's stable argsort (5 vs 39 ms for 200k edges
    # on a 2-vCPU VM).
    ordered = np.sort(codes)
    if not (ordered[1:] == ordered[:-1]).any():
        return us, vs
    _, first = np.unique(codes, return_index=True)
    first.sort()
    return us[first], vs[first]
