"""Exact triangle / wedge / clustering computation (ground truth).

Every experiment in the paper reports estimator error against the true
statistic ``X`` of the full graph, so an exact counting substrate is a hard
requirement.  One columnar machinery serves both flavours the experiments
need:

* Whole-graph counting, :func:`column_statistics`: the degree-ordered
  forward algorithm (Chiba–Nishizeki style, O(a(G)·|K|) candidate tests
  where ``a`` is arboricity — the same bound the paper quotes for
  Algorithm 2, each test a binary search) over integer edge columns.
  :func:`compute_statistics`, :func:`triangle_count` and
  :func:`per_node_triangles` turn an :class:`AdjacencyGraph` into
  columns and call it; the sweep's ground truth hands it a file's
  parsed columns directly.
* The prefix series of a stream, :func:`prefix_counts`: the exact
  ``(N_t(△), N_t(Λ))`` at chosen arrival positions, which the tracking
  experiments (paper Table 3 and Figure 3) score against.  Each
  triangle is binned at the latest arrival of its three edges, so one
  pass over the stream's triangles gives every prefix at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import Node

#: Candidate third vertices tested per step of the triangle kernel.  The
#: kernel's temporaries are its O(m) columns plus arrays of this length,
#: however many wedges the graph holds.
_CANDIDATE_BLOCK = 1 << 16


def _forward_codes(us, vs):
    """Relabel and orient the edges of a simple graph.

    Endpoints get dense ids ranked by ``(degree, label)``; each edge
    points from its lower-ranked to its higher-ranked endpoint and is
    coded ``lo·2³² | hi`` (ranks stay below 2³², the count of int32
    labels).  Returns the labels in rank order, the degrees in rank
    order, the sorted uint64 codes (the forward CSR, row by row) and
    the permutation that sorts them: sorted code ``i`` is input edge
    ``perm[i]``.
    """
    labels, ends = np.unique(
        np.concatenate([us, vs]), return_inverse=True
    )
    degrees = np.bincount(ends, minlength=len(labels))
    order = np.argsort(degrees, kind="stable")
    rank = np.empty(len(labels), dtype=np.uint64)
    rank[order] = np.arange(len(labels), dtype=np.uint64)
    a, b = rank[ends[: len(us)]], rank[ends[len(us):]]
    codes = (np.minimum(a, b) << 32) | np.maximum(a, b)
    perm = np.argsort(codes)
    codes = codes[perm]
    if (a == b).any() or (codes[1:] == codes[:-1]).any():
        raise ValueError("edge columns must be simplified: no self loops "
                         "or repeated edges")
    return labels[order], degrees[order], codes, perm


def _closing_candidates(
    codes,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per block, the forward edge pairs that close a triangle.

    Every forward edge ``(a, b)`` nominates the later entries ``c`` of
    row ``a`` as third vertices; ``(a, b, c)`` is a triangle exactly
    when the code of ``(b, c)`` is an edge code, and each triangle is
    nominated once, at its two lowest-ranked vertices.  Candidates are
    numbered globally and tested :data:`_CANDIDATE_BLOCK` at a time by
    binary search in the sorted codes.  Yields the positions
    ``(e, f, g)`` of ``(a, b)``, ``(a, c)`` and ``(b, c)`` for every hit.
    """
    m = len(codes)
    src = codes >> 32
    dst = codes & 0xFFFFFFFF
    row_end = np.searchsorted(src, src, side="right")
    later = row_end - np.arange(1, m + 1)
    last = np.cumsum(later)  # one past each edge's last candidate
    total = int(last[-1]) if m else 0
    for start in range(0, total, _CANDIDATE_BLOCK):
        k = np.arange(start, min(start + _CANDIDATE_BLOCK, total),
                      dtype=np.int64)
        e = np.searchsorted(last, k, side="right")
        f = e + 1 + k - (last[e] - later[e])
        wanted = (dst[e] << 32) | dst[f]
        at = np.searchsorted(codes, wanted)
        np.minimum(at, m - 1, out=at)
        hit = codes[at] == wanted
        yield e[hit], f[hit], at[hit]


def _wedges(degrees) -> int:
    """Σ C(d, 2) over a degree array, as an exact Python int.

    A graph with m edges has at most √(2m) + 1 distinct degrees, so the
    sum runs over those in Python ints.
    """
    distinct, counts = np.unique(degrees, return_counts=True)
    return sum(
        d * (d - 1) // 2 * count
        for d, count in zip(distinct.tolist(), counts.tolist())
    )


def column_statistics(
    us, vs, num_nodes: Optional[int] = None
) -> GraphStatistics:
    """Exact statistics of a simple graph given as integer edge columns.

    ``us``/``vs`` hold one undirected edge per position, with no self
    loops and no repeated edge in either orientation (what
    :func:`~repro.streams.transforms.simplify_columns` returns); any
    integer labels work.  ``num_nodes`` counts isolated nodes too; it
    defaults to the number of distinct endpoints.  Counts are exact
    Python ints, and the temporaries are O(m) arrays plus one candidate
    block, never O(wedges).

    >>> import numpy as np
    >>> stats = column_statistics(np.array([0, 0, 1, 1, 2]),
    ...                           np.array([1, 2, 2, 3, 3]))
    >>> stats.triangles, stats.wedges, stats.clustering
    (2, 8, 0.75)
    """
    if len(us) != len(vs):
        raise ValueError("edge columns differ in length")
    labels, degrees, codes, _ = _forward_codes(us, vs)
    triangles = sum(len(e) for e, _, _ in _closing_candidates(codes))
    wedges = _wedges(degrees)
    return GraphStatistics(
        num_nodes=len(labels) if num_nodes is None else num_nodes,
        num_edges=len(codes),
        triangles=triangles,
        wedges=wedges,
        clustering=3.0 * triangles / wedges if wedges else 0.0,
    )


def _first_arrivals(us, vs) -> np.ndarray:
    """Arrival indices of each edge's first arrival, self loops skipped.

    Each undirected edge is keyed ``min·2³² + (max + 2³¹)``, injective
    over int32 pairs; one plain sort proves the keys distinct in the
    usual case of an already simplified stream.
    """
    kept = np.flatnonzero(us != vs)
    lo = np.minimum(us[kept], vs[kept]).astype(np.int64)
    hi = np.maximum(us[kept], vs[kept]).astype(np.int64)
    keys = lo * (1 << 32) + (hi + (1 << 31))
    if (np.diff(np.sort(keys)) == 0).any():
        _, first = np.unique(keys, return_index=True)
        kept = kept[np.sort(first)]
    return kept


def _prefix_wedges(ku, kv, kept, marks) -> np.ndarray:
    """Wedges of each prefix: an edge adds its endpoints' prior degrees.

    One stable sort of the interleaved endpoints lists every node's
    occurrences in arrival order, so an occurrence's rank within its
    node's run is the node's degree just before that arrival.
    """
    ends = np.empty(2 * len(ku), dtype=ku.dtype)
    ends[0::2], ends[1::2] = ku, kv
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    before = np.arange(len(ends))
    before -= np.searchsorted(ends, ends)
    degree = np.empty_like(before)
    degree[order] = before
    wedges = np.zeros(len(ku) + 1, dtype=np.int64)
    np.cumsum(degree[0::2] + degree[1::2], out=wedges[1:])
    return wedges[np.searchsorted(kept, marks)]


def _prefix_triangles(ku, kv, kept, marks) -> np.ndarray:
    """Triangles of each prefix: each binned at its latest arrival."""
    _, _, codes, perm = _forward_codes(ku, kv)
    arrival = kept[perm]
    closed = np.zeros(len(marks) + 1, dtype=np.int64)
    for e, f, g in _closing_candidates(codes):
        latest = np.maximum(np.maximum(arrival[e], arrival[f]), arrival[g])
        closed += np.bincount(
            np.searchsorted(marks, latest, side="right"),
            minlength=len(closed),
        )
    return np.cumsum(closed[:-1])


def prefix_counts(us, vs, marks: Sequence[int]) -> List[Tuple[int, int]]:
    """Exact ``(triangles, wedges)`` of a stream's prefix graphs.

    ``us``/``vs`` are a stream's int32 endpoint columns in arrival
    order; a self loop or a repeat of an earlier edge (in either
    orientation) adds nothing, as in a dict-of-sets prefix graph.
    Row ``k`` counts the graph of the first ``marks[k]`` arrivals
    (increasing 1-based positions).  A triangle counts from the latest
    arrival of its three edges, binned into the marks one candidate
    block at a time; an edge adds the wedges its endpoints' degrees
    just before it close.  Time is O(m log m) plus the triangle
    kernel's candidate tests, and memory O(m) plus one block, however
    many marks there are.

    >>> import numpy as np
    >>> prefix_counts(np.array([0, 1, 1, 2, 0]), np.array([1, 0, 2, 0, 3]),
    ...               [2, 4, 5])
    [(0, 0), (1, 3), (1, 5)]
    """
    marks = np.asarray(marks, dtype=np.int64)
    kept = _first_arrivals(us, vs)
    ku, kv = us[kept], vs[kept]
    wedges = _prefix_wedges(ku, kv, kept, marks)
    triangles = _prefix_triangles(ku, kv, kept, marks)
    return list(zip(triangles.tolist(), wedges.tolist()))


def _graph_columns(
    graph: AdjacencyGraph,
) -> Tuple[List[Node], np.ndarray, np.ndarray]:
    """``graph``'s nodes and its edges as dense-id columns, each edge once."""
    nodes = list(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    degrees = np.fromiter(
        (graph.degree(v) for v in nodes), dtype=np.int64, count=len(nodes)
    )
    src = np.repeat(np.arange(len(nodes), dtype=np.int64), degrees)
    dst = np.fromiter(
        (index[w] for v in nodes for w in graph.neighbors(v)),
        dtype=np.int64,
        count=int(degrees.sum()),
    )
    forward = src < dst
    return nodes, src[forward], dst[forward]


def triangle_count(graph: AdjacencyGraph) -> int:
    """Exact number of triangles in ``graph`` (see :func:`column_statistics`)."""
    return compute_statistics(graph).triangles


def wedge_count(graph: AdjacencyGraph) -> int:
    """Exact number of wedges (paths of length 2): Σ_v C(deg(v), 2)."""
    return sum(d * (d - 1) // 2 for d in (graph.degree(v) for v in graph.nodes()))


def global_clustering(graph: AdjacencyGraph) -> float:
    """Global clustering coefficient α = 3·N(△)/N(Λ); 0 for wedge-free graphs."""
    return compute_statistics(graph).clustering


def per_node_triangles(graph: AdjacencyGraph) -> Dict[Node, int]:
    """Triangles incident to each node (each triangle counted at 3 nodes)."""
    nodes, us, vs = _graph_columns(graph)
    labels, _, codes, _ = _forward_codes(us, vs)
    ranked = np.zeros(len(labels), dtype=np.int64)
    src, dst = codes >> 32, codes & 0xFFFFFFFF
    for e, f, _ in _closing_candidates(codes):
        for corner in (src[e], dst[e], dst[f]):
            np.add.at(ranked, corner.astype(np.int64), 1)
    counts = np.zeros(len(nodes), dtype=np.int64)
    counts[labels] = ranked
    return dict(zip(nodes, counts.tolist()))


def local_clustering(graph: AdjacencyGraph, v: Node) -> float:
    """Local clustering coefficient of node ``v``."""
    d = graph.degree(v)
    if d < 2:
        return 0.0
    nbrs = graph.neighbors(v)
    links = 0
    for u in nbrs:
        nbrs_u = graph.neighbors(u)
        if len(nbrs_u) < len(nbrs):
            links += sum(1 for w in nbrs_u if w in nbrs and w != v)
        else:
            links += sum(1 for w in nbrs if w in nbrs_u and w != u)
    # every triangle through v counted twice in the loop above
    return links / (d * (d - 1))


@dataclass(frozen=True)
class GraphStatistics:
    """Exact summary statistics of a graph (the paper's 'ACTUAL' columns)."""

    num_nodes: int
    num_edges: int
    triangles: int
    wedges: int
    clustering: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "triangles": self.triangles,
            "wedges": self.wedges,
            "clustering": self.clustering,
        }


def compute_statistics(graph: AdjacencyGraph) -> GraphStatistics:
    """Exact node/edge/triangle/wedge/clustering statistics of ``graph``.

    Isolated nodes count towards ``num_nodes``; the counts come from
    :func:`column_statistics` over the graph's edges.
    """
    _, us, vs = _graph_columns(graph)
    return column_statistics(us, vs, num_nodes=graph.num_nodes)
