"""Reference exact counts on a dict-of-sets graph: the kernel's oracle.

This is the degree-ordered neighbour-intersection loop that counted
ground truth before :func:`repro.graph.exact.column_statistics`:
orient each edge by ``(degree, stable index)`` and intersect the
forward neighbour sets of every edge's endpoints.  It runs on any
hashable labels, one Python set operation per edge, and stays here as
the oracle the columnar kernel must equal, beside networkx.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import Node
from repro.graph.exact import GraphStatistics


def _degree_order(graph: AdjacencyGraph) -> Dict[Node, Tuple[int, int]]:
    """Total order on nodes by (degree, stable index)."""
    return {
        v: (graph.degree(v), idx)
        for idx, v in enumerate(sorted(graph.nodes(), key=repr))
    }


def oracle_triangle_count(graph: AdjacencyGraph) -> int:
    """Exact triangles: common forward neighbours of every edge."""
    order = _degree_order(graph)
    forward: Dict[Node, set] = {v: set() for v in graph.nodes()}
    for u, v in graph.edges():
        if order[u] < order[v]:
            forward[u].add(v)
        else:
            forward[v].add(u)
    total = 0
    for u, out_u in forward.items():
        for v in out_u:
            out_v = forward[v]
            if len(out_u) <= len(out_v):
                total += sum(1 for w in out_u if w in out_v)
            else:
                total += sum(1 for w in out_v if w in out_u)
    return total


def oracle_statistics(graph: AdjacencyGraph) -> GraphStatistics:
    """The oracle's :class:`GraphStatistics` of ``graph``."""
    triangles = oracle_triangle_count(graph)
    wedges = sum(
        d * (d - 1) // 2 for d in (graph.degree(v) for v in graph.nodes())
    )
    return GraphStatistics(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        triangles=triangles,
        wedges=wedges,
        clustering=3.0 * triangles / wedges if wedges else 0.0,
    )
