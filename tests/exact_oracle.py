"""Reference exact counts on a dict-of-sets graph: the kernels' oracles.

Two loops that counted ground truth before the columnar kernels of
:mod:`repro.graph.exact`, kept here as the oracles those kernels must
equal (beside networkx).  Both run on any hashable labels, one Python
set operation per edge:

* the degree-ordered neighbour-intersection loop behind
  :func:`~repro.graph.exact.column_statistics`: orient each edge by
  ``(degree, stable index)`` and intersect the forward neighbour sets of
  every edge's endpoints;
* :class:`ExactStreamCounter`, behind
  :func:`~repro.graph.exact.prefix_counts`: every arrival joins a
  growing graph and adds the triangles and wedges it closes.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import Node, is_self_loop
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


class ExactStreamCounter:
    """Exact cumulative subgraph counts of a growing edge stream.

    Processing edge ``{u, v}`` updates, in O(min degree):

    * triangles:  +|Γ_t(u) ∩ Γ_t(v)| (new triangles closed by the edge);
    * wedges:     +deg_t(u) + deg_t(v) (new paths of length 2 centred at
      either endpoint), where degrees/neighbourhoods are taken *before* the
      edge is added.
    """

    __slots__ = ("_graph", "_triangles", "_wedges", "_edges_seen")

    def __init__(self) -> None:
        self._graph = AdjacencyGraph()
        self._triangles = 0
        self._wedges = 0
        self._edges_seen = 0

    def process(self, u: Node, v: Node) -> bool:
        """Account for edge ``{u, v}``; returns False for dup/self-loop."""
        if is_self_loop(u, v) or self._graph.has_edge(u, v):
            return False
        self._triangles += self._graph.triangles_through(u, v)
        self._wedges += self._graph.degree(u) + self._graph.degree(v)
        self._graph.add_edge(u, v)
        self._edges_seen += 1
        return True

    def process_many(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        for u, v in edges:
            self.process(u, v)

    @property
    def triangles(self) -> int:
        return self._triangles

    @property
    def wedges(self) -> int:
        return self._wedges

    @property
    def edges_seen(self) -> int:
        return self._edges_seen

    @property
    def clustering(self) -> float:
        if self._wedges == 0:
            return 0.0
        return 3.0 * self._triangles / self._wedges

    @property
    def graph(self) -> AdjacencyGraph:
        """The prefix graph accumulated so far (live; do not mutate)."""
        return self._graph


def oracle_prefix_counts(
    edges: Iterable[Tuple[Node, Node]], marks: Sequence[int]
) -> List[Tuple[int, int]]:
    """``(triangles, wedges)`` after the first ``marks[k]`` arrivals.

    Marks past the end of the stream read the final counts.
    """
    counter = ExactStreamCounter()
    arrivals = iter(edges)
    rows: List[Tuple[int, int]] = []
    done = 0
    for mark in marks:
        counter.process_many(islice(arrivals, mark - done))
        done = mark
        rows.append((counter.triangles, counter.wedges))
    return rows
