"""The sampled graph K̂: adjacency view over reservoir edge records.

:class:`SampledGraph` maintains ``node → {neighbour → EdgeRecord}`` so the
weight functions and both estimation algorithms can do their local
neighbourhood work at the costs the paper analyses:

* triangles an arriving edge closes in the sample — O(min sampled degree)
  (property S4);
* enumeration of sampled triangles/wedges through an edge — the inner
  loops of Algorithms 2 and 3.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.core.records import EdgeRecord
from repro.graph.edge import Node


class SampledGraph:
    """Adjacency structure over the current reservoir contents."""

    __slots__ = ("_adj", "_num_edges")

    def __init__(self) -> None:
        self._adj: Dict[Node, Dict[Node, EdgeRecord]] = {}
        self._num_edges = 0

    @classmethod
    def from_adjacency(
        cls, adj: Dict[Node, Dict[Node, EdgeRecord]], num_edges: int
    ) -> "SampledGraph":
        """Wrap a prebuilt ``node → {neighbour → record}`` adjacency.

        The caller owns the invariants (symmetry, one shared record per
        edge, no empty inner dicts) *and the dict iteration orders* —
        this is how the compact core materialises an object-core view
        with bit-identical traversal order
        (:meth:`repro.core.compact.CompactSample.materialize`).
        """
        graph = cls()
        graph._adj = adj
        graph._num_edges = num_edges
        return graph

    # ------------------------------------------------------------------
    # Mutation (driven by the sampler)
    # ------------------------------------------------------------------
    def add(self, record: EdgeRecord) -> None:
        """Insert ``record``; endpoints must not already be connected."""
        u, v = record.u, record.v
        nbrs_u = self._adj.setdefault(u, {})
        if v in nbrs_u:
            raise ValueError(f"edge ({u!r}, {v!r}) already sampled")
        nbrs_u[v] = record
        self._adj.setdefault(v, {})[u] = record
        self._num_edges += 1

    def remove(self, record: EdgeRecord) -> None:
        """Evict ``record``; isolated endpoints are dropped entirely."""
        u, v = record.u, record.v
        try:
            del self._adj[u][v]
            del self._adj[v][u]
        except KeyError:
            raise KeyError(f"edge ({u!r}, {v!r}) not in sample") from None
        if not self._adj[u]:
            del self._adj[u]
        if not self._adj[v]:
            del self._adj[v]
        self._num_edges -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def adjacency(self) -> Dict[Node, Dict[Node, EdgeRecord]]:
        """The live ``node → {neighbour → record}`` map (read-only)."""
        return self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def record(self, u: Node, v: Node) -> Optional[EdgeRecord]:
        nbrs = self._adj.get(u)
        if nbrs is None:
            return None
        return nbrs.get(v)

    def degree(self, v: Node) -> int:
        return len(self._adj.get(v, ()))

    def neighbors(self, v: Node) -> Dict[Node, EdgeRecord]:
        """Neighbour → record map of ``v`` (live view; do not mutate)."""
        return self._adj.get(v, _EMPTY)

    def records(self) -> Iterator[EdgeRecord]:
        """Each sampled edge record exactly once."""
        seen_at_u = set()
        for u, nbrs in self._adj.items():
            seen_at_u.add(u)
            for v, record in nbrs.items():
                if v not in seen_at_u:
                    yield record

    def common_neighbor_count(self, u: Node, v: Node) -> int:
        """|Γ̂(u) ∩ Γ̂(v)| — triangles edge {u, v} closes in the sample.

        This is the triangle-weight computation of Sec. 3.2 (S4), done by
        scanning the smaller sampled neighbourhood.
        """
        nbrs_u = self._adj.get(u, _EMPTY)
        nbrs_v = self._adj.get(v, _EMPTY)
        if len(nbrs_u) > len(nbrs_v):
            nbrs_u, nbrs_v = nbrs_v, nbrs_u
        return sum(1 for w in nbrs_u if w in nbrs_v)

    def triangles_with(
        self, u: Node, v: Node
    ) -> Iterator[Tuple[Node, EdgeRecord, EdgeRecord]]:
        """Yield ``(w, record(u,w), record(v,w))`` for sampled triangles.

        Enumerates triangles completed by the (not necessarily sampled)
        edge ``{u, v}`` against the sample: common sampled neighbours
        ``w``, scanning the smaller neighbourhood.
        """
        nbrs_u = self._adj.get(u, _EMPTY)
        nbrs_v = self._adj.get(v, _EMPTY)
        if len(nbrs_u) <= len(nbrs_v):
            for w, rec_uw in nbrs_u.items():
                rec_vw = nbrs_v.get(w)
                if rec_vw is not None:
                    yield w, rec_uw, rec_vw
        else:
            for w, rec_vw in nbrs_v.items():
                rec_uw = nbrs_u.get(w)
                if rec_uw is not None:
                    yield w, rec_uw, rec_vw

    def incident_records(
        self, v: Node, exclude: Optional[Node] = None
    ) -> Iterator[EdgeRecord]:
        """Records of sampled edges incident to ``v`` (optionally skipping
        the neighbour ``exclude`` — used to avoid pairing an edge with
        itself when enumerating wedges through it)."""
        for w, record in self._adj.get(v, _EMPTY).items():
            if w != exclude:
                yield record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SampledGraph(nodes={self.num_nodes}, edges={self.num_edges})"


_EMPTY: Dict[Node, EdgeRecord] = {}


def snapshot_view(sample) -> "SampledGraph":
    """A traversal-stable view for the record-reading estimators.

    Object-core :class:`SampledGraph` instances come back as-is; compact
    views are materialised once (``CompactSample.materialize``), so the
    local, motif and subgraph loops pay O(m) record construction up
    front instead of on every ``neighbors`` call.
    Iteration orders are identical either way, keeping their estimates
    bit-exact across cores.
    """
    materialize = getattr(sample, "materialize", None)
    return materialize() if materialize is not None else sample
