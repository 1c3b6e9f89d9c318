"""Reference TRIEST loops: the oracles of the fused ``process_many``.

:class:`~repro.baselines.triest.TriestBase` and
:class:`~repro.baselines.triest.TriestImpr` used to feed every arrival
through a per-edge ``process`` built from :class:`AdjacencyGraph` calls
(``has_edge``, ``triangles_through``, ``add_edge``, ``remove_edge``) and
``random.Random.randrange``.  Those loops are kept here, unchanged, as
the oracles the fused loops must equal: the same draws in the same
order, the same τ and estimate, the same reservoir.  One difference is
by design: ``remove_edge`` leaves an emptied row behind, which the fused
loops delete, so compare the non-empty rows.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.baselines.base import BatchProcessMixin
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import EdgeKey, Node, canonical_edge, is_self_loop


class OracleTriestBase(BatchProcessMixin):
    """TRIEST-BASE, one ``process`` call per arrival."""

    def __init__(self, capacity: int, seed: Optional[int] = None) -> None:
        if capacity < 3:
            raise ValueError("TRIEST needs capacity >= 3")
        self._capacity = capacity
        self._rng = random.Random(seed)
        self._edges: List[EdgeKey] = []
        self._graph = AdjacencyGraph()
        self._arrivals = 0
        self._tau = 0

    def process(self, u: Node, v: Node) -> None:
        if is_self_loop(u, v) or self._graph.has_edge(u, v):
            return
        self._arrivals += 1
        key = canonical_edge(u, v)
        if len(self._edges) < self._capacity:
            self._tau += self._graph.triangles_through(*key)
            self._graph.add_edge(*key)
            self._edges.append(key)
            return
        if self._rng.randrange(self._arrivals) < self._capacity:
            victim_slot = self._rng.randrange(self._capacity)
            victim = self._edges[victim_slot]
            self._graph.remove_edge(*victim)
            self._tau -= self._graph.triangles_through(*victim)
            self._edges[victim_slot] = key
            self._tau += self._graph.triangles_through(*key)
            self._graph.add_edge(*key)

    @property
    def triangle_estimate(self) -> float:
        t, m = self._arrivals, self._capacity
        if t <= m:
            return self._tau * 1.0
        return self._tau * max(
            1.0, (t * (t - 1) * (t - 2)) / (m * (m - 1) * (m - 2))
        )


class OracleTriestImpr(BatchProcessMixin):
    """TRIEST-IMPR, one ``process`` call per arrival."""

    def __init__(self, capacity: int, seed: Optional[int] = None) -> None:
        if capacity < 2:
            raise ValueError("TRIEST-IMPR needs capacity >= 2")
        self._capacity = capacity
        self._rng = random.Random(seed)
        self._edges: List[EdgeKey] = []
        self._graph = AdjacencyGraph()
        self._arrivals = 0
        self._estimate = 0.0

    def process(self, u: Node, v: Node) -> None:
        if is_self_loop(u, v) or self._graph.has_edge(u, v):
            return
        self._arrivals += 1
        t, m = self._arrivals, self._capacity
        eta = max(1.0, ((t - 1) * (t - 2)) / (m * (m - 1)))
        shared = self._graph.triangles_through(u, v)
        if shared:
            self._estimate += eta * shared
        key = canonical_edge(u, v)
        if len(self._edges) < m:
            self._graph.add_edge(*key)
            self._edges.append(key)
        elif self._rng.randrange(t) < m:
            slot = self._rng.randrange(m)
            self._graph.remove_edge(*self._edges[slot])
            self._edges[slot] = key
            self._graph.add_edge(*key)

    @property
    def triangle_estimate(self) -> float:
        return self._estimate


def reservoir_state(counter) -> tuple:
    """Everything a TRIEST pass leaves behind, oracle or fused.

    τ (base) or the running estimate (impr), the reservoir's edge list
    and arrival count, the non-empty adjacency rows, the graph's edge
    count and the RNG state.
    """
    graph = counter._graph
    return (
        getattr(counter, "_tau", None),
        getattr(counter, "_estimate", None),
        list(counter._edges),
        counter._arrivals,
        {node: row for node, row in graph._adj.items() if row},
        graph.num_edges,
        counter._rng.getstate(),
    )
