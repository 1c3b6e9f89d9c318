"""Graph Sample-and-Hold: gSH(p, q).

Ahmed, Duffield, Neville, Kompella.  "Graph Sample and Hold: A Framework
for Big-Graph Analytics", KDD 2014 — reference [3] of the GPS paper and
its closest methodological antecedent.

An arriving edge that is *adjacent to the sampled graph* is held with
probability ``q``; a non-adjacent edge is sampled with probability ``p``
(typically p < q, biasing retention towards structure already seen).  The
selection probability of every held edge is recorded at admission, so any
subgraph fully inside the sample gets the HT product estimate
``Π 1/p_i`` — unbiased because each edge's probability is measurable with
respect to the history before its arrival (the same conditioning argument
GPS generalises with its martingale formulation).

Memory is not fixed (expected ≈ p·t + held adjacency mass); the harness
tunes ``p`` to meet a budget, as with MASCOT.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional

from repro.baselines.base import BatchProcessMixin
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import EdgeKey, Node, canonical_edge, is_self_loop


class GraphSampleHold(BatchProcessMixin):
    """gSH(p, q) with HT triangle/edge estimation."""

    __slots__ = ("_p", "_q", "_rng", "_graph", "_probs", "_arrivals")

    def __init__(
        self,
        p: float,
        q: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        if q is None:
            q = 1.0
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        self._p = p
        self._q = q
        self._rng = random.Random(seed)
        self._graph = AdjacencyGraph()
        self._probs: Dict[EdgeKey, float] = {}
        self._arrivals = 0

    def process(self, u: Node, v: Node) -> None:
        if is_self_loop(u, v) or self._graph.has_edge(u, v):
            return
        self._arrivals += 1
        adjacent = self._graph.degree(u) > 0 or self._graph.degree(v) > 0
        prob = self._q if adjacent else self._p
        if self._rng.random() < prob:
            self._graph.add_edge(u, v)
            self._probs[canonical_edge(u, v)] = prob

    # ------------------------------------------------------------------
    # HT estimates over the held graph
    # ------------------------------------------------------------------
    @property
    def edge_estimate(self) -> float:
        """HT estimate of the number of edges seen: Σ 1/p_i."""
        return sum(1.0 / p for p in self._probs.values())

    @property
    def triangle_estimate(self) -> float:
        """HT estimate of triangles: Σ over held triangles Π 1/p_i.

        The products are visited in set order, which follows the string
        hash for string labels, so they are summed with ``math.fsum``:
        correctly rounded, whatever the order.
        """
        products = []
        for u, v in self._graph.edges():
            key_uv = canonical_edge(u, v)
            inv_uv = 1.0 / self._probs[key_uv]
            for w in self._graph.common_neighbors(u, v):
                inv_uw = 1.0 / self._probs[canonical_edge(u, w)]
                inv_vw = 1.0 / self._probs[canonical_edge(v, w)]
                products.append(inv_uv * inv_uw * inv_vw)
        return math.fsum(products) / 3.0  # each triangle once per edge

    @property
    def sample_size(self) -> int:
        return self._graph.num_edges

    @property
    def arrivals(self) -> int:
        return self._arrivals

    @property
    def graph(self) -> AdjacencyGraph:
        return self._graph
