"""TRIEST: reservoir-based streaming triangle counting.

De Stefani, Epasto, Riondato, Upfal.  "TRIÈST: Counting Local and Global
Triangles in Fully-Dynamic Streams with Fixed Memory Size", KDD 2016 —
reference [16] of the GPS paper and its main baseline in Tables 2–3.

Insertion-only variants:

* :class:`TriestBase` — keeps a uniform reservoir of M edges; a counter τ
  tracks the triangles *within the sample*, updated on every
  insertion/removal; the global estimate rescales by
  ``ξ(t) = max(1, t(t−1)(t−2) / (M(M−1)(M−2)))``, the inverse probability
  that all three edges of a triangle are in the reservoir.
* :class:`TriestImpr` — on every arrival (sampled or not) adds
  ``η(t)·|N̂(u) ∩ N̂(v)|`` with ``η(t) = max(1, (t−1)(t−2)/(M(M−1)))`` to
  the running estimate, which is never decremented.  Unbiased with lower
  variance than the base variant (the paper's Table 3 shows exactly this
  ordering, with GPS below both).
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Iterable, List, Optional, Tuple

from repro.baselines.base import BatchProcessMixin
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import EdgeKey, Node, canonical_edge


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """``random.Random.randrange(n)`` as CPython draws it, ``n >= 1``.

    The fused loops inline these lines for every reservoir draw.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@functools.lru_cache(maxsize=None)
def _draws_agree() -> bool:
    """Whether :func:`_randbelow` equals this interpreter's ``randrange``.

    Checked once, on first use: CPython promises stable seeding and
    ``random()``, not ``randrange``, so an interpreter that draws
    differently sends every fused loop back to ``randrange``.  The check
    draws three times below each power of two up to 2**64 and the
    bounds either side of it.
    """
    reference = random.Random(0)
    replica = random.Random(0)
    bounds = [1, 2, 3] + [
        (1 << k) + d for k in range(2, 65) for d in (-1, 0, 1)
    ]
    for n in bounds * 3:
        if _randbelow(replica.getrandbits, n) != reference.randrange(n):
            return False
    return replica.getstate() == reference.getstate()


class TriestBase(BatchProcessMixin):
    """TRIEST-BASE (insertion-only)."""

    __slots__ = ("_capacity", "_rng", "_edges", "_graph", "_arrivals", "_tau")

    def __init__(self, capacity: int, seed: Optional[int] = None) -> None:
        if capacity < 3:
            raise ValueError("TRIEST needs capacity >= 3")
        self._capacity = capacity
        self._rng = random.Random(seed)
        self._edges: List[EdgeKey] = []
        self._graph = AdjacencyGraph()
        self._arrivals = 0
        self._tau = 0  # triangles fully inside the current sample

    def process(self, u: Node, v: Node) -> None:
        self.process_many(((u, v),))

    def process_many(self, edges: Iterable[Tuple[Node, Node]]) -> int:
        """Feed a batch of arrivals through one fused reservoir loop.

        The same draws in the same order, and the same τ, as the
        per-edge loop this replaced (the oracle in
        ``tests/triest_oracle.py``).  Self loops and repeats are checked
        on the adjacency rows, the canonical key is built only for an
        edge that enters the reservoir, common neighbours are counted
        by C set intersection, each ``randrange`` is inlined as
        :func:`_randbelow` (unless :func:`_draws_agree` says otherwise),
        and an emptied row is deleted, so the adjacency holds only the
        reservoir's nodes.  Returns the number of edges consumed, the
        skipped ones included.
        """
        graph = self._graph
        adj = graph._adj
        adj_get = adj.get
        sample = self._edges
        capacity = self._capacity
        capacity_bits = capacity.bit_length()
        getrandbits = self._rng.getrandbits
        randrange = None if _draws_agree() else self._rng.randrange
        size = len(sample)
        arrivals = self._arrivals
        tau = self._tau
        consumed = 0
        try:
            for u, v in edges:
                consumed += 1
                if u == v:
                    continue
                nu = adj_get(u)
                if nu is not None and v in nu:
                    continue
                arrivals += 1
                if size < capacity:
                    slot = size
                    size += 1
                else:
                    # Keep the arrival with probability M/t, evicting a
                    # uniform victim.
                    if randrange is None:
                        k = arrivals.bit_length()
                        r = getrandbits(k)
                        while r >= arrivals:
                            r = getrandbits(k)
                        if r >= capacity:
                            continue
                        slot = getrandbits(capacity_bits)
                        while slot >= capacity:
                            slot = getrandbits(capacity_bits)
                    else:
                        if randrange(arrivals) >= capacity:
                            continue
                        slot = randrange(capacity)
                    x, y = sample[slot]
                    row_x = adj[x]
                    row_x.remove(y)
                    row_y = adj[y]
                    row_y.remove(x)
                    if not row_x:
                        del adj[x]
                    elif row_y:
                        tau -= len(row_x & row_y)
                    if not row_y:
                        del adj[y]
                    nu = adj_get(u)  # the eviction may have dropped it
                try:
                    key = (u, v) if u <= v else (v, u)
                except TypeError:
                    key = canonical_edge(u, v)
                if slot < len(sample):
                    sample[slot] = key
                else:
                    sample.append(key)
                nv = adj_get(v)
                if nu is None:
                    adj[u] = {v}
                else:
                    if nv is not None:
                        tau += len(nu & nv)
                    nu.add(v)
                if nv is None:
                    adj[v] = {u}
                else:
                    nv.add(u)
        finally:
            self._arrivals = arrivals
            self._tau = tau
            graph._num_edges = len(sample)
        return consumed

    @property
    def triangle_estimate(self) -> float:
        return self._tau * self._scale()

    def _scale(self) -> float:
        t, m = self._arrivals, self._capacity
        if t <= m:
            return 1.0
        return max(
            1.0,
            (t * (t - 1) * (t - 2)) / (m * (m - 1) * (m - 2)),
        )

    @property
    def sample_triangles(self) -> int:
        """τ: triangles currently inside the reservoir."""
        return self._tau

    @property
    def arrivals(self) -> int:
        return self._arrivals

    @property
    def sample_size(self) -> int:
        return len(self._edges)


class TriestImpr(BatchProcessMixin):
    """TRIEST-IMPR: eager weighted counting, never decremented."""

    __slots__ = ("_capacity", "_rng", "_edges", "_graph", "_arrivals", "_estimate")

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
        self.process_many(((u, v),))

    def process_many(self, edges: Iterable[Tuple[Node, Node]]) -> int:
        """Feed a batch of arrivals through one fused reservoir loop.

        As :meth:`TriestBase.process_many`, with the same oracle: every
        arrival adds ``η(t)·|N̂(u) ∩ N̂(v)|`` before the reservoir
        decides, with the float operations of the per-edge loop, and
        ``η`` is computed only when the intersection is non-empty.
        """
        graph = self._graph
        adj = graph._adj
        adj_get = adj.get
        sample = self._edges
        m = self._capacity
        m_bits = m.bit_length()
        pairs = m * (m - 1)
        getrandbits = self._rng.getrandbits
        randrange = None if _draws_agree() else self._rng.randrange
        size = len(sample)
        t = self._arrivals
        estimate = self._estimate
        consumed = 0
        try:
            for u, v in edges:
                consumed += 1
                if u == v:
                    continue
                nu = adj_get(u)
                if nu is not None and v in nu:
                    continue
                t += 1
                if nu is not None:
                    nv = adj_get(v)
                    if nv is not None:
                        shared = len(nu & nv)
                        if shared:
                            eta = ((t - 1) * (t - 2)) / pairs
                            estimate += (eta if eta > 1.0 else 1.0) * shared
                if size < m:
                    slot = size
                    size += 1
                else:
                    if randrange is None:
                        k = t.bit_length()
                        r = getrandbits(k)
                        while r >= t:
                            r = getrandbits(k)
                        if r >= m:
                            continue
                        slot = getrandbits(m_bits)
                        while slot >= m:
                            slot = getrandbits(m_bits)
                    else:
                        if randrange(t) >= m:
                            continue
                        slot = randrange(m)
                    x, y = sample[slot]
                    row = adj[x]
                    row.remove(y)
                    if not row:
                        del adj[x]
                    row = adj[y]
                    row.remove(x)
                    if not row:
                        del adj[y]
                    nu = adj_get(u)  # the eviction may have dropped it
                try:
                    key = (u, v) if u <= v else (v, u)
                except TypeError:
                    key = canonical_edge(u, v)
                if slot < len(sample):
                    sample[slot] = key
                else:
                    sample.append(key)
                if nu is None:
                    adj[u] = {v}
                else:
                    nu.add(v)
                nv = adj_get(v)
                if nv is None:
                    adj[v] = {u}
                else:
                    nv.add(u)
        finally:
            self._arrivals = t
            self._estimate = estimate
            graph._num_edges = len(sample)
        return consumed

    @property
    def triangle_estimate(self) -> float:
        return self._estimate

    @property
    def arrivals(self) -> int:
        return self._arrivals

    @property
    def sample_size(self) -> int:
        return len(self._edges)
