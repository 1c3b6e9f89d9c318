"""NSAMP: neighbourhood sampling for triangle counting.

Pavan, Tangwongsan, Tirthapura, Wu.  "Counting and Sampling Triangles from
a Graph Stream", VLDB 2013 — reference [30] of the GPS paper; compared in
Table 2.

The method runs ``r`` independent estimator instances.  Each instance:

1. holds a *level-1* edge ``e1`` — a uniform reservoir sample of size 1
   over all arrivals (replacement probability 1/t);
2. holds a *level-2* edge ``e2`` — a uniform reservoir sample of size 1
   over the ``c`` edges adjacent to ``e1`` that arrived after ``e1``;
3. flags the instance *closed* once the unique edge completing the
   ``(e1, e2)`` wedge arrives.

At query time the instance's estimate is ``t·c`` if closed else 0, and the
global estimate is the mean over instances: a triangle with edge arrival
order ``t1 < t2 < t3`` is captured exactly when ``e1 = t1`` (prob 1/t) and
``e2 = t2`` (prob 1/c), giving an unbiased HT estimate.

The per-arrival work touches all ``r`` instances, which is exactly why the
paper finds NSAMP slow without bulk processing; we express the bulk idea
as numpy vectorisation (DESIGN.md Sec. 5), keeping per-edge cost O(r) in
C rather than Python.
"""

from __future__ import annotations

import operator
from typing import Optional

import numpy as np

from repro.baselines.base import BatchProcessMixin
from repro.graph.edge import Node, is_self_loop

_INT64 = np.iinfo(np.int64)


def _check_label(label: Node) -> None:
    """Raise unless ``label`` is an integer NSAMP's int64 arrays hold."""
    try:
        if _INT64.min <= operator.index(label) <= _INT64.max:
            return
    except TypeError:
        pass
    raise ValueError(
        f"nsamp keeps node labels in int64 arrays and cannot store "
        f"{label!r}; intern labels to dense ids first "
        f"(repro.streams.NodeInterner)"
    )


class NeighborhoodSampling(BatchProcessMixin):
    """NSAMP with ``r`` vectorised estimator instances (integer node ids).

    Node labels must be integers within int64, negative ones included;
    any other label raises :class:`ValueError` on arrival.
    """

    __slots__ = (
        "_r",
        "_rng",
        "_arrivals",
        "_e1",
        "_e2",
        "_count",
        "_closing",
        "_closed",
    )

    def __init__(self, instances: int, seed: Optional[int] = None) -> None:
        if instances <= 0:
            raise ValueError("need at least one estimator instance")
        self._r = instances
        self._rng = np.random.default_rng(seed)
        self._arrivals = 0
        # Level-1 / level-2 edges as endpoint arrays; -1 = unset.
        self._e1 = np.full((2, instances), -1, dtype=np.int64)
        self._e2 = np.full((2, instances), -1, dtype=np.int64)
        # c: adjacent arrivals observed since e1 was sampled.
        self._count = np.zeros(instances, dtype=np.int64)
        # Closing pair (canonical min/max) of the current (e1, e2) wedge.
        self._closing = np.full((2, instances), -1, dtype=np.int64)
        self._closed = np.zeros(instances, dtype=bool)

    def process(self, u: Node, v: Node) -> None:
        if is_self_loop(u, v):
            return
        _check_label(u)
        _check_label(v)
        a, b = (u, v) if u <= v else (v, u)
        self._arrivals += 1
        t = self._arrivals

        # 1. Triangle closure: does (a, b) close the current wedge?
        hits = (self._closing[0] == a) & (self._closing[1] == b)
        if hits.any():
            self._closed |= hits

        # 2. Level-1 replacement with probability 1/t.
        replace1 = self._rng.random(self._r) < (1.0 / t)

        # 3. Level-2 update for instances keeping e1 and adjacent to (a, b).
        # Every e1 is set from the first arrival on (t = 1 replaces all),
        # so nothing tests for the -1 sentinel: -1 is a valid label.
        e1u, e1v = self._e1
        adjacent = ~replace1 & (
            (e1u == a) | (e1v == a) | (e1u == b) | (e1v == b)
        )
        if adjacent.any():
            self._count[adjacent] += 1
            take2 = adjacent & (
                self._rng.random(self._r) * self._count < 1.0
            )
            if take2.any():
                self._e2[0, take2] = a
                self._e2[1, take2] = b
                self._closed[take2] = False
                self._update_closing(take2)

        if replace1.any():
            self._e1[0, replace1] = a
            self._e1[1, replace1] = b
            self._e2[0, replace1] = -1
            self._e2[1, replace1] = -1
            self._count[replace1] = 0
            self._closing[0, replace1] = -1
            self._closing[1, replace1] = -1
            self._closed[replace1] = False

    def _update_closing(self, mask: np.ndarray) -> None:
        """Closing edge = symmetric difference of (e1, e2) endpoints."""
        e1u, e1v = self._e1[0, mask], self._e1[1, mask]
        e2u, e2v = self._e2[0, mask], self._e2[1, mask]
        # Shared endpoint: the one of e1 appearing in e2.
        shared_is_u = (e1u == e2u) | (e1u == e2v)
        open1 = np.where(shared_is_u, e1v, e1u)
        shared = np.where(shared_is_u, e1u, e1v)
        open2 = np.where(e2u == shared, e2v, e2u)
        lo = np.minimum(open1, open2)
        hi = np.maximum(open1, open2)
        self._closing[0, mask] = lo
        self._closing[1, mask] = hi

    @property
    def triangle_estimate(self) -> float:
        """Mean of per-instance estimates ``t·c·I(closed)``."""
        if self._arrivals == 0:
            return 0.0
        values = np.where(self._closed, self._count, 0).astype(np.float64)
        return float(values.mean() * self._arrivals)

    @property
    def instances(self) -> int:
        return self._r

    @property
    def arrivals(self) -> int:
        return self._arrivals

    @property
    def closed_instances(self) -> int:
        return int(self._closed.sum())
