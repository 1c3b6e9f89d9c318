"""Algorithm 2 — post-stream (retrospective) estimation.

At any point in the stream, the reservoir plus the threshold ``z*`` suffice
to compute unbiased estimates of triangle count, wedge count, their
variances (Eqs. 9–10 in the localised forms of Eqs. 13–14), the
triangle–wedge covariance (Eq. 12) and the global clustering coefficient
with its delta-method variance (Eq. 11).

The computation is localised per sampled edge: for edge ``k = (v1, v2)``
(``v1`` the endpoint of smaller sampled degree) we enumerate sampled
triangles through ``k`` and sampled wedges centred at each endpoint, and
maintain the cumulative sums the paper uses to fold pairwise covariance
terms into a single pass (Algorithm 2 lines 14–15, 19–20, 27–28).  Total
cost is O(Σ_k min-degree) = O(a(K̂)·m) ≤ O(m^{3/2}).

Every subgraph estimator below is an *edge product* ``Ŝ_J = Π 1/p(e)``
over the subgraph's sampled edges (Theorem 2), with
``p(e) = min{1, w(e)/z*}``; pairs of subgraphs sharing an edge contribute
the covariance ``Ŝ_{J1∪J2}(Ŝ_{J1∩J2} − 1)`` (Theorem 3).

:func:`algorithm2` is the one pass, over ``node → {neighbour → key}``
rows, a ``key → 1/p`` lookup and an edge order: slots (no ``EdgeRecord``
built), object-core records, or a shard union (:mod:`repro.stats.merge`).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Tuple

from repro.core.estimates import GraphEstimates
from repro.graph.edge import Node


def algorithm2(
    adjacency: Dict[Node, Dict[Node, Hashable]],
    inverse: Any,
    edges: Iterable[Tuple[Node, Node, Hashable]],
) -> Dict[str, float]:
    """Algorithm 2 over a sampled graph, whose rows it only reads.

    ``inverse[key]`` is an edge's ``1/p`` and ``edges`` yields each
    sampled edge once as ``(u, v, key)``; dict and edge orders fix the
    float accumulation order.  Returns the raw sums as
    :meth:`GraphEstimates.from_raw` keywords.
    """
    triangle_sum = 0.0      # Σ_k N̂_k(△)   (each triangle counted 3×)
    triangle_var = 0.0      # Σ_k V̂_k(△)   (diagonal terms, 3× each)
    triangle_cov = 0.0      # Σ_k Ĉ_k(△)   (pairs sharing edge k, 1× each)
    wedge_sum = 0.0         # Σ_k N̂_k(Λ)   (each wedge counted 2×)
    wedge_var = 0.0         # Σ_k V̂_k(Λ)
    wedge_cov = 0.0         # Σ_k Ĉ_k(Λ)
    cross_cov = 0.0         # V̂(△, Λ), Eq. 12, each (τ, λ) pair once

    for v1, v2, key in edges:
        inv_q = inverse[key]
        neighbors_v1 = adjacency[v1]
        neighbors_v2 = adjacency[v2]
        if len(neighbors_v1) > len(neighbors_v2):
            v1, v2 = v2, v1
            neighbors_v1, neighbors_v2 = neighbors_v2, neighbors_v1

        tri_cum = 0.0        # c△: Σ (q1·q2)^{-1} of triangles seen at k
        wedge_cum = 0.0      # cΛ: Σ q_other^{-1} of wedges seen at k
        tri_pair = 0.0       # Σ ordered-pair products for triangles at k
        wedge_pair = 0.0     # Σ ordered-pair products for wedges at k
        tri_local = 0.0
        tri_var_local = 0.0
        wedge_local = 0.0
        wedge_var_local = 0.0
        contained_sub = 0.0  # Σ_τ (q1q2)^{-1}(q1^{-1}+q2^{-1})
        contained_cov = 0.0  # wedge-inside-triangle covariance (opposite wedge)

        for v3, key1 in neighbors_v1.items():
            if v3 == v2:
                continue
            inv1 = inverse[key1]
            key2 = neighbors_v2.get(v3)
            if key2 is not None:
                # Triangle (k1, k2, k) through edge k.
                inv2 = inverse[key2]
                pair_prod = inv1 * inv2
                estimate = inv_q * pair_prod
                tri_local += estimate
                tri_var_local += estimate * (estimate - 1.0)
                tri_pair += tri_cum * pair_prod
                tri_cum += pair_prod
                contained_sub += pair_prod * (inv1 + inv2)
                # Wedge (k1, k2) ⊂ τ opposite to k:  Ŝ_τ (Ŝ_λ − 1).
                contained_cov += estimate * (pair_prod - 1.0)
            # Wedge (v3, v1, v2): edges (k1, k), centred at v1.
            wedge_estimate = inv_q * inv1
            wedge_local += wedge_estimate
            wedge_var_local += wedge_estimate * (wedge_estimate - 1.0)
            wedge_pair += wedge_cum * inv1
            wedge_cum += inv1

        for v3, key2 in neighbors_v2.items():
            if v3 == v1:
                continue
            # Wedge (v1, v2, v3): edges (k2, k), centred at v2.
            inv2 = inverse[key2]
            wedge_estimate = inv_q * inv2
            wedge_local += wedge_estimate
            wedge_var_local += wedge_estimate * (wedge_estimate - 1.0)
            wedge_pair += wedge_cum * inv2
            wedge_cum += inv2

        shared_factor = inv_q * (inv_q - 1.0)
        triangle_sum += tri_local
        triangle_var += tri_var_local
        triangle_cov += 2.0 * shared_factor * tri_pair
        wedge_sum += wedge_local
        wedge_var += wedge_var_local
        wedge_cov += 2.0 * shared_factor * wedge_pair
        # Triangle–wedge pairs sharing exactly edge k (excluding wedges
        # contained in the triangle, which share two edges) ...
        cross_cov += shared_factor * (tri_cum * wedge_cum - contained_sub)
        # ... plus wedge-inside-triangle pairs, one (opposite) wedge per
        # enumeration so each contained pair is counted exactly once.
        cross_cov += contained_cov

    return {
        "triangle_count": triangle_sum / 3.0,
        "triangle_variance": triangle_var / 3.0 + triangle_cov,
        "wedge_count": wedge_sum / 2.0,
        "wedge_variance": wedge_var / 2.0 + wedge_cov,
        "tri_wedge_covariance": cross_cov,
    }


def sampled_edges(sampler: Any) -> Tuple[Dict[Node, Dict], Any, Any]:
    """``(adjacency, edges, p)``: a reservoir as :func:`algorithm2` reads it.

    ``edges`` lists each edge once as ``(u, v, key)`` in record order and
    ``p[key]`` is its ``min{1, w/z*}``.  Keys are slots where the sampler
    has a ``slot_view()`` (the compact core, a serve snapshot), else the
    object core's records.
    """
    threshold = sampler.threshold
    slot_view = getattr(sampler, "slot_view", None)
    if slot_view is None:
        graph = sampler.sample
        p = {r: r.inclusion_probability(threshold) for r in graph.records()}
        return graph.adjacency, [(r.u, r.v, r) for r in p], p
    adjacency, su, sv, weights = slot_view()
    if threshold <= 0.0:
        p = [1.0] * len(weights)
    else:  # EdgeRecord.inclusion_probability's very operations
        p = [r if (r := w / threshold) < 1.0 else 1.0 for w in weights]
    # The object core's record order: each edge at the first row that
    # holds it (its slot's first visit), oriented as it arrived.
    visited = bytearray(len(weights))
    edges: list = []
    append = edges.append
    for row in adjacency.values():
        for slot in row.values():
            if not visited[slot]:
                visited[slot] = 1
                append((su[slot], sv[slot], slot))
    return adjacency, edges, p


class PostStreamEstimator:
    """Retrospective triangle/wedge/clustering estimation (Algorithm 2)
    over any reservoir :func:`sampled_edges` reads."""

    __slots__ = ("_sampler",)

    def __init__(self, sampler: Any) -> None:
        self._sampler = sampler

    @property
    def sampler(self) -> Any:
        return self._sampler

    def estimate(self) -> GraphEstimates:
        """Run Algorithm 2 against the sampler's current state."""
        sampler = self._sampler
        adjacency, edges, p = sampled_edges(sampler)
        inverse = (
            {key: 1.0 / q for key, q in p.items()} if isinstance(p, dict)
            else [1.0 / q for q in p]
        )
        return GraphEstimates.from_raw(
            **algorithm2(adjacency, inverse, edges),
            stream_position=sampler.stream_position,
            sample_size=sampler.sample_size,
            threshold=sampler.threshold,
        )


__all__ = ["PostStreamEstimator", "algorithm2", "sampled_edges"]
