"""Reference Algorithm 2 on edge records: the kernel's oracle.

The loop :class:`~repro.core.post_stream.PostStreamEstimator` ran before
:func:`~repro.core.post_stream.algorithm2` read slot arrays: the
reservoir is materialised as one :class:`~repro.core.records.EdgeRecord`
per sampled edge (:func:`~repro.core.reservoir.snapshot_view`, which is
``CompactSample.materialize`` on the compact core), and each neighbour
visit asks its record for ``inclusion_probability``.  Kept here as the
oracle the kernel must equal bit for bit, beside the shard extraction
and the union pass it replaced in :mod:`repro.shard.runner` and
:mod:`repro.stats.merge`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.estimates import GraphEstimates
from repro.core.records import EdgeRecord
from repro.core.reservoir import SampledGraph, snapshot_view

Sums = Tuple[float, float, float, float, float]


def oracle_sums(
    sample, threshold: float, records: Optional[Iterable[EdgeRecord]] = None
) -> Sums:
    """Algorithm 2 over ``sample``'s records (in ``records`` order when
    given): triangles, their variance, wedges, their variance and the
    triangle–wedge covariance."""
    triangle_sum = 0.0
    triangle_var = 0.0
    triangle_cov = 0.0
    wedge_sum = 0.0
    wedge_var = 0.0
    wedge_cov = 0.0
    cross_cov = 0.0

    for record in sample.records() if records is None else records:
        inv_q = 1.0 / record.inclusion_probability(threshold)
        v1, v2 = record.u, record.v
        if sample.degree(v1) > sample.degree(v2):
            v1, v2 = v2, v1

        tri_cum = 0.0
        wedge_cum = 0.0
        tri_pair = 0.0
        wedge_pair = 0.0
        tri_local = 0.0
        tri_var_local = 0.0
        wedge_local = 0.0
        wedge_var_local = 0.0
        contained_sub = 0.0
        contained_cov = 0.0

        neighbors_v2 = sample.neighbors(v2)
        for v3, rec1 in sample.neighbors(v1).items():
            if v3 == v2:
                continue
            inv1 = 1.0 / rec1.inclusion_probability(threshold)
            rec2 = neighbors_v2.get(v3)
            if rec2 is not None:
                inv2 = 1.0 / rec2.inclusion_probability(threshold)
                pair_prod = inv1 * inv2
                estimate = inv_q * pair_prod
                tri_local += estimate
                tri_var_local += estimate * (estimate - 1.0)
                tri_pair += tri_cum * pair_prod
                tri_cum += pair_prod
                contained_sub += pair_prod * (inv1 + inv2)
                contained_cov += estimate * (pair_prod - 1.0)
            wedge_estimate = inv_q * inv1
            wedge_local += wedge_estimate
            wedge_var_local += wedge_estimate * (wedge_estimate - 1.0)
            wedge_pair += wedge_cum * inv1
            wedge_cum += inv1

        for v3, rec2 in neighbors_v2.items():
            if v3 == v1:
                continue
            inv2 = 1.0 / rec2.inclusion_probability(threshold)
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
        cross_cov += shared_factor * (tri_cum * wedge_cum - contained_sub)
        cross_cov += contained_cov

    return (
        triangle_sum / 3.0,
        triangle_var / 3.0 + triangle_cov,
        wedge_sum / 2.0,
        wedge_var / 2.0 + wedge_cov,
        cross_cov,
    )


def oracle_estimate(sampler) -> GraphEstimates:
    """The bundle ``PostStreamEstimator(sampler).estimate()`` returned
    when it ran on records."""
    threshold = sampler.threshold
    triangles, triangle_var, wedges, wedge_var, covariance = oracle_sums(
        snapshot_view(sampler.sample), threshold
    )
    return GraphEstimates.from_raw(
        triangle_count=triangles,
        triangle_variance=triangle_var,
        wedge_count=wedges,
        wedge_variance=wedge_var,
        tri_wedge_covariance=covariance,
        stream_position=sampler.stream_position,
        sample_size=sampler.sample_size,
        threshold=threshold,
    )


def oracle_shard_records(counter) -> List[Tuple[object, object, float]]:
    """A shard's ``(u, v, p)`` records, read off materialised records."""
    sampler = getattr(counter, "sampler", counter)
    threshold = sampler.threshold
    return [
        (record.u, record.v, record.inclusion_probability(threshold))
        for record in snapshot_view(sampler.sample).records()
    ]


def oracle_merge(
    shard_samples: Sequence[Sequence[Tuple[object, object, float]]],
) -> Tuple[Sums, int]:
    """The union pass on records, in the given record order.

    Each ``(u, v, p)`` becomes a record of weight ``p`` read at
    threshold 1, whose ``inclusion_probability`` is then ``p`` itself.
    """
    graph = SampledGraph()
    records = []
    for shard in shard_samples:
        for u, v, p in shard:
            record = EdgeRecord(u, v, weight=p, priority=0.0)
            graph.add(record)
            records.append(record)
    return oracle_sums(graph, 1.0, records), len(records)
