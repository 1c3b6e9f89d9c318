"""Horvitz–Thompson merge across shards (sharded GPS, ROADMAP 2a).

A stream partitioned by edge hash across ``S`` independent GPS samplers
yields ``S`` reservoirs over *disjoint* substreams.  Because every
subgraph estimator in the paper is an edge product ``Ŝ_J = Π 1/p(e)``
(Theorem 2) and the per-edge inclusion indicators are independent
across shards (each shard runs its own sampler over its own edges),
the union of the reservoirs — with each edge's inclusion probability
``p(e) = min(1, w(e)/z*_s)`` taken at its *owner shard's* final
threshold — supports the very same Algorithm-2 pass, and the resulting
estimates stay unbiased for every fixed router seed:

* within a shard, unbiasedness is the GPS martingale argument
  (Theorem 2 of the paper);
* across shards, the factors of an edge product multiply expectations
  because the shards' samplers are independent;
* the variance estimator ``Ŝ_J(Ŝ_J − 1)`` and the covariance identity
  ``Ŝ_{J1}·Ŝ_{J2} = Ŝ_{J1∪J2}·Ŝ_{J1∩J2}`` (Theorem 3) are *algebraic*
  facts about edge products, so they survive per-edge probabilities
  unchanged.

:func:`merge_estimates` runs that union pass on plain per-shard
``(u, v, p)`` records — no dependency on the reservoir cores, so the
inputs can come from another process or another machine.
:func:`merge_reports` pools replicated per-shard metric moments
(count, mean, variance) into study-level summaries with pooled
variance and normal CIs.

Note the merged path is post-stream only: an *in-stream* (Algorithm 3)
estimate snapshots each shard at its own arrival times, and subgraphs
spanning shards are invisible to every such snapshot, so shard-local
in-stream estimates cannot be merged unbiasedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Sequence, Tuple

from repro.stats.confidence import confidence_interval
from repro.stats.variance import pooled_mean, pooled_variance

#: One sampled edge as a shard reports it: endpoints plus the inclusion
#: probability at the owner shard's final threshold.
ShardRecord = Tuple[Hashable, Hashable, float]


@dataclass(frozen=True)
class MergedEstimates:
    """Raw Algorithm-2 accumulators of the union pass.

    Plain data (no CI machinery) so the stats layer stays free of the
    estimation layer; callers assemble their own estimate bundles —
    e.g. :meth:`repro.core.estimates.GraphEstimates.from_raw`.
    """

    triangle_count: float
    triangle_variance: float
    wedge_count: float
    wedge_variance: float
    tri_wedge_covariance: float
    sample_size: int


def merge_estimates(
    shard_samples: Sequence[Sequence[ShardRecord]],
) -> MergedEstimates:
    """Algorithm 2 over the union of per-shard reservoirs.

    ``shard_samples[s]`` holds shard ``s``'s sampled edges as
    ``(u, v, p)`` with ``p`` the edge's inclusion probability at that
    shard's final threshold.  The shards must partition the edge set —
    an edge reported by two shards means the router was not applied and
    raises, as do a self loop and ``p`` outside ``(0, 1]``.  The union
    runs through the one Algorithm-2 loop,
    :func:`repro.core.post_stream.algorithm2`, in the given record order
    (insertion-ordered dicts), so the merge is deterministic for
    deterministic inputs.

    With a single shard this reproduces the single-sampler post-stream
    estimate up to float summation order: the union rebuilds each
    adjacency row in record order, where the sampler's rows keep their
    insertion order.
    """
    # Lazy: repro.core imports this package while it loads.
    from repro.core.post_stream import algorithm2

    adjacency: Dict[Hashable, Dict[Hashable, int]] = {}
    inverse: List[float] = []
    edges: List[Tuple[Hashable, Hashable, int]] = []
    for shard in shard_samples:
        for u, v, p in shard:
            if not 0.0 < p <= 1.0:
                raise ValueError(
                    f"inclusion probability of edge ({u!r}, {v!r}) must be "
                    f"in (0, 1], got {p!r}"
                )
            neighbors_u = adjacency.setdefault(u, {})
            if v in neighbors_u or u == v:
                raise ValueError(
                    f"edge ({u!r}, {v!r}) appears in more than one shard "
                    f"sample (or is a self-loop); shards must partition "
                    f"the edge set"
                )
            key = len(edges)
            neighbors_u[v] = key
            adjacency.setdefault(v, {})[u] = key
            inverse.append(1.0 / p)
            edges.append((u, v, key))

    return MergedEstimates(
        **algorithm2(adjacency, inverse, edges), sample_size=len(edges)
    )


@dataclass(frozen=True)
class PooledMetric:
    """One metric pooled across replicated shard groups."""

    count: int
    mean: float
    variance: float  # sample variance of the pooled replicate population
    std_error: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def merge_reports(
    shard_reports: Sequence[Mapping[str, Tuple[int, float, float]]],
    level: float = 0.95,
) -> Dict[str, PooledMetric]:
    """Pool per-group replicate moments into study-level summaries.

    Each report maps metric names to ``(count, mean, variance)`` — the
    replicate count, mean estimate and *sample* variance a shard group
    (or worker batch) computed locally.  Groups may carry unequal
    counts; the pooled variance recovers the sample variance of the
    concatenated replicate population exactly
    (:func:`repro.stats.variance.pooled_variance`).

    Example
    -------
    >>> merged = merge_reports([{"triangles": (2, 10.0, 2.0)},
    ...                         {"triangles": (3, 16.0, 1.0)}])
    >>> merged["triangles"].count, merged["triangles"].mean
    (5, 13.6)
    """
    if not shard_reports:
        raise ValueError("merge_reports needs at least one report")
    names = list(shard_reports[0])
    for report in shard_reports[1:]:
        if list(report) != names:
            raise ValueError(
                f"shard reports disagree on metric names: {names} vs "
                f"{list(report)}"
            )
    merged: Dict[str, PooledMetric] = {}
    for name in names:
        counts = [report[name][0] for report in shard_reports]
        means = [report[name][1] for report in shard_reports]
        variances = [report[name][2] for report in shard_reports]
        count = sum(counts)
        mean = pooled_mean(counts, means)
        variance = pooled_variance(counts, means, variances)
        std_error = (variance / count) ** 0.5 if count > 0 else 0.0
        low, high = confidence_interval(mean, std_error**2, level=level)
        merged[name] = PooledMetric(
            count=count,
            mean=mean,
            variance=variance,
            std_error=std_error,
            ci_low=low,
            ci_high=high,
        )
    return merged


__all__ = [
    "MergedEstimates",
    "PooledMetric",
    "ShardRecord",
    "merge_estimates",
    "merge_reports",
]
