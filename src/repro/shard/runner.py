"""``ShardedRunner``: S per-shard engine passes plus the HT merge.

One sharded pass is:

1. **permute** — the stream permutation seeded exactly like every other
   entry point (:meth:`~repro.streams.stream.EdgeStream.permuted`: int32
   columns whenever the labels convert, tuples otherwise, the same
   arrival order either way);
2. **route** — the seeded splitmix64 edge hash
   (:mod:`repro.shard.router`) assigns every canonical edge to one of
   ``S`` shards; boolean-mask selection over the columns keeps each
   substream in arrival order, whatever the drive.  Only a population
   with labels outside int32 takes the per-edge
   :func:`~repro.shard.router.split_stream`;
3. **drive** — each shard's substream runs through its own
   :class:`~repro.engine.stream_engine.StreamEngine` over a GPS sampler
   with budget ``m/S`` and its own seed (``sampler_seed·S + s``, so
   replications never collide with shard offsets), chunked or scalar
   as :func:`repro.api.execution.chunk_size_for` decides for the pass;
4. **merge** — per-shard reservoirs are read off their slots as
   ``(u, v, p)`` records at the owner shard's final threshold, in the
   sampler's record order, and fed to
   :func:`repro.stats.merge.merge_estimates`, which runs the one
   Algorithm-2 loop over their union; the result assembles into an
   ordinary :class:`~repro.core.estimates.GraphEstimates` bundle.

A pass is one unit of work: the S shards are driven one after another
in the calling process.  Parallelism lives one level up — the replicated
runs and sweep grids that contain sharded passes fan them out through
:func:`repro.api.execution.execute`, one task per pass.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.compact import DEFAULT_CORE, validate_core
from repro.core.estimates import GraphEstimates
from repro.core.post_stream import sampled_edges
from repro.core.weights import WeightFunction
from repro.engine.stream_engine import StreamEngine
from repro.shard.router import shard_columns, split_stream
from repro.shard.spec import ShardSpec
from repro.stats.merge import ShardRecord, merge_estimates
from repro.streams.stream import EdgeStream

#: Methods whose counters expose a GPS reservoir the HT merge can read.
#: The merged path is post-stream only — in-stream (Algorithm 3)
#: snapshots are blind to subgraphs spanning shards and cannot be
#: merged unbiasedly — so only the retrospective GPS entry qualifies.
SHARDABLE_METHODS = ("gps-post",)


def _get_method(name: str):
    """Lazy registry lookup: repro.api imports this package at load time."""
    from repro.api.registry import get_method

    return get_method(name)


def validate_shardable_method(name: str) -> str:
    """Reject methods the HT merge cannot read; returns ``name``."""
    if name not in SHARDABLE_METHODS:
        raise ValueError(
            f"method {name!r} cannot run sharded: the Horvitz-Thompson "
            f"merge reads per-shard GPS reservoirs post-stream, so only "
            f"{SHARDABLE_METHODS} qualify (in-stream snapshots miss "
            f"cross-shard subgraphs and cannot be merged unbiasedly)"
        )
    return name


@dataclass(frozen=True)
class ShardedResult:
    """Outcome of one sharded pass (the merge plus per-shard telemetry)."""

    estimates: GraphEstimates
    edges: int
    shards: int
    elapsed_seconds: float
    pipeline: str  # "chunked" | "scalar" — the per-shard drive used
    shard_edges: Tuple[int, ...]
    shard_sample_sizes: Tuple[int, ...]
    shard_thresholds: Tuple[float, ...]


def _extract_sample(counter: Any) -> Tuple[List[ShardRecord], int, float]:
    """A shard's reservoir as ``(u, v, p)`` records at its threshold,
    read off its slots in record order."""
    sampler = getattr(counter, "sampler", counter)
    _, edges, p = sampled_edges(sampler)
    records = [(u, v, p[key]) for u, v, key in edges]
    return records, sampler.sample_size, sampler.threshold


def _int_labelled(population: EdgeStream) -> bool:
    """Whether every label is an int; free once columns are at hand."""
    return population.columnar() is not None or all(
        isinstance(u, int) and isinstance(v, int) for u, v in population
    )


class ShardedRunner:
    """Partition a stream across ``S`` GPS samplers and merge the HT sums.

    Parameters
    ----------
    edges:
        The edge population in canonical (pre-shuffle) order, exactly as
        ``run(spec)`` resolves it: an
        :class:`~repro.streams.stream.EdgeStream` (shared, never copied)
        or any sequence of ``(u, v)`` pairs.  Every label must be an
        int — the router mixes 64-bit integers — and a ``ValueError``
        says so otherwise.
    shards:
        Number of samplers; must divide ``budget`` evenly.
    budget:
        The *total* memory budget ``m``; each shard gets ``m / shards``.
    method:
        Registered method name; must expose a GPS reservoir
        (:data:`SHARDABLE_METHODS`).
    weight_fn:
        Shared weight-function instance (``None`` = method default).
    stream_seed / sampler_seed:
        The usual seeds; shard ``s`` seeds its sampler with
        ``sampler_seed * shards + s`` so replications (which bump
        ``sampler_seed`` by one) never collide with shard offsets.
    router_seed:
        Seed of the edge-hash partition.

    A pass drives the shards one after another in the calling process;
    replicated runs and sweeps parallelise across passes instead.

    Example
    -------
    >>> runner = ShardedRunner([(0, 1), (1, 2), (0, 2), (2, 3)],
    ...                        shards=2, budget=4)
    >>> result = runner.run()
    >>> result.shards, result.edges
    (2, 4)
    """

    def __init__(
        self,
        edges: Sequence[Tuple[Any, Any]],
        *,
        shards: int,
        budget: int,
        method: str = "gps-post",
        weight_fn: Optional[WeightFunction] = None,
        stream_seed: Optional[int] = 0,
        sampler_seed: int = 1,
        router_seed: int = 0,
        core: str = DEFAULT_CORE,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if budget < shards or budget % shards != 0:
            raise ValueError(
                f"budget ({budget}) must divide evenly across the "
                f"{shards} shards so every sampler gets the same capacity"
            )
        validate_shardable_method(method)
        validate_core(core)
        self._population = (
            edges if isinstance(edges, EdgeStream) else EdgeStream(edges)
        )
        if not _int_labelled(self._population):
            raise ValueError(
                "sharded execution requires integer node labels (the "
                "edge-hash router mixes 64-bit integers); intern the "
                "stream first"
            )
        self._shards = shards
        self._budget = budget
        self._method = method
        self._weight_fn = weight_fn
        self._stream_seed = stream_seed
        self._sampler_seed = sampler_seed
        self._router_seed = router_seed
        self._core = core

    # ------------------------------------------------------------------
    @classmethod
    def from_layout(
        cls,
        edges: Sequence[Tuple[Any, Any]],
        layout: "ShardSpec",
        **kwargs: Any,
    ) -> "ShardedRunner":
        """Build a runner from a declarative :class:`ShardSpec` layout."""
        return cls(
            edges,
            shards=layout.shards,
            router_seed=layout.router_seed,
            **kwargs,
        )

    @property
    def layout(self) -> "ShardSpec":
        """The runner's shard layout as a declarative value object."""
        return ShardSpec(shards=self._shards, router_seed=self._router_seed)

    # ------------------------------------------------------------------
    def run(
        self,
        stream_seed: Optional[int] = None,
        sampler_seed: Optional[int] = None,
    ) -> ShardedResult:
        """One sharded pass; seed overrides support replication loops."""
        stream_seed = (
            self._stream_seed if stream_seed is None else stream_seed
        )
        sampler_seed = (
            self._sampler_seed if sampler_seed is None else sampler_seed
        )
        # Wall time feeds only the throughput report, never an estimate.
        started = time.perf_counter()  # repro-lint: disable=nondet-ban
        method = _get_method(self._method)
        # Shardable methods are length-free GPS samplers, so every
        # shard's counter exists before routing and shard 0's settles
        # the drive of the whole pass.
        counters = [
            method.make(
                self._budget // self._shards, 0,
                sampler_seed * self._shards + s,
                weight_fn=self._weight_fn, core=self._core,
            )
            for s in range(self._shards)
        ]
        from repro.api import execution  # lazy, like _get_method

        chunk_size = execution.chunk_size_for(
            method, self._weight_fn, counters[0], self._population
        )
        # Every permutation of an int32 population holds its columns,
        # whatever the drive, so it routes with shard_columns and each
        # substream stays column-backed (a scalar shard drive reads it
        # block by block).  Only labels outside int32 route per edge.
        stream = self._population.permuted(stream_seed)
        columns = stream.columnar()
        if columns is not None:
            us, vs = columns
            ids = shard_columns(us, vs, self._shards, self._router_seed)
            substreams = [
                EdgeStream.from_columns(us[ids == s], vs[ids == s])
                for s in range(self._shards)
            ]
        else:
            substreams = split_stream(stream, self._shards, self._router_seed)
        samples: List[List[ShardRecord]] = []
        sizes: List[int] = []
        thresholds: List[float] = []
        shard_edges: List[int] = []
        for counter, substream in zip(counters, substreams):
            engine = StreamEngine(counter, chunk_size=chunk_size)
            shard_edges.append(engine.run(substream).edges)
            records, size, threshold = _extract_sample(counter)
            samples.append(records)
            sizes.append(size)
            thresholds.append(threshold)
        estimates = GraphEstimates.from_raw(
            **asdict(merge_estimates(samples)),
            stream_position=len(self._population),
            threshold=max(thresholds) if thresholds else 0.0,
        )
        return ShardedResult(
            estimates=estimates,
            edges=len(self._population),
            shards=self._shards,
            elapsed_seconds=time.perf_counter()  # repro-lint: disable=nondet-ban
            - started,
            pipeline="chunked" if chunk_size else "scalar",
            shard_edges=tuple(shard_edges),
            shard_sample_sizes=tuple(sizes),
            shard_thresholds=tuple(thresholds),
        )


__all__ = [
    "SHARDABLE_METHODS",
    "ShardedResult",
    "ShardedRunner",
    "validate_shardable_method",
]
