"""Declarative serving specifications: services are data, not code.

A :class:`ServeSpec` freezes everything that determines one live
sampling service — edge source, method/budget/weight from the
:mod:`repro.api` registry, seeds, ingestion chunking, queue bound and
snapshot cadence — into a hashable value object with a lossless JSON
round trip, exactly like :class:`repro.api.RunSpec` does for batch
experiments.  A spec can therefore be stored next to a deployment,
diffed between service generations, and replayed: the same spec over
the same finite source produces bit-identical final estimates to a
batch ``run()`` over that stream.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional

from repro.api.spec import require_int
from repro.streams.chunks import DEFAULT_CHUNK_SIZE

#: Reserved source name for the seeded synthetic edge generator (the
#: steady-state uniform stream of the sustained-load benchmark).
SYNTHETIC_SOURCE = "synthetic"

#: URL scheme prefix selecting the socket line-protocol source.
TCP_PREFIX = "tcp://"


@dataclass(frozen=True)
class ServeSpec:
    """One declarative live sampling service.

    Attributes
    ----------
    source:
        Where edges come from: a dataset-registry name or edge-list
        file path (finite, optionally ``follow``-tailed), the reserved
        name ``"synthetic"`` (seeded uniform generator over ``nodes``
        labels), or ``"tcp://host:port"`` (line-protocol socket).
    method:
        Registered method name.  The service needs the compact-core
        snapshot surface, so the GPS family applies: ``"gps"`` /
        ``"gps-in-stream"`` answer global estimates in O(1) from the
        fused in-stream state; ``"gps-post"`` keeps ingestion on the
        vectorised admission gate and answers retrospectively from the
        published snapshot.
    budget:
        Reservoir capacity (the paper's memory budget).
    weight:
        Registered weight name, or ``None`` for the method default.
    stream_seed:
        Seeded arrival permutation for finite resolved sources
        (``None`` streams file/dataset order); seeds the generator for
        ``"synthetic"``.  Ignored by socket sources (arrival order is
        the wire order).
    sampler_seed:
        Seed of the sampler's admission randomness.
    chunk_size:
        Columnar ingestion block size (edges per chunk).
    queue_chunks:
        Bound of the ingestion queue, in blocks.  When the drive falls
        behind, the pump thread blocks here — backpressure — and the
        stall is counted on :class:`~repro.serve.service.SamplingService`.
    snapshot_every:
        Publish a fresh immutable snapshot every N ingested blocks.
        ``1`` (default) publishes at every chunk boundary; larger
        values trade query freshness for a little ingestion headroom.
    max_edges:
        Stop ingesting after this many edges (``None`` = unbounded /
        source length).  The synthetic source is unbounded without it.
    nodes:
        Node-label population of the synthetic generator.
    follow:
        Tail a file source: after the current end-of-file, poll for
        appended edges instead of draining (``tail -f`` semantics).
    poll_interval:
        Seconds between polls while following a file and while
        draining queues on shutdown.
    source_retries:
        Supervised restarts per failure burst: a socket source
        reconnects up to this many consecutive times, and a pump-thread
        ingestion error restarts the stream from the recorded position
        up to this many consecutive times, before the service degrades
        to a surfaced error.  Any delivered progress resets the burst
        counter.  ``0`` (default) keeps the old fail-fast behaviour.
    retry_backoff:
        Base delay (seconds) of the capped exponential backoff between
        retries; jitter is drawn from a seeded RNG, never OS entropy.
    retry_backoff_cap:
        Ceiling (seconds) of the backoff growth.
    """

    source: str
    method: str = "gps"
    budget: int = 1000
    weight: Optional[str] = None
    stream_seed: Optional[int] = 0
    sampler_seed: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    queue_chunks: int = 8
    snapshot_every: int = 1
    max_edges: Optional[int] = None
    nodes: int = 10_000
    follow: bool = False
    poll_interval: float = 0.05
    source_retries: int = 0
    retry_backoff: float = 0.05
    retry_backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.source, str) or not self.source:
            raise ValueError("source must be a non-empty string")
        for name in ("budget", "sampler_seed"):
            require_int(name, getattr(self, name))
        if self.stream_seed is not None:
            require_int("stream_seed", self.stream_seed)
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.queue_chunks <= 0:
            raise ValueError("queue_chunks must be positive")
        if self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive")
        if self.max_edges is not None and self.max_edges <= 0:
            raise ValueError("max_edges must be positive (or None)")
        if self.nodes < 2:
            raise ValueError("nodes must be at least 2")
        if self.poll_interval <= 0.0:
            raise ValueError("poll_interval must be positive")
        if self.source_retries < 0:
            raise ValueError("source_retries must be non-negative")
        if self.retry_backoff <= 0.0:
            raise ValueError("retry_backoff must be positive")
        if self.retry_backoff_cap < self.retry_backoff:
            raise ValueError(
                "retry_backoff_cap must be >= retry_backoff"
            )
        if self.follow and (
            self.source == SYNTHETIC_SOURCE
            or self.source.startswith(TCP_PREFIX)
        ):
            raise ValueError(
                "follow applies to file sources only (synthetic and "
                "tcp:// sources are already live)"
            )

    # ------------------------------------------------------------------
    # Serialization (lossless JSON round trip, like RunSpec)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServeSpec":
        known = {f.name for f in fields(cls)}
        unknown = [key for key in data if key not in known]
        if unknown:
            raise ValueError(
                f"unknown ServeSpec fields: {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ServeSpec":
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "ServeSpec":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)


__all__ = ["ServeSpec", "SYNTHETIC_SOURCE", "TCP_PREFIX"]
