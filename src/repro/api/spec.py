"""Declarative experiment specifications: experiments are data, not code.

A :class:`RunSpec` freezes everything that determines one experiment of
the paper's protocol (Sec. 6) — stream source, seeded permutation,
budget-matched method, weight family, checkpoint schedule and
replication fan-out — into a hashable value object with a lossless JSON
round trip.  Specs can therefore be stored in files, shipped to workers,
diffed between runs, and replayed bit-identically; ``run(spec)`` in
:mod:`repro.api.execution` is the single interpreter.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional

from repro.core.compact import CORES, DEFAULT_CORE


def require_int(name: str, value: Any) -> None:
    """Reject a non-integer (or bool) value of an integer spec field.

    Checked at construction, because a spec field is used far from
    where it was written: a quoted seed would silently stream another
    permutation, and a float budget would fail deep inside a sampler.

    >>> require_int("budget", 50.5)
    Traceback (most recent call last):
    ...
    ValueError: budget must be an integer, got 50.5
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RunSpec:
    """One declarative experiment.

    Attributes
    ----------
    source:
        Where the edges come from: a dataset-registry name
        (:mod:`repro.experiments.datasets`) or an edge-list file path.
        Callers holding an in-memory graph pass it to ``run(spec, graph=…)``
        and the field becomes provenance metadata.
    method:
        Registered method name (see ``python -m repro methods``).
    budget:
        The paper's common memory budget; each method's registration
        interprets it (reservoir capacity, probability, instances …).
    weight:
        Registered weight name for weight-aware (GPS) methods, or ``None``
        for the method's default.  Ignored by weight-free baselines.
    stream_seed:
        Seed of the stream permutation (paper: streams are seeded random
        permutations of the edge population).  ``None`` streams the source
        in its given order — file order for edge lists.
    sampler_seed:
        Seed of the method's own randomness.
    checkpoints:
        Number of evenly spaced tracking marks; ``0`` disables tracking.
    replications:
        Independent ``(stream_seed + i, sampler_seed + i)`` repetitions;
        values > 1 run the error-bar protocol, one single-pass task per
        replication.
    workers:
        Process-pool size of a replicated run (``replications > 1``):
        ``0`` runs the replications inline, ``None`` auto-sizes.  It
        sizes nothing else — a single pass, sharded or not, always runs
        in the calling process.
    core:
        GPS reservoir implementation for core-aware methods:
        ``"compact"`` (default, slot-based struct-of-arrays) or
        ``"object"`` (the boxed reference core).  The two produce
        bit-identical results under shared seeds; methods that predate
        the flag ignore it.
    shards:
        Number of independent samplers the stream is partitioned across
        by the seeded edge-hash router (:mod:`repro.shard`).  ``1``
        (default) is today's single-sampler path, bit-identical to every
        prior release; values > 1 give each shard budget
        ``budget/shards`` (the budget must divide evenly) and merge the
        per-shard reservoirs through the union Horvitz–Thompson pass
        (:mod:`repro.stats.merge`).  Sharded estimation is post-stream
        only, so it excludes checkpoints.
    """

    source: str
    method: str = "gps"
    budget: int = 1000
    weight: Optional[str] = None
    stream_seed: Optional[int] = 0
    sampler_seed: int = 1
    checkpoints: int = 0
    replications: int = 1
    workers: Optional[int] = None
    core: str = DEFAULT_CORE
    shards: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.source, str) or not self.source:
            raise ValueError("source must be a non-empty string")
        for name in ("budget", "sampler_seed", "checkpoints", "replications"):
            require_int(name, getattr(self, name))
        if self.stream_seed is not None:
            require_int("stream_seed", self.stream_seed)
        if self.core not in CORES:
            raise ValueError(
                f"core must be one of {CORES}, got {self.core!r}"
            )
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.checkpoints < 0:
            raise ValueError("checkpoints must be >= 0")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.workers is not None and self.workers < 0:
            raise ValueError("workers must be >= 0 (0 runs inline)")
        if self.replications > 1 and self.stream_seed is None:
            raise ValueError(
                "replicated runs need a base stream_seed (replication i "
                "streams the permutation seeded stream_seed + i)"
            )
        if self.replications > 1 and self.checkpoints > 0:
            raise ValueError(
                "checkpoints and replications are mutually exclusive: the "
                "replicated pass aggregates final estimates only and would "
                "silently drop the tracking schedule"
            )
        if not isinstance(self.shards, int) or self.shards < 1:
            # An int also keeps `budget % shards` below from overflowing
            # a float when a JSON spec carries a huge budget.
            raise ValueError("shards must be an integer >= 1")
        if self.shards > 1:
            if self.budget % self.shards != 0:
                raise ValueError(
                    f"budget ({self.budget}) must divide evenly across "
                    f"the {self.shards} shards so every sampler gets the "
                    f"same capacity"
                )
            if self.checkpoints > 0:
                raise ValueError(
                    "checkpoints and sharded execution are mutually "
                    "exclusive: the Horvitz-Thompson merge is a "
                    "post-stream pass and would silently drop the "
                    "tracking schedule"
                )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe; inverse of :meth:`from_dict`).

        Example
        -------
        >>> RunSpec(source="graph.txt").to_dict()["method"]
        'gps'
        """
        return asdict(self)

    def to_json(self, **kwargs: Any) -> str:
        """JSON text form; :meth:`from_json` inverts it losslessly.

        Example
        -------
        >>> spec = RunSpec(source="graph.txt", budget=500)
        >>> RunSpec.from_json(spec.to_json()) == spec
        True
        """
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output; unknown keys raise."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown RunSpec fields: {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy with ``changes`` applied (re-runs validation).

        Example
        -------
        >>> RunSpec(source="graph.txt").replace(budget=4000).budget
        4000
        """
        return dataclasses.replace(self, **changes)


__all__ = ["RunSpec", "require_int"]
