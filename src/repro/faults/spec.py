"""Declarative fault plans: injected failures are data, not monkeypatches.

A :class:`FaultPlan` freezes a deterministic schedule of failures —
crash the worker running task *k*, raise on task *k*, disconnect a
source after *m* blocks, stall a source for *t* polls, corrupt a cache
entry — into a hashable value object with a lossless JSON round trip,
exactly like :class:`repro.api.RunSpec` freezes an experiment.  The
same plan over the same seeds reproduces the same failure sequence, so
a chaos test is as replayable as the estimate it perturbs.

Faults enter through *explicit hooks* (the resilient pool layer, the
serve sources, the sweep cache), never through monkeypatching: the
production code paths exercised under fault injection are byte-for-byte
the paths that run in production.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Tuple

#: The fault taxonomy (docs/robustness.md documents each class).
FAULT_KINDS = (
    "crash-worker",
    "raise-task",
    "disconnect-source",
    "stall-source",
    "corrupt-cache",
)

#: Cache-entry corruption modes (``corrupt-cache`` only).
CORRUPTION_MODES = ("truncate", "garbage")

#: Kinds addressed by task index through the resilient pool layer.
TASK_KINDS = ("crash-worker", "raise-task")

#: Kinds addressed by block index through a serve source.
SOURCE_KINDS = ("disconnect-source", "stall-source")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled failure.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    site:
        Injection-site label (``"replication"``, ``"sweep"``,
        ``"serve-source"``, ...); ``""`` matches every site that
        consults the plan.
    at:
        Zero-based trigger index: the pool task index for task kinds,
        the delivered-block index for source kinds (the fault fires at
        the first block whose index is ``>= at``, so a resumed stream
        re-triggers only while ``times`` lasts).  For
        ``corrupt-cache`` it picks the entry of the sorted cell listing
        to corrupt (modulo the entry count).
    times:
        How many times the fault fires before burning out.  For
        ``stall-source`` this is instead the stall length in polls (a
        stall is one fault occurrence).
    mode:
        Corruption mode for ``corrupt-cache`` (one of
        :data:`CORRUPTION_MODES`); ignored by other kinds.
    """

    kind: str
    site: str = ""
    at: int = 0
    times: int = 1
    mode: str = "truncate"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"known kinds: {list(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.times <= 0:
            raise ValueError("times must be positive")
        if self.mode not in CORRUPTION_MODES:
            raise ValueError(
                f"unknown corruption mode {self.mode!r}; "
                f"known modes: {list(CORRUPTION_MODES)}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        known = {f.name for f in fields(cls)}
        unknown = [key for key in data if key not in known]
        if unknown:
            raise ValueError(
                f"unknown FaultSpec fields: {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of :class:`FaultSpec` failures.

    Attributes
    ----------
    faults:
        The scheduled failures, consulted in order at every hook.
    seed:
        Seed of any randomness a fault needs (e.g. the ``"garbage"``
        corruption byte stream); the plan itself is fully deterministic.
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Tolerate lists/iterables from callers and from_dict.
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise ValueError(
                    f"faults entries must be FaultSpec, got {fault!r}"
                )

    # ------------------------------------------------------------------
    # Serialization (lossless JSON round trip, like RunSpec)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "faults": [fault.to_dict() for fault in self.faults],
            "seed": self.seed,
        }

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = [key for key in data if key not in known]
        if unknown:
            raise ValueError(
                f"unknown FaultPlan fields: {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        payload = dict(data)
        faults = payload.pop("faults", ())
        return cls(
            faults=tuple(
                fault
                if isinstance(fault, FaultSpec)
                else FaultSpec.from_dict(fault)
                for fault in faults
            ),
            **payload,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "FaultPlan":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)


__all__ = [
    "CORRUPTION_MODES",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "SOURCE_KINDS",
    "TASK_KINDS",
]
