"""Seeded, deterministic fault injection — and the tolerance it proves.

This package is the failure half of the reproduction's determinism
story.  Tasks are pure functions of their seeds, so a retried task
returns the same bits as an unfaulted one; a :class:`FaultPlan`
schedules worker crashes, task exceptions, source disconnects, stalls
and cache corruption deterministically, and the chaos acceptance suite
(``pytest -m chaos``) asserts the resulting estimates are bit-identical
to the fault-free oracle.  See ``docs/robustness.md``.
"""

from repro.faults.backoff import backoff_delay
from repro.faults.corruption import corrupt_entry
from repro.faults.injector import (
    FaultInjected,
    FaultInjector,
    FiredFault,
    coerce_injector,
    inject_source_faults,
)
from repro.faults.spec import (
    CORRUPTION_MODES,
    FAULT_KINDS,
    SOURCE_KINDS,
    TASK_KINDS,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "CORRUPTION_MODES",
    "FAULT_KINDS",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "SOURCE_KINDS",
    "TASK_KINDS",
    "backoff_delay",
    "coerce_injector",
    "corrupt_entry",
    "inject_source_faults",
]
