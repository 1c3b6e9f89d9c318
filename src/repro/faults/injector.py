"""Runtime state of a :class:`~repro.faults.spec.FaultPlan`.

A :class:`FaultInjector` walks one plan through a run: every hook
(resilient pool, serve source, sweep cache) asks it "does a fault fire
here?", and the injector burns down each fault's ``times`` budget and
records what fired.  Decisions are pure functions of (plan, call
sequence) — no clocks, no OS entropy — so a chaos run replays exactly.

Pool faults are decided in the *parent* process and shipped to the
worker inside the task payload (the worker merely obeys ``"crash"`` /
``"raise"``).  That keeps the burn-down state in one place: a crashed
worker cannot lose it, so the retry of task *k* deterministically
succeeds once the fault's budget is spent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.faults.spec import TASK_KINDS, FaultPlan, FaultSpec


class FaultInjected(RuntimeError):
    """Raised by an injected ``raise-task`` fault."""


@dataclass(frozen=True)
class FiredFault:
    """One fault occurrence, recorded on :attr:`FaultInjector.fired`."""

    kind: str
    site: str
    index: int
    attempt: int


class FaultInjector:
    """Mutable burn-down state of one :class:`FaultPlan`."""

    __slots__ = ("_plan", "_remaining", "fired")

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._remaining = [fault.times for fault in plan.faults]
        #: Every fault occurrence, in firing order.
        self.fired: List[FiredFault] = []

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def _armed(
        self, kinds: Tuple[str, ...], site: str
    ) -> Iterator[Tuple[int, FaultSpec]]:
        for slot, fault in enumerate(self._plan.faults):
            if (
                fault.kind in kinds
                and fault.site in ("", site)
                and self._remaining[slot] > 0
            ):
                yield slot, fault

    def _fire(self, slot: int, fault: FaultSpec, site: str,
              index: int, attempt: int) -> None:
        self._remaining[slot] -= 1
        self.fired.append(FiredFault(fault.kind, site, index, attempt))

    # ------------------------------------------------------------------
    # Pool hooks (parent-side decisions)
    # ------------------------------------------------------------------
    def task_fault(
        self, site: str, index: int, attempt: int = 0
    ) -> Optional[str]:
        """Instruction for pool task ``index`` on this ``attempt``.

        Returns ``"crash"`` (worker must die mid-task), ``"raise"``
        (worker must raise :class:`FaultInjected`), or ``None``.
        """
        for slot, fault in self._armed(TASK_KINDS, site):
            if fault.at == index:
                self._fire(slot, fault, site, index, attempt)
                return "crash" if fault.kind == "crash-worker" else "raise"
        return None

    # ------------------------------------------------------------------
    # Source hooks
    # ------------------------------------------------------------------
    def source_fault(self, site: str, index: int) -> Optional[str]:
        """Disconnect decision before delivering block ``index``.

        Fires at the first armed block with ``index >= at`` — a
        restarted stream counts blocks from zero again, and the spent
        ``times`` budget keeps a replay from re-triggering forever.
        """
        for slot, fault in self._armed(("disconnect-source",), site):
            if index >= fault.at:
                self._fire(slot, fault, site, index, 0)
                return "disconnect"
        return None

    def stall_polls(self, site: str, index: int) -> int:
        """Stall length (in polls) before delivering block ``index``."""
        for slot, fault in self._armed(("stall-source",), site):
            if index >= fault.at:
                # One stall is one occurrence; `times` is its length.
                self._remaining[slot] = 0
                self.fired.append(
                    FiredFault(fault.kind, site, index, 0)
                )
                return fault.times
        return 0

    # ------------------------------------------------------------------
    # Cache hooks
    # ------------------------------------------------------------------
    def cache_faults(self, site: str) -> List[FaultSpec]:
        """Armed ``corrupt-cache`` faults for ``site`` (burned on read)."""
        out: List[FaultSpec] = []
        for slot, fault in self._armed(("corrupt-cache",), site):
            self._fire(slot, fault, site, fault.at, 0)
            out.append(fault)
        return out


def coerce_injector(
    faults: Any,
) -> Optional[FaultInjector]:
    """Normalize a ``faults=`` argument to an injector (or ``None``).

    Accepts ``None``, a :class:`FaultPlan` (wrapped in a fresh
    injector) or an existing :class:`FaultInjector` (shared, so one
    plan can span several components of a run).
    """
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    raise TypeError(
        f"faults must be a FaultPlan or FaultInjector, got {faults!r}"
    )


def inject_source_faults(
    blocks: Iterable[Any],
    injector: Optional[FaultInjector],
    site: str,
    poll_interval: float = 0.05,
    start_index: int = 0,
) -> Iterator[Any]:
    """Wrap a block iterator with the source-side fault hooks.

    Consults the injector before each block: a stall sleeps for the
    scheduled number of polls, a disconnect raises
    :class:`ConnectionError` (the supervised consumers treat it exactly
    like a dropped feed).  ``start_index`` lets a reconnecting source
    keep its global block numbering.
    """
    if injector is None:
        yield from blocks
        return
    index = start_index
    for block in blocks:
        polls = injector.stall_polls(site, index)
        if polls:
            time.sleep(polls * poll_interval)
        if injector.source_fault(site, index) is not None:
            raise ConnectionError(
                f"injected disconnect at {site} block {index}"
            )
        yield block
        index += 1


__all__ = [
    "FaultInjected",
    "FaultInjector",
    "FiredFault",
    "coerce_injector",
    "inject_source_faults",
]
