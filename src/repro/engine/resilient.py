"""Fault-tolerant process-pool execution shared by every fan-out layer.

:func:`run_resilient` is the one place the codebase touches a
:class:`~concurrent.futures.ProcessPoolExecutor` when it wants to
survive worker death.  It submits tasks individually, catches
``BrokenProcessPool`` (a killed worker poisons the whole executor),
rebuilds the pool — letting the caller re-publish a shared-memory
population whose segment died with the run via ``refresh`` — and
resubmits the unfinished tasks under a bounded budget.  Per-task
exceptions retry the same way without a rebuild.

Retries are *free* correctness-wise: every task in this codebase is a
pure function of its seeds, so the resubmitted task returns bit-for-bit
the result the crashed worker would have produced.  The layer preserves
submission order in its results, which keeps downstream aggregation
(ordered float accumulation) bit-identical too.

Fault injection enters here through an explicit hook: the parent asks
the :class:`~repro.faults.FaultInjector` for an instruction per
``(task, attempt)`` and ships it inside the payload, so the burn-down
state lives where a crashing worker cannot take it along — the retry of
a once-crashed task deterministically succeeds.

Workers never outlive the parent: each one watches its parent's
sentinel from a daemon thread and exits the moment the parent dies,
however it died.  A SIGKILLed sweep therefore leaves no orphaned
workers, and the resource tracker, which outlives them, unlinks any
shared-memory segment the parent had published.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.faults.injector import FaultInjected, FaultInjector

#: Default per-task resubmission budget (beyond the first attempt).
DEFAULT_RETRY_BUDGET = 2

#: Default pool-rebuild budget per run.
DEFAULT_REBUILD_BUDGET = 2

#: Exit code of an injected worker crash (visible in core-dump triage).
_CRASH_EXIT = 13

#: Exit code of a worker that outlived its parent.
_ORPHAN_EXIT = 14


@dataclass
class RetryStats:
    """What fault tolerance cost one fan-out.

    Attributes
    ----------
    task_retries:
        Tasks resubmitted, for any reason — their own exception or
        collateral loss to a pool break.
    pool_rebuilds:
        Times the executor was torn down and rebuilt after
        ``BrokenProcessPool``.
    """

    task_retries: int = 0
    pool_rebuilds: int = 0


def _exit_with_parent() -> None:
    """Block on the parent's sentinel, then exit without cleanup."""
    multiprocessing.parent_process().join()
    os._exit(_ORPHAN_EXIT)


def _worker_init(
    initializer: Optional[Callable[..., None]], *initargs: Any
) -> None:
    """Pool initializer: start the orphan watchdog, then the caller's."""
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    if initializer is not None:
        initializer(*initargs)


def _faulted_entry(payload: Tuple[Optional[str], Callable[[Any], Any], Any]) -> Any:
    """Worker entry: obey the parent's fault instruction, then work."""
    instruction, fn, task = payload
    if instruction == "crash":
        # A real SIGKILL/OOM does not unwind: bypass all cleanup.
        os._exit(_CRASH_EXIT)
    if instruction == "raise":
        raise FaultInjected("injected task fault")
    return fn(task)


def run_resilient(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    workers: int,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    retry_budget: int = DEFAULT_RETRY_BUDGET,
    rebuild_budget: int = DEFAULT_REBUILD_BUDGET,
    injector: Optional[FaultInjector] = None,
    site: str = "",
    refresh: Optional[Callable[[], Optional[Tuple[Any, ...]]]] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> Tuple[List[Any], RetryStats]:
    """Run ``fn`` over ``tasks`` in a pool that survives worker death.

    Parameters
    ----------
    fn:
        Module-level task function (picklable), pure in its task.
    workers:
        Pool size (must be >= 1; inline dispatch is the caller's
        business).
    initializer / initargs:
        Run in every worker of every (re)built executor, after the
        watchdog that ends the worker when the parent dies.
    retry_budget:
        Resubmissions allowed per task beyond its first attempt for
        the task's *own* exception; exhausting it re-raises.
    rebuild_budget:
        Pool rebuilds allowed per run; exhausting it re-raises the
        triggering ``BrokenProcessPool``.
    injector / site:
        Fault-injection hook: consulted per ``(task, attempt)`` in the
        parent, instruction shipped inside the payload.
    refresh:
        Called once per rebuild, before the new executor exists.  May
        return replacement ``initargs`` (e.g. a re-published shared
        segment's descriptor) or ``None`` to keep the current ones.
    on_result:
        Called in the parent as ``on_result(index, result)`` once per
        task, in submission order, as soon as that task and every task
        before it have finished — so a caller can persist results while
        later tasks still run.

    Returns
    -------
    (results, stats):
        ``results`` in submission order, and the :class:`RetryStats`
        the run accumulated.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1 for pooled dispatch")
    if retry_budget < 0 or rebuild_budget < 0:
        raise ValueError("retry budgets must be non-negative")

    stats = RetryStats()
    results: Dict[int, Any] = {}
    pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(tasks))]
    current_initargs = tuple(initargs)
    emitted = 0  # tasks handed to on_result so far

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(initializer, *current_initargs),
        )

    pool = make_pool()
    try:
        while pending:
            in_flight: List[Tuple[int, int, Future[Any]]] = []
            next_pending: List[Tuple[int, int]] = []
            broken: Optional[BaseException] = None
            try:
                for index, attempt in pending:
                    instruction = (
                        injector.task_fault(site, index, attempt)
                        if injector is not None
                        else None
                    )
                    in_flight.append(
                        (
                            index,
                            attempt,
                            pool.submit(
                                _faulted_entry,
                                (instruction, fn, tasks[index]),
                            ),
                        )
                    )
            except BrokenProcessPool as exc:
                # The pool died mid-submission; everything not yet
                # submitted keeps its attempt count for the next round.
                broken = exc
                submitted = {index for index, _, _ in in_flight}
                next_pending.extend(
                    entry for entry in pending if entry[0] not in submitted
                )
            for index, attempt, future in in_flight:
                try:
                    results[index] = future.result()
                except BrokenProcessPool as exc:
                    broken = broken or exc
                    next_pending.append((index, attempt + 1))
                    stats.task_retries += 1
                except Exception:
                    if attempt >= retry_budget:
                        raise
                    next_pending.append((index, attempt + 1))
                    stats.task_retries += 1
                while on_result is not None and emitted in results:
                    on_result(emitted, results[emitted])
                    emitted += 1
            if broken is not None:
                stats.pool_rebuilds += 1
                if stats.pool_rebuilds > rebuild_budget:
                    raise broken
                pool.shutdown(wait=False, cancel_futures=True)
                if refresh is not None:
                    refreshed = refresh()
                    if refreshed is not None:
                        current_initargs = tuple(refreshed)
                pool = make_pool()
            next_pending.sort()
            pending = next_pending
    finally:
        # Wait like the old `with ProcessPoolExecutor(...)` did: callers
        # unlink shared segments right after this returns, and a clean
        # worker exit keeps the resource tracker quiet.
        pool.shutdown(wait=True, cancel_futures=True)
    return [results[i] for i in range(len(tasks))], stats


__all__ = [
    "DEFAULT_REBUILD_BUDGET",
    "DEFAULT_RETRY_BUDGET",
    "RetryStats",
    "run_resilient",
]
