"""Helpers shared by the benchmark entry point and its workloads."""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class Checks:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


#: The reference loop's length, and the time it takes at the speed that
#: end-to-end times are scaled to (a quiet 2-vCPU Xeon VM, Python 3.11).
REFERENCE_LOOPS = 300_000
REFERENCE_S = 0.025


def reference_loop() -> float:
    """CPU time of a fixed pure-Python loop that touches no program code.

    Thread CPU time, so that waiting for the interpreter lock or for a
    processor held by a pool worker is not counted as slowness.
    """
    started = time.thread_time()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.thread_time() - started


class Speed:
    """The machine's speed, sampled over the timed operations of a run.

    The benchmark's virtual CPUs are shared: their speed flips between
    two levels about a third apart every few seconds, and drifts over
    minutes.  The reference loop slows by the same factor as the
    program's CPU-bound work, so a workload samples it around its timed
    operations and :meth:`scale` turns the run's raw times into times at
    ``REFERENCE_S`` speed.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 3) -> None:
        """Sample between operations, outside every timed region."""
        self.samples.extend(reference_loop() for _ in range(repeats))

    @contextlib.contextmanager
    def during(self, period_s: float = 0.5) -> Iterator[None]:
        """Sample every ``period_s`` on a thread while the body runs.

        For an operation that leaves this interpreter idle, as a pooled
        sweep does while its workers run; the loop then takes about 6 %
        of one processor from them, the same share in every run.
        """
        stop = threading.Event()

        def loop() -> None:
            while True:
                self.samples.append(reference_loop())
                if stop.wait(period_s):
                    return

        thread = threading.Thread(target=loop, name="perfbench-speed")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def scale(self, start: int = 0, stop: Optional[int] = None) -> float:
        """Multiply a raw time by this (divide a raw rate by it); from
        ``samples[start:stop]``, all of the run's samples by default."""
        window = self.samples[start:stop]
        return REFERENCE_S * len(window) / sum(window)


@dataclass
class Context:
    """What a workload gets: its inputs, its clock budget, its checks and
    the machine-speed samples its end-to-end times are scaled by."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path
    inputs: Dict[str, Path]
    checks: Checks = field(default_factory=Checks)
    speed: Speed = field(default_factory=Speed)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(pct) - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(pct, value)``: the highest of p99/p95/p90/p75 that has at least
    ten samples beyond it, or the median when even p75 has fewer."""
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return float(pct), percentile(values, pct)
    return 50.0, median(values)


def latency_metrics(latencies_s: Sequence[float]) -> Dict[str, float]:
    """The end-to-end latency pair plus its sample count and percentile."""
    pct, value = tail(latencies_s)
    return {
        "latency_ms_p50": median(latencies_s) * 1e3,
        "latency_ms_tail": value * 1e3,
        "latency.samples": float(len(latencies_s)),
        "latency.tail_pct": pct,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB → MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_pids() -> List[int]:
    """Live children of this process (Linux ``/proc``; empty elsewhere)."""
    me = os.getpid()
    found: List[int] = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this benchmark started and wait for each.

    Pool workers are joined; the ``multiprocessing`` resource tracker,
    which shared-memory publication starts and which would otherwise
    outlive this process, is closed and waited for; any other child is
    asked to stop, killed after ``grace_s``, and reaped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception as exc:  # a tracker that is already gone is fine
        print(f"resource tracker: {exc!r}", file=sys.stderr)
    pids = child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in pids:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


def timed(fn: Callable[[], object]) -> Tuple[object, float]:
    """``fn()`` and its wall time, after a collection so garbage left by
    the previous operation is not charged to this one."""
    gc.collect()
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started
