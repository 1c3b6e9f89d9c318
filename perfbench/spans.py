"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a layer of the program: its name, start,
end, the span that caused it and the id of the operation it belongs to.
Spans are opened by the benchmark around public calls (never inside the
program), kept in memory, and written out once when the run ends.  A
recorder built with ``enabled=False`` makes every span a no-op, so one
replay function serves both the traced run and its untraced twin that
the tracing overhead is measured against.

The recorder is single-threaded by design: every traced replay runs on
one thread, which is what makes "self time = span minus its children"
a plain subtraction.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "child_time")

    def __init__(self, id: int, name: str, parent: Optional[int], op: int):
        self.id = id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = time.perf_counter()
        self.end = self.start
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class SpanRecorder:
    """Nestable timed spans grouped by operation id."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_op = 0

    def new_op(self) -> None:
        """Start a new operation; root spans opened after this carry its id."""
        self._next_op += 1

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        record = self._open(name)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self._close(record)

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed interval as a child of the open span.

        For work that is interleaved with other layers (a lazy source is
        parsed block by block inside the engine drive), where a ``with``
        block cannot wrap it.
        """
        if self.enabled:
            record = self._open(name)
            record.start, record.end = start, end
            self._close(record)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        record = Span(
            len(self.spans),
            name,
            parent.id if parent is not None else None,
            parent.op if parent is not None else self._next_op,
        )
        self.spans.append(record)
        return record

    def _close(self, record: Span) -> None:
        if record.parent is not None:
            self.spans[record.parent].child_time += record.duration

    def self_times(self, name: str) -> List[float]:
        """Self time of every span called ``name``, in record order."""
        return [s.self_time for s in self.spans if s.name == name]

    def per_op_self(self, name: str) -> Dict[int, float]:
        """Summed self time of ``name`` spans, per operation id."""
        out: Dict[int, float] = {}
        for s in self.spans:
            if s.name == name:
                out[s.op] = out.get(s.op, 0.0) + s.self_time
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "op": s.op, "start": s.start, "end": s.end,
                    "self": s.self_time,
                }) + "\n")


def span_cost(samples: int = 10_000) -> float:
    """Seconds one span open/close costs, measured on an empty body."""
    rec = SpanRecorder()
    started = time.perf_counter()
    for _ in range(samples):
        with rec.span("calibration"):
            pass
    return (time.perf_counter() - started) / samples
