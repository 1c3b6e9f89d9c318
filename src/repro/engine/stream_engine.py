"""The throughput-oriented stream-driving loop.

Every experiment in the repo used to hand-roll the same pattern: iterate
an :class:`~repro.streams.stream.EdgeStream`, feed each arrival to a
counter, and record state at checkpoint positions.
:class:`StreamEngine` centralises that loop and makes it fast with one
of two drives:

* **chunked** — when a ``chunk_size`` is configured and the counter
  exposes ``process_chunk``, the stream is consumed as columnar
  ``int32`` blocks (:meth:`repro.streams.EdgeStream.chunks`, or
  :func:`repro.streams.chunks.iter_chunks` for plain iterables) and
  blocks are split *exactly* at checkpoint marks, so checkpointed state
  is identical to a per-edge drive;
* **batched** — otherwise the counter's ``process_many`` takes the
  edges in checkpoint-to-checkpoint batches instead of one Python call
  per arrival.

A counter with neither is rejected; ``process_many`` as a plain
per-edge loop is what :class:`~repro.baselines.base.BatchProcessMixin`
gives every baseline.

Checkpoint callbacks receive the 1-based stream position; they close over
whatever they want to read (a tracking run reads exact ground truth it
counted before the pass), so the engine stays agnostic of what is being
estimated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.graph.edge import Node

#: Edges per batch after the last checkpoint when observers are
#: registered, so they keep firing over an unbounded stream.
_TAIL_BATCH = 65536

#: Anything consumable by the engine: ``.process_many(edges) -> int``
#: for the batched drive, ``.process_chunk(u_col, v_col) -> int`` for
#: columnar blocks.
Counter = object

CheckpointCallback = Callable[[int], None]
ChunkObserver = Callable[[int], None]


@dataclass(frozen=True)
class EngineStats:
    """Timing summary of one :meth:`StreamEngine.run` pass."""

    edges: int
    elapsed_seconds: float
    checkpoints: Tuple[int, ...] = ()

    @property
    def edges_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return float("inf")
        return self.edges / self.elapsed_seconds

    @property
    def update_time_us(self) -> float:
        """Mean wall-clock cost per arrival, in microseconds."""
        return self.elapsed_seconds / max(1, self.edges) * 1e6


class StreamEngine:
    """Drive a counter over a stream.

    Parameters
    ----------
    counter:
        The consumer of every arrival: a ``process_chunk`` counter on
        the chunked drive, else a ``process_many`` one (any other
        counter raises :class:`TypeError`).
    chunk_size:
        Enable the columnar drive with blocks of this many edges
        (``None`` — the default — keeps the batched drive).  Takes
        effect only when the counter exposes ``process_chunk``; the
        stream must then either be an :class:`~repro.streams.EdgeStream`
        or an iterable of int-labelled pairs.

    Examples
    --------
    >>> from repro.core.priority_sampler import GraphPrioritySampler
    >>> engine = StreamEngine(GraphPrioritySampler(capacity=8, seed=3))
    >>> stats = engine.run([(0, 1), (1, 2), (0, 2)])
    >>> stats.edges
    3
    """

    __slots__ = ("_counter", "_chunked", "_chunk_size", "_on_chunk")

    def __init__(
        self,
        counter: Counter,
        chunk_size: Optional[int] = None,
    ) -> None:
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive (or None)")
        self._chunked = chunk_size is not None and hasattr(
            counter, "process_chunk"
        )
        if not self._chunked and not hasattr(counter, "process_many"):
            raise TypeError(
                f"{type(counter).__name__} has no process_many to drive "
                f"(BatchProcessMixin supplies one over process)"
            )
        self._counter = counter
        self._chunk_size = chunk_size
        self._on_chunk: Tuple[ChunkObserver, ...] = ()

    def on_chunk(self, callback: "ChunkObserver") -> "ChunkObserver":
        """Subscribe ``callback(position)`` to segment boundaries.

        Fires after every contiguous segment the engine feeds to the
        counter — each columnar block (and each checkpoint split) in
        the chunked drive, each checkpoint-to-checkpoint batch (then
        every ``_TAIL_BATCH`` edges) in the batched drive — with the
        1-based stream position processed so far.  Unlike
        ``checkpoints``, no positions need to be predeclared: observers
        (the serving layer's snapshot publisher, metrics sinks) see
        every natural pause point of whatever drive the engine picked.

        Observers are ordinary Python callbacks on the driving thread;
        they must not feed the counter.  When no observer is
        registered the drives skip the dispatch entirely (a no-op cost
        guarantee the regression tests pin down: hooks never perturb
        RNG state or counts).  Returns ``callback`` so the method works
        as a decorator.
        """
        self._on_chunk += (callback,)
        return callback

    @property
    def counter(self) -> Counter:
        return self._counter

    @property
    def chunk_size(self) -> Optional[int]:
        return self._chunk_size

    def run(
        self,
        stream: Iterable[Tuple[Node, Node]],
        checkpoints: Optional[Sequence[int]] = None,
        on_checkpoint: Optional[CheckpointCallback] = None,
    ) -> EngineStats:
        """Feed ``stream`` through the counter, firing checkpoints.

        ``checkpoints`` are strictly increasing 1-based arrival positions
        (as produced by :meth:`repro.streams.EdgeStream.checkpoints`);
        ``on_checkpoint(t)`` runs after arrival ``t`` has been processed.
        Checkpoint positions beyond the end of the stream never fire.
        Returns wall-clock :class:`EngineStats` for the whole pass.
        """
        marks: Tuple[int, ...] = tuple(checkpoints or ())
        if any(b <= a for a, b in zip(marks, marks[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if marks and marks[0] <= 0:
            raise ValueError("checkpoints are 1-based positive positions")

        started = time.perf_counter()
        if self._chunked:
            edges = self._run_chunked(stream, marks, on_checkpoint)
        else:
            edges = self._run_batched(stream, marks, on_checkpoint)
        elapsed = time.perf_counter() - started
        fired = tuple(m for m in marks if m <= edges)
        return EngineStats(edges=edges, elapsed_seconds=elapsed, checkpoints=fired)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_chunked(
        self,
        stream: Iterable[Tuple[Node, Node]],
        marks: Sequence[int],
        on_checkpoint: Optional[CheckpointCallback],
    ) -> int:
        """Columnar drive: blocks split exactly at checkpoint marks."""
        size = self._chunk_size
        if hasattr(stream, "chunks"):
            blocks = stream.chunks(size)
        else:
            from repro.streams.chunks import iter_chunks

            blocks = iter_chunks(stream, size)
        process_chunk = self._counter.process_chunk
        hooks = self._on_chunk
        mark_iter = iter(marks)
        next_mark = next(mark_iter, 0)
        position = 0
        for cu, cv in blocks:
            offset = 0
            block_len = len(cu)
            while next_mark and next_mark - position <= block_len - offset:
                cut = offset + (next_mark - position)
                process_chunk(cu[offset:cut], cv[offset:cut])
                position = next_mark
                offset = cut
                if on_checkpoint is not None:
                    on_checkpoint(position)
                for hook in hooks:
                    hook(position)
                next_mark = next(mark_iter, 0)
            if offset < block_len:
                process_chunk(cu[offset:], cv[offset:])
                position += block_len - offset
                for hook in hooks:
                    hook(position)
        return position

    def _run_batched(
        self,
        stream: Iterable[Tuple[Node, Node]],
        marks: Sequence[int],
        on_checkpoint: Optional[CheckpointCallback],
    ) -> int:
        """Batched drive: ``islice`` views straight into ``process_many``.

        Nothing is materialised here: a column-backed stream hands over
        one block of plain-int pairs at a time, and any other iterable
        is consumed as it goes.
        """
        process_many = self._counter.process_many
        hooks = self._on_chunk
        it = iter(stream)
        position = 0
        for mark in marks:
            consumed = process_many(islice(it, mark - position))
            position += consumed
            if position < mark:  # stream ended before the checkpoint
                if consumed:
                    for hook in hooks:
                        hook(position)
                return position
            if on_checkpoint is not None:
                on_checkpoint(position)
            for hook in hooks:
                hook(position)
        if not hooks:
            return position + process_many(it)
        # Observers want segment boundaries: bound the tail into
        # _TAIL_BATCH slices so they keep firing past the last mark.
        while True:
            consumed = process_many(islice(it, _TAIL_BATCH))
            if not consumed:
                return position
            position += consumed
            for hook in hooks:
                hook(position)


__all__ = [
    "StreamEngine",
    "EngineStats",
    "CheckpointCallback",
    "ChunkObserver",
]
