"""Common protocol for streaming triangle counters.

The experiment harness (Tables 2–3) and the :mod:`repro.api` facade drive
every method through this interface so that workloads, memory budgets and
timing are measured identically for GPS and all baselines.

:class:`BatchProcessMixin` supplies the ``process_many`` batched entry
point the :class:`~repro.engine.stream_engine.StreamEngine` drives: every
baseline inherits it, so engine-driven runs feed baselines in
checkpoint-to-checkpoint batches (one Python call per batch).
"""

from __future__ import annotations

from typing import Iterable, Protocol, Tuple, runtime_checkable

from repro.graph.edge import Node


@runtime_checkable
class StreamingTriangleCounter(Protocol):
    """One-pass triangle-count estimator over an adjacency edge stream."""

    def process(self, u: Node, v: Node) -> None:
        """Consume one arriving edge."""
        ...

    def process_many(self, edges: Iterable[Tuple[Node, Node]]) -> int:
        """Consume a batch of arriving edges; returns how many."""
        ...

    @property
    def triangle_estimate(self) -> float:
        """Current estimate of the number of triangles seen so far."""
        ...


class BatchProcessMixin:
    """Default batched driving loop for protocol counters.

    ``process_many`` is semantically a plain per-edge loop — it exists so
    the engine can hand a whole batch across one call boundary with the
    bound ``process`` method hoisted.  Counters with a genuinely vectorised
    update (the GPS sampler, :class:`~repro.core.in_stream.InStreamEstimator`)
    override it; everything else inherits this one.
    """

    __slots__ = ()

    def process_many(self, edges: Iterable[Tuple[Node, Node]]) -> int:
        """Feed every edge to :meth:`process`; returns the number consumed."""
        process = self.process
        consumed = 0
        for u, v in edges:
            process(u, v)
            consumed += 1
        return consumed


__all__ = ["BatchProcessMixin", "StreamingTriangleCounter"]
