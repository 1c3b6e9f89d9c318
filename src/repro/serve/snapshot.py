"""Versioned, immutable snapshots of a live GPS reservoir.

The serving layer's central mechanism.  Ingestion mutates the compact
slot arrays continuously; queries must never observe a half-applied
admission.  Instead of locking the reservoir around every query, the
drive thread captures an immutable :class:`SampleSnapshot` at chunk
boundaries — when the counter is quiescent by construction — and
publishes it through a :class:`SnapshotStore` under a monotone epoch
counter.  Readers grab the latest snapshot with one lock acquisition
and then work entirely on private copies; a reader holding epoch *k*
keeps a consistent view forever, no matter how far ingestion advances.

Snapshots are cheap on the write side.  ``snapshot_arrays`` copies five
flat columns and the two label lists; ``snapshot_adjacency`` copies only
the outer node → row map and shares every row with the live sampler,
copy-on-write: after a capture the sampler copies a row before it first
writes it.  So a publish pays for the rows the drive wrote since the
previous one, never for the whole adjacency, and a snapshot's rows are
read-only.  Snapshots are lazy on the read side: the Algorithm-2 bundle
(read off the captured rows and columns) and the object graph of the
local and motif queries are each built at most once, on first use.  The
store double-buffers the column arrays — when a snapshot is garbage-
collected its buffers return to a small free list, so a steady-state
service recycles two arenas instead of allocating fresh columns.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Dict, List, Optional

from repro.core.compact import SlotArrays, materialize_slots
from repro.core.estimates import GraphEstimates
from repro.graph.edge import Node


class SampleSnapshot:
    """One immutable, epoch-stamped view of a GPS reservoir.

    Implements the sampler read protocol (``sample`` / ``threshold`` /
    ``stream_position`` / ``sample_size``, and ``slot_view`` for
    Algorithm 2) that the retrospective estimators consume, so a
    snapshot plugs directly into
    :class:`~repro.core.post_stream.PostStreamEstimator`,
    :class:`~repro.core.local.LocalTriangleEstimator` and
    :class:`~repro.core.motifs.MotifCensusEstimator` — and their
    answers are bit-identical to a batch run over the same stream
    prefix, because the snapshot adjacency preserves the slot dicts'
    insertion orders (float accumulation order included).  Its rows
    are shared with the live sampler and later snapshots, so they are
    read-only.
    """

    __slots__ = (
        "epoch",
        "arrays",
        "adjacency",
        "_in_stream",
        "_graph",
        "_post",
        "__weakref__",
    )

    def __init__(
        self,
        arrays: SlotArrays,
        adjacency: Dict[Node, Dict[Node, int]],
        in_stream: Optional[GraphEstimates] = None,
        epoch: int = 0,
    ) -> None:
        self.epoch = epoch
        self.arrays = arrays
        self.adjacency = adjacency
        self._in_stream = in_stream
        self._graph: Optional[Any] = None
        self._post: Optional[GraphEstimates] = None

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        counter: Any,
        out: Optional[SlotArrays] = None,
        epoch: int = 0,
    ) -> "SampleSnapshot":
        """Freeze ``counter``'s reservoir state into a snapshot.

        ``counter`` is any registry-made GPS counter: the compact
        in-stream estimator (snapshotted with its O(1) Algorithm-3
        estimate bundle attached) or an adapter owning a bare compact
        sampler (``.sampler`` attribute; estimates then come lazily
        from the retrospective pass).  Must run while the counter is
        quiescent — the serving layer calls it from the drive thread at
        chunk boundaries.
        """
        sampler = getattr(counter, "sampler", counter)
        snapshot_arrays = getattr(sampler, "snapshot_arrays", None)
        if snapshot_arrays is None:
            raise TypeError(
                f"{type(sampler).__name__} has no snapshot_arrays(); the "
                "serving layer needs the compact core's snapshot surface"
            )
        arrays = snapshot_arrays(out)
        adjacency = sampler.snapshot_adjacency()
        estimates_fn = getattr(counter, "estimates", None)
        in_stream = estimates_fn() if estimates_fn is not None else None
        return cls(arrays, adjacency, in_stream=in_stream, epoch=epoch)

    # ------------------------------------------------------------------
    # Sampler read protocol (what the retrospective estimators consume)
    # ------------------------------------------------------------------
    @property
    def stream_position(self) -> int:
        return self.arrays.stream_position

    @property
    def sample_size(self) -> int:
        return self.arrays.size

    @property
    def threshold(self) -> float:
        return self.arrays.threshold

    def slot_view(self) -> tuple:
        """``(adjacency, u, v, weights)`` as captured, for Algorithm 2:
        the compact sampler's ``slot_view`` frozen at capture."""
        arrays = self.arrays
        weights = arrays.weight[: arrays.size].tolist()
        return self.adjacency, arrays.u, arrays.v, weights

    @property
    def sample(self) -> Any:
        """The materialised object-graph view (built once, cached)."""
        return self.materialize()

    def materialize(self) -> Any:
        """Object-core view with the captured adjacency's iteration
        orders, the frozen twin of
        :meth:`repro.core.compact.CompactSample.materialize`."""
        if self._graph is None:
            self._graph = materialize_slots(
                self.adjacency, self.arrays.record
            )
        return self._graph

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def estimates(self) -> GraphEstimates:
        """Global triangle/wedge/clustering bundle for this epoch.

        In-stream counters answer O(1) from the bundle frozen at
        capture; bare samplers answer with one retrospective
        (Algorithm 2) pass over the captured adjacency and columns
        (:meth:`slot_view`, no records built), computed on first call
        and cached on the snapshot.
        """
        if self._in_stream is not None:
            return self._in_stream
        post = self._post
        if post is None:
            from repro.core.post_stream import PostStreamEstimator

            post = PostStreamEstimator(self).estimate()
            self._post = post
        return post

    def occupancy(self) -> Dict[str, Any]:
        """Reservoir occupancy facts (no estimation pass)."""
        capacity = self.arrays.capacity
        return {
            "epoch": self.epoch,
            "stream_position": self.stream_position,
            "sample_size": self.sample_size,
            "capacity": capacity,
            "fill": self.sample_size / capacity if capacity else 0.0,
            "threshold": self.threshold,
        }


class SnapshotStore:
    """Single-writer, many-reader epoch store with buffer recycling.

    The drive thread is the only publisher; queries read concurrently.
    ``publish`` stamps the snapshot with the next epoch and swaps it in
    under the condition lock (readers holding the previous snapshot are
    unaffected — snapshots are immutable).  ``wait_for`` blocks until a
    target epoch is visible, giving tests and the ``wait`` query op a
    race-free ordering primitive; ``close`` ends every such wait once
    the publisher is done.

    Buffer recycling: ``take_buffer`` hands the publisher a previously
    retired :class:`SlotArrays` arena when one is available, and a
    weakref finalizer returns each snapshot's arena to the free list
    when the snapshot is garbage-collected — bounded double buffering
    without reference counting in the query path.
    """

    def __init__(self, max_buffers: int = 2) -> None:
        self._cond = threading.Condition()
        self._latest: Optional[SampleSnapshot] = None
        self._epoch = 0
        self._closed = False
        self._free: List[SlotArrays] = []
        self._max_buffers = max_buffers

    @property
    def epoch(self) -> int:
        with self._cond:
            return self._epoch

    @property
    def closed(self) -> bool:
        """True once the publisher has published its last epoch."""
        with self._cond:
            return self._closed

    def close(self) -> None:
        """Publish no more: wake every waiter for an epoch not yet seen."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def take_buffer(self) -> Optional[SlotArrays]:
        """A retired arena for the next capture, when one is free."""
        with self._cond:
            return self._free.pop() if self._free else None

    def _recycle(self, arrays: SlotArrays) -> None:
        with self._cond:
            if len(self._free) < self._max_buffers:
                self._free.append(arrays)

    def publish(self, snapshot: SampleSnapshot) -> int:
        """Make ``snapshot`` the latest view; returns its epoch."""
        with self._cond:
            self._epoch += 1
            snapshot.epoch = self._epoch
            self._latest = snapshot
            weakref.finalize(snapshot, self._recycle, snapshot.arrays)
            self._cond.notify_all()
            return self._epoch

    def latest(self) -> Optional[SampleSnapshot]:
        with self._cond:
            return self._latest

    def wait_for(
        self, epoch: int, timeout: Optional[float] = None
    ) -> Optional[SampleSnapshot]:
        """Block until epoch ≥ ``epoch`` is published; latest or None.

        ``None`` means the timeout passed first, or the store closed
        short of ``epoch``, which then never comes.
        """
        with self._cond:
            self._cond.wait_for(
                lambda: self._epoch >= epoch or self._closed, timeout=timeout
            )
            return self._latest if self._epoch >= epoch else None


__all__ = ["SampleSnapshot", "SnapshotStore"]
