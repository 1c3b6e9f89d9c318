"""The live sampling service: concurrent ingestion + snapshot queries.

:class:`SamplingService` wires the pieces together:

* a **pump thread** iterates the spec's block source and feeds a
  bounded :class:`queue.Queue` (backpressure: when the drive falls
  behind, the pump blocks and the stall is counted);
* a **drive thread** runs the chunked :class:`~repro.engine.StreamEngine`
  over the queue, and — via the engine's ``on_chunk`` observer —
  captures an immutable :class:`~repro.serve.snapshot.SampleSnapshot`
  every ``snapshot_every`` blocks, publishing it to a
  :class:`~repro.serve.snapshot.SnapshotStore` under a monotone epoch;
* **query callers** (any number of threads) read the latest snapshot
  with one lock acquisition and compute answers entirely on private
  copies, so queries never pause ingestion and ingestion never tears a
  query's view.

Shutdown is graceful by default: ``stop(drain=True)`` stops the pump,
lets the drive consume everything already queued, publishes a final
snapshot and joins both threads; ``drain=False`` aborts, discarding
queued blocks at the next block boundary.  The final snapshot of a
drained finite source is bit-identical to a batch ``run()`` over the
same stream — the concurrency stress tests pin this down prefix by
prefix.

The pump is *supervised* when the spec grants ``source_retries``: an
ingestion error restarts the stream from the recorded position — the
service counts edges as it enqueues them, re-iterates the source and
skips exactly that many, so the sampler sees one gapless stream and
the final answer stays bit-identical to a fault-free run.  Restarts
wait a capped exponential backoff with seeded jitter; a burst of
consecutive failures beyond the budget degrades to the historical
fail-fast shape (error recorded, surfaced by :meth:`join`).
"""

from __future__ import annotations

import queue
import random
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine.stream_engine import EngineStats, StreamEngine
from repro.faults.backoff import backoff_delay
from repro.faults.injector import FaultInjector
from repro.serve.snapshot import SampleSnapshot, SnapshotStore
from repro.serve.source import make_source
from repro.serve.spec import ServeSpec

#: Ops answered from a published snapshot, pinned by ``epoch`` or latest.
_SNAPSHOT_OPS = ("estimates", "occupancy", "local", "motifs")


class _QueueStream:
    """Engine-facing view of the ingestion queue.

    ``chunks(size)`` yields the transport's blocks as they arrive
    (``size`` is advisory — the chunked pipeline is bit-identical
    across block boundaries); a ``None`` sentinel ends the stream, and
    the abort event ends it early at the next boundary.
    """

    def __init__(
        self,
        blocks: "queue.Queue",
        abort: threading.Event,
        poll_interval: float,
    ) -> None:
        self._queue = blocks
        self._abort = abort
        self._poll = poll_interval

    def _next(self):
        while True:
            if self._abort.is_set():
                return None
            try:
                return self._queue.get(timeout=self._poll)
            except queue.Empty:
                continue

    def chunks(self, size: int):
        while True:
            block = self._next()
            if block is None:
                return
            yield block

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        from repro.streams.chunks import pairs_from_columns

        for us, vs in self.chunks(0):
            yield from pairs_from_columns(us, vs)


class SamplingService:
    """A long-running sampler answering queries while it ingests.

    Construct from a :class:`ServeSpec` (optionally injecting a
    prebuilt block ``source``), then either use as a context manager or
    call :meth:`start` / :meth:`stop` explicitly::

        spec = ServeSpec(source="synthetic", budget=500, max_edges=100_000)
        with SamplingService(spec) as service:
            service.wait_for_epoch(2)
            answer = service.query({"op": "estimates"})

    Every query answer carries the snapshot's ``epoch`` and
    ``stream_position``, so callers can reason about freshness and
    tests can match answers against prefix-exact batch runs.
    """

    def __init__(
        self,
        spec: ServeSpec,
        source: Optional[Any] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        from repro.api.registry import get_method, get_weight

        method = get_method(spec.method)
        if method.needs_stream_length:
            raise ValueError(
                f"method {spec.method!r} interprets its budget via the "
                "stream length, which a live service cannot know; pick a "
                "length-free method (the GPS family)"
            )
        weight_fn = None
        if spec.weight is not None:
            if not method.uses_weight:
                raise ValueError(
                    f"method {spec.method!r} does not use a weight function"
                )
            weight_fn = get_weight(spec.weight).factory()
        kwargs: Dict[str, Any] = {}
        if method.uses_weight:
            kwargs["weight_fn"] = weight_fn
        if method.supports_core:
            kwargs["core"] = "compact"
        counter = method.factory(
            spec.budget, 0, spec.sampler_seed, **kwargs
        )
        sampler = getattr(counter, "sampler", counter)
        if not hasattr(sampler, "snapshot_arrays"):
            raise ValueError(
                f"method {spec.method!r} does not expose the compact "
                "snapshot surface (snapshot_arrays); the serving layer "
                "supports the GPS family"
            )

        self._spec = spec
        self._counter = counter
        self._source = (
            source if source is not None else make_source(spec, faults=faults)
        )
        self._store = SnapshotStore()
        self._queue: "queue.Queue" = queue.Queue(maxsize=spec.queue_chunks)
        self._stop_event = threading.Event()
        self._abort = threading.Event()
        self._engine = StreamEngine(counter, chunk_size=spec.chunk_size)
        self._engine.on_chunk(self._chunk_boundary)
        self._pump_thread: Optional[threading.Thread] = None
        self._drive_thread: Optional[threading.Thread] = None
        self._stats: Optional[EngineStats] = None
        self._errors: List[str] = []
        self._stalls = 0
        self._blocks_ingested = 0
        self._edges_ingested = 0
        self._blocks_dropped = 0
        self._pump_restarts = 0
        self._pump_retrying = False
        self._chunks_processed = 0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def spec(self) -> ServeSpec:
        return self._spec

    @property
    def store(self) -> SnapshotStore:
        return self._store

    @property
    def stats(self) -> Optional[EngineStats]:
        """Engine timing of the finished drive (None while running)."""
        return self._stats

    @property
    def stalls(self) -> int:
        """How often the pump hit the full queue (backpressure events)."""
        return self._stalls

    @property
    def pump_restarts(self) -> int:
        """Supervised pump restarts after ingestion errors."""
        return self._pump_restarts

    @property
    def blocks_dropped(self) -> int:
        """Blocks lost to an abort while the queue stayed full."""
        return self._blocks_dropped

    def start(self) -> "SamplingService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        # Epoch 1 is the empty reservoir: queries are answerable from
        # the first instant, with no startup race.
        self._publish()
        self._pump_thread = threading.Thread(
            target=self._pump, name="repro-serve-pump", daemon=True
        )
        self._drive_thread = threading.Thread(
            target=self._drive, name="repro-serve-drive", daemon=True
        )
        self._pump_thread.start()
        self._drive_thread.start()
        return self

    def __enter__(self) -> "SamplingService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    @property
    def running(self) -> bool:
        drive = self._drive_thread
        return drive is not None and drive.is_alive()

    def stop(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop ingestion and join.

        ``drain=True`` finishes a *bounded* source completely (the pump
        runs the stream to its end) and, for unbounded sources, stops
        the pump at the next block and lets the drive consume whatever
        is queued; ``drain=False`` aborts, discarding queued blocks at
        the next block boundary.
        """
        bounded = bool(getattr(self._source, "bounded", False))
        if not (drain and bounded):
            self._stop_event.set()
            source_stop = getattr(self._source, "stop", None)
            if source_stop is not None:
                source_stop()
        if not drain:
            self._abort.set()
        self.join(timeout)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for both threads; re-raises the first worker error."""
        for thread in (self._pump_thread, self._drive_thread):
            if thread is not None:
                thread.join(timeout)
        if self._errors:
            raise RuntimeError(
                f"service worker failed: {'; '.join(self._errors)}"
            )

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------
    def _put(self, block: Any) -> bool:
        try:
            self._queue.put_nowait(block)
            return True
        except queue.Full:
            self._stalls += 1
        poll = self._spec.poll_interval
        while not self._abort.is_set():
            try:
                self._queue.put(block, timeout=poll)
                return True
            except queue.Full:
                continue
        return False

    def _resumed_blocks(self, skip: int) -> Iterator[Any]:
        """A fresh pass over the source, minus ``skip`` leading edges.

        Every shipped source restarts deterministically from the start
        of its stream when re-iterated (seeded generators regenerate,
        files re-read, the reference socket feed replays), so skipping
        the edges already enqueued resumes exactly where the failed
        pass stopped — partial blocks are sliced, never re-delivered.
        """
        remaining = skip
        for us, vs in self._source:
            if remaining <= 0:
                yield us, vs
            elif len(us) <= remaining:
                remaining -= len(us)
            else:
                yield us[remaining:], vs[remaining:]
                remaining = 0

    def _pump(self) -> None:
        spec = self._spec
        rng = random.Random(spec.sampler_seed)
        failures = 0
        try:
            while True:
                try:
                    for block in self._resumed_blocks(self._edges_ingested):
                        if self._stop_event.is_set():
                            return
                        if not self._put(block):
                            # Aborted mid-backpressure: the block never
                            # reached the queue.  Count it — a silent
                            # drop is indistinguishable from ingestion.
                            self._blocks_dropped += 1
                            return
                        self._blocks_ingested += 1
                        self._edges_ingested += len(block[0])
                        failures = 0
                    return  # clean end of stream
                except Exception as exc:  # noqa: BLE001 - retried/surfaced
                    if (
                        self._stop_event.is_set()
                        or failures >= spec.source_retries
                    ):
                        self._errors.append(f"pump: {exc!r}")
                        return
                    failures += 1
                    self._pump_restarts += 1
                    self._pump_retrying = True
                    delay = backoff_delay(
                        failures - 1,
                        base=spec.retry_backoff,
                        cap=spec.retry_backoff_cap,
                        rng=rng,
                    )
                    stopped = self._stop_event.wait(delay)
                    self._pump_retrying = False
                    if stopped:
                        return
        except Exception as exc:  # noqa: BLE001 - surfaced via join()
            self._errors.append(f"pump: {exc!r}")
        finally:
            self._put(None)  # end-of-stream sentinel

    def _drive(self) -> None:
        try:
            stream = _QueueStream(
                self._queue, self._abort, self._spec.poll_interval
            )
            self._stats = self._engine.run(stream)
            # Final state: the drained reservoir, even when the last
            # segment didn't land on a snapshot_every boundary.
            self._publish()
        except Exception as exc:  # noqa: BLE001 - surfaced via join()
            self._errors.append(f"drive: {exc!r}")
        finally:
            # No epoch follows: waits for a later one answer at once.
            self._store.close()
            # Queries answer from the published snapshots, so a finished
            # drive's sampler is dead weight for as long as a caller
            # keeps the service (its final answers, its status).
            self._counter = self._engine = None

    def _chunk_boundary(self, position: int) -> None:
        self._chunks_processed += 1
        if self._chunks_processed % self._spec.snapshot_every == 0:
            self._publish()

    def _publish(self) -> None:
        snapshot = SampleSnapshot.capture(
            self._counter, out=self._store.take_buffer()
        )
        self._store.publish(snapshot)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def latest(self) -> Optional[SampleSnapshot]:
        return self._store.latest()

    def wait_for_epoch(
        self, epoch: int, timeout: Optional[float] = None
    ) -> Optional[SampleSnapshot]:
        return self._store.wait_for(epoch, timeout)

    def status(self) -> Dict[str, Any]:
        latest = self._store.latest()
        source_state = getattr(self._source, "state", None)
        retrying = self._pump_retrying or source_state == "retrying"
        degraded = bool(self._errors) or source_state == "failed"
        return {
            "running": self.running,
            "epoch": latest.epoch if latest is not None else 0,
            "stream_position": (
                latest.stream_position if latest is not None else 0
            ),
            "sample_size": latest.sample_size if latest is not None else 0,
            "blocks_ingested": self._blocks_ingested,
            "chunks_processed": self._chunks_processed,
            "backpressure": {
                "stalls": self._stalls,
                "queue_depth": self._queue.qsize(),
                "queue_chunks": self._spec.queue_chunks,
            },
            "resilience": {
                "degraded": degraded,
                "retrying": retrying,
                "pump_restarts": self._pump_restarts,
                "blocks_dropped": self._blocks_dropped,
                "edges_ingested": self._edges_ingested,
                "source_state": source_state,
                "source_reconnects": getattr(
                    self._source, "reconnects", 0
                ),
                "source_rotations": getattr(self._source, "rotations", 0),
                "source_skipped_lines": getattr(
                    self._source, "skipped_lines", 0
                ),
            },
            "errors": list(self._errors),
        }

    def query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one JSON-shaped query; never raises for bad requests."""
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        if not isinstance(op, str):
            return {"ok": False, "error": "request needs a string 'op'"}
        try:
            return self._dispatch(op, request)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return {"ok": False, "op": op, "error": repr(exc)}

    def _dispatch(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        if op == "ping":
            return {"ok": True, "op": op, "epoch": self._store.epoch}
        if op == "spec":
            return {"ok": True, "op": op, "spec": self._spec.to_dict()}
        if op == "status":
            return {"ok": True, "op": op, "status": self.status()}
        if op == "wait":
            target = int(request.get("epoch", self._store.epoch + 1))
            snapshot = self._wait(target, request)
            if snapshot is None:
                return self._unreached(op, target)
            return self._head(op, snapshot)
        if op == "drain":
            self.stop(drain=True)
            return {"ok": True, "op": op, "status": self.status()}
        if op == "shutdown":
            self.stop(drain=False)
            return {"ok": True, "op": op, "status": self.status()}

        if op not in _SNAPSHOT_OPS:
            return {
                "ok": False,
                "op": op,
                "error": f"unknown op {op!r}; known ops: ping, spec, "
                "status, wait, estimates, occupancy, local, motifs, "
                "drain, shutdown",
            }
        epoch = request.get("epoch")
        if epoch is None:
            snapshot = self._store.latest()
            if snapshot is None:
                return {"ok": False, "op": op,
                        "error": "no snapshot published"}
        else:
            snapshot = self._wait(int(epoch), request)
            if snapshot is None:
                return self._unreached(op, int(epoch))
        if op == "estimates":
            from repro.api.execution import _estimates_dict

            head = self._head(op, snapshot)
            head["estimates"] = _estimates_dict(snapshot.estimates())
            return head
        if op == "occupancy":
            head = self._head(op, snapshot)
            head["occupancy"] = snapshot.occupancy()
            return head
        if op == "local":
            return self._local(op, snapshot, request)
        return self._motifs(op, snapshot)

    def _wait(
        self, target: int, request: Dict[str, Any]
    ) -> Optional[SampleSnapshot]:
        timeout = request.get("timeout")
        return self._store.wait_for(
            target, None if timeout is None else float(timeout)
        )

    def _unreached(self, op: str, target: int) -> Dict[str, Any]:
        """The answer for an epoch that did not come, and why."""
        stopped = self._store.closed  # read first: then epoch is final
        epoch = self._store.epoch
        error = f"timed out waiting for epoch {target}"
        if stopped:
            error += f": the service stopped at epoch {epoch}"
        return {"ok": False, "op": op, "error": error, "epoch": epoch}

    @staticmethod
    def _head(op: str, snapshot: SampleSnapshot) -> Dict[str, Any]:
        return {
            "ok": True,
            "op": op,
            "epoch": snapshot.epoch,
            "stream_position": snapshot.stream_position,
            "sample_size": snapshot.sample_size,
            "threshold": snapshot.threshold,
        }

    def _local(
        self,
        op: str,
        snapshot: SampleSnapshot,
        request: Dict[str, Any],
    ) -> Dict[str, Any]:
        from repro.core.local import LocalTriangleEstimator

        estimator = LocalTriangleEstimator(snapshot)
        triangles = estimator.node_triangles()
        wedges = estimator.node_wedges()
        interner = getattr(self._source, "interner", None)
        if interner is not None:
            # The sampler ran on dense ids; answer in the source's labels.
            label = interner.label
            triangles = {label(n): value for n, value in triangles.items()}
            wedges = {label(n): value for n, value in wedges.items()}
        head = self._head(op, snapshot)
        node = request.get("node")
        if node is not None:
            head["node"] = node
            head["triangles"] = triangles.get(node, 0.0)
            head["wedges"] = wedges.get(node, 0.0)
            return head
        head["triangles"] = triangles
        head["wedges"] = wedges
        return head

    def _motifs(self, op: str, snapshot: SampleSnapshot) -> Dict[str, Any]:
        from repro.core.motifs import MotifCensusEstimator

        head = self._head(op, snapshot)
        census = {}
        for name, est in MotifCensusEstimator(snapshot).estimate().items():
            low, high = est.confidence_bounds()
            census[name] = {
                "value": est.value,
                "variance": est.variance,
                "ci_low": low,
                "ci_high": high,
            }
        head["motifs"] = census
        return head


__all__ = ["SamplingService"]
