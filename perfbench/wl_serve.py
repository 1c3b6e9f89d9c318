"""``serve``: a live service draining a 1M-edge file under an open-loop client.

A ``SamplingService`` runs the default ``ServeSpec`` (method ``gps``, its
default triangle weight) at budget 4000 over an edge-list file written
in seeded arrival order and streamed lazily block by block through a
``FileTailSource``.  One client thread sends ``{"op": "estimates"}`` on a
fixed 200 queries/s schedule that does not slow when the service does,
until the drain completes; each query is timed from when it was due.
Reads beside writes is what this workload adds over the batch ones:
snapshot publication, interpreter-lock contention and query handling
only show here.  Sessions repeat until the run's time is up and at least
1000 queries were answered, so the p99 has ten samples beyond it.

Checks: every answer is ``ok`` with non-decreasing epoch and stream
position, and each session's final estimates equal a batch ``run`` over
the same file in the same order.  The traced run adds the same stream
driven by a bare engine with no queries (the single-threaded baseline),
timing the block parse, each snapshot capture and each first
``estimates()`` of a snapshot.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Tuple

from common import Context, latency_metrics, median, peak_rss_mb, timed
from spans import SpanRecorder

IMPORTS = ("repro", "repro.serve.service")
RATE = 200.0
#: A query answered later than this after its due time counts as late.
LATE_MS = 100.0
BUDGET = 4000


def inputs(smoke: bool) -> Dict[str, Tuple[int, int]]:
    return {"graph": (20_000, 5_000) if smoke else (1_000_000, 200_000)}


class Client(threading.Thread):
    """One open-loop caller: query ``k`` is due at ``start + k / rate``.

    The schedule never waits for the service; a slow answer makes the
    following queries late, and their latency (measured from the due
    time) includes that wait.  Results stay on the thread until it is
    joined.
    """

    def __init__(self, service, start: float) -> None:
        super().__init__(name="perfbench-client", daemon=True)
        self.service = service
        self.start_at = start
        self.done = threading.Event()
        self.latencies: List[float] = []
        self.in_service: List[float] = []
        self.lags: List[float] = []
        self.answers: List[Tuple[bool, int, int]] = []

    def run(self) -> None:
        k = 0
        while True:
            due = self.start_at + k / RATE
            wait = due - time.perf_counter()
            if (wait > 0 and self.done.wait(wait)) or self.done.is_set():
                return
            sent = time.perf_counter()
            answer = self.service.query({"op": "estimates"})
            end = time.perf_counter()
            self.latencies.append(end - due)
            self.in_service.append(end - sent)
            self.lags.append(sent - due)
            self.answers.append((bool(answer.get("ok")),
                                 answer.get("epoch", -1),
                                 answer.get("stream_position", -1)))
            k += 1


def session(spec, path: str) -> Dict[str, object]:
    """One service lifetime: build, start, drain under query load."""
    from repro.serve.service import SamplingService
    from repro.serve.source import FileTailSource

    def start():
        service = SamplingService(
            spec, source=FileTailSource(path, chunk_size=spec.chunk_size))
        service.start()
        service.wait_for_epoch(1)
        return service

    service, start_s = timed(start)
    client = Client(service, time.perf_counter())
    client.start()
    try:
        service.stop(drain=True)
    finally:
        drained = time.perf_counter()
        client.done.set()
        client.join()
    return {
        "start_s": start_s,
        "wall": drained - client.start_at,
        "final": service.query({"op": "estimates"}),
        "client": client,
        "stalls": service.stalls,
        "epochs": service.store.epoch,
    }


def ordered(answers: List[Tuple[bool, int, int]]) -> List[bool]:
    """Per answer: ok, and epoch and position never went backwards."""
    out, epoch, position = [], 0, 0
    for ok, e, p in answers:
        out.append(ok and e >= epoch and p >= position)
        epoch, position = max(epoch, e), max(position, p)
    return out


class TimedBlocks:
    """A block source behind the engine's ``chunks`` protocol, timing each
    block it produces as a ``serve.source.parse`` span."""

    def __init__(self, source, rec: SpanRecorder) -> None:
        self._source = source
        self._rec = rec

    def chunks(self, size: int):
        blocks = iter(self._source)
        while True:
            started = time.perf_counter()
            block = next(blocks, None)
            self._rec.add("serve.source.parse", started, time.perf_counter())
            if block is None:
                return
            yield block


def drive_alone(spec, path: str, rec: SpanRecorder):
    """The service's ingest path on one thread with no queries.

    Same method, budget, seeds, block source and per-block snapshot
    publication as the service; returns (edges, final estimates).
    """
    from repro.api.registry import get_method
    from repro.engine.stream_engine import StreamEngine
    from repro.serve.snapshot import SampleSnapshot, SnapshotStore
    from repro.serve.source import FileTailSource

    counter = get_method(spec.method).make(
        spec.budget, 0, spec.sampler_seed, core="compact")
    store = SnapshotStore()
    engine = StreamEngine(counter, chunk_size=spec.chunk_size)

    def publish(position: int) -> None:
        with rec.span("serve.snapshot.capture"):
            snapshot = SampleSnapshot.capture(counter, out=store.take_buffer())
            store.publish(snapshot)
        with rec.span("serve.snapshot.estimates"):
            snapshot.estimates()

    engine.on_chunk(publish)
    source = FileTailSource(path, chunk_size=spec.chunk_size)
    with rec.span("engine.stream_engine.drive"):
        stats = engine.run(TimedBlocks(source, rec))
    return stats.edges, SampleSnapshot.capture(counter).estimates()


def run(ctx: Context) -> Dict[str, float]:
    from repro.api import RunSpec, run as run_spec
    from repro.serve.spec import ServeSpec

    path = str(ctx.inputs["graph"])
    budget = 400 if ctx.smoke else BUDGET
    spec = ServeSpec(source=path, budget=budget, stream_seed=None)
    min_queries = 20 if ctx.smoke else 1000

    sessions: List[Dict[str, object]] = []
    deadline = time.perf_counter() + ctx.seconds
    queries = 0
    while not sessions or queries < min_queries or (
            time.perf_counter() < deadline):
        with ctx.speed.during():
            sessions.append(session(spec, path))
        queries += len(sessions[-1]["client"].latencies)
    rss = peak_rss_mb()

    batch = run_spec(RunSpec(source=path, method=spec.method, budget=budget,
                             stream_seed=None, sampler_seed=spec.sampler_seed))
    expected = batch.to_dict()["in_stream"]
    latencies, in_service, lags = [], [], []
    for s in sessions:
        client = s["client"]
        for good in ordered(client.answers):
            ctx.checks.op(good, "serve: answer not ok or went backwards")
        ctx.checks.op(s["final"].get("estimates") == expected,
                      "serve: drained estimates != batch run")
        latencies += client.latencies
        in_service += client.in_service
        lags += client.lags

    walls = [s["wall"] for s in sessions]
    # Ingest and start-up are CPU-bound and scaled like the batch
    # workloads' times; the query latency is set by the interpreter's
    # switch interval and the schedule more than by processor speed, and
    # stays raw.
    scale = ctx.speed.scale()
    out = {
        "edges_per_s": batch.edges * len(sessions) / (sum(walls) * scale),
        "peak_rss_mb": rss,
        "service_start_s": median([s["start_s"] for s in sessions]) * scale,
        **latency_metrics(latencies),
    }
    if ctx.trace:
        rec = SpanRecorder()
        (edges, alone), untraced = timed(
            lambda: drive_alone(spec, path, SpanRecorder(enabled=False)))
        rec.new_op()
        _, traced = timed(lambda: drive_alone(spec, path, rec))
        ctx.checks.op(alone == batch.in_stream,
                      "serve: drive without queries != batch run")
        out.update({
            "engine.stream_engine.drive_alone_edges_per_s": edges / untraced,
            "trace.overhead_s": traced - untraced,
            "engine.stream_engine.drive_s": median(
                rec.self_times("engine.stream_engine.drive")),
            "serve.source.parse_s": sum(rec.self_times("serve.source.parse")),
            "serve.snapshot.capture_ms_p50": 1e3 * median(
                rec.self_times("serve.snapshot.capture")),
            "serve.snapshot.estimates_ms_p50": 1e3 * median(
                rec.self_times("serve.snapshot.estimates")),
            "serve.service.stalls": median([s["stalls"] for s in sessions]),
            "serve.service.epochs": median([s["epochs"] for s in sessions]),
            "serve.service.query_service_ms_p50": 1e3 * median(in_service),
            "client.lag_ms_max": 1e3 * max(lags),
            "client.queries": float(len(latencies)),
            "client.late": float(sum(x * 1e3 > LATE_MS for x in latencies)),
        })
        rec.dump(ctx.work.parent / f"trace-serve-{ctx.seed}.jsonl")
    return out
