"""Pluggable edge sources for the live sampling service.

A source is an iterable of *blocks*.  Columnar sources yield
``(u_col, v_col)`` int32 array pairs — the input shape of the compact
core's vectorised admission gate — and declare ``columnar = True`` so
the service drives them through the chunked engine pipeline.  Block
sizes are a transport detail: the chunked pipeline is bit-identical
across block boundaries, so a socket source trickling 7-edge blocks
and a file source streaming 16384-edge blocks produce the same sample
under the same seeds.

Four shapes ship here, resolved from :class:`~repro.serve.spec.ServeSpec`
by :func:`make_source`:

* :class:`ResolvedSource` — a dataset-registry name or edge-list file,
  resolved and seed-permuted exactly like the batch executor, so the
  service's final answer is bit-identical to ``run()`` on the same spec
  fields.
* :class:`FileTailSource` — a file streamed lazily block-by-block; with
  ``follow=True`` it keeps polling for appended lines (``tail -f``) and
  survives log rotation and truncation by reopening the path.
* :class:`SyntheticSource` — a seeded uniform edge generator, the
  steady-state stream of the sustained-load benchmark.
* :class:`SocketLineSource` — a ``tcp://host:port`` line protocol
  (``u v`` per line), for live feeds.  With a
  retry budget it is *supervised*: a dropped connection reconnects
  under capped exponential backoff with seeded jitter, and — because
  the reference feed shape replays from the start of the stream — the
  source skips the edges it already delivered, so the downstream
  sampler never sees a duplicate or a gap.

The text sources (a followed file, a socket) turn lines into blocks
with one parser, :func:`parse_edge_lines`.  It reads each line by
:func:`repro.graph.io.edge_tokens`, the line rule of the batch file
reader: ``#``/``%``/``//`` comments, blank and one-token lines are
skipped.  A malformed line (a non-integer id, or one outside int32) is
skipped too and counted in the source's ``skipped_lines``, so one bad
line of a live feed never stops the pump.

Every source accepts an optional :class:`~repro.faults.FaultInjector`
and consults it per raw block, which is how the chaos suite provokes
disconnects and stalls deterministically (see :mod:`repro.faults`).
"""

from __future__ import annotations

import os
import random
import threading
import time
from itertools import islice
from typing import IO, Any, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.faults.backoff import backoff_delay
from repro.faults.injector import FaultInjector, inject_source_faults
from repro.graph.io import edge_tokens
from repro.serve.spec import SYNTHETIC_SOURCE, TCP_PREFIX, ServeSpec
from repro.streams.chunks import DEFAULT_CHUNK_SIZE
from repro.streams.interner import NodeInterner

#: One columnar ingestion block.
Block = Tuple[np.ndarray, np.ndarray]

#: Injection site label shared by every serve-layer source.
SOURCE_SITE = "serve-source"

_INT32 = np.iinfo(np.int32)


def parse_edge_lines(lines: Iterable[str]) -> Tuple[Block, int]:
    """The edges of ``lines`` as one int32 block, plus the bad-line count.

    Lines follow :func:`repro.graph.io.edge_tokens`; comments, blank
    and one-token lines are not edges and are not counted.  A line
    whose first two tokens are not integers, or do not fit int32, is
    skipped and counted instead of raising.

    >>> (us, vs), bad = parse_edge_lines(["0 1", "# note", "x y", "1 2"])
    >>> us.tolist(), vs.tolist(), bad
    ([0, 1], [1, 2], 1)
    """
    us: List[int] = []
    vs: List[int] = []
    bad = 0
    for line in lines:
        tokens = edge_tokens(line)
        if tokens is None:
            continue
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            bad += 1
            continue
        if not (_INT32.min <= min(u, v) and max(u, v) <= _INT32.max):
            bad += 1
            continue
        us.append(u)
        vs.append(v)
    block = (np.asarray(us, dtype=np.int32), np.asarray(vs, dtype=np.int32))
    return block, bad


def _limit_blocks(
    blocks: Iterator[Block], max_edges: Optional[int]
) -> Iterator[Block]:
    """Truncate a block iterator to ``max_edges`` total edges."""
    if max_edges is None:
        yield from blocks
        return
    remaining = max_edges
    for us, vs in blocks:
        if remaining <= 0:
            return
        if len(us) > remaining:
            yield us[:remaining], vs[:remaining]
            return
        remaining -= len(us)
        yield us, vs


def _with_faults(
    blocks: Iterator[Block],
    injector: Optional[FaultInjector],
    poll_interval: float,
) -> Iterator[Block]:
    """Thread a source's raw blocks through the fault injector, if any."""
    if injector is None:
        return blocks
    return inject_source_faults(
        blocks, injector, SOURCE_SITE, poll_interval=poll_interval
    )


class SyntheticSource:
    """Seeded uniform edge blocks over ``nodes`` int labels.

    Deterministic in ``(seed, chunk_size, nodes)``: block *k* is always
    the same int32 column pair, so two services over the same spec see
    the same stream.  Unbounded unless ``max_edges`` caps it — the
    shape of the paper's "unbounded stream" setting and the
    steady-state load generator of ``bench serve``.
    """

    columnar = True

    def __init__(
        self,
        nodes: int,
        seed: Optional[int],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_edges: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if nodes < 2:
            raise ValueError("nodes must be at least 2")
        self.bounded = max_edges is not None
        self._nodes = nodes
        self._seed = 0 if seed is None else seed
        self._chunk_size = chunk_size
        self._max_edges = max_edges
        self._faults = faults

    def _blocks(self) -> Iterator[Block]:
        rng = np.random.RandomState(self._seed)
        size = self._chunk_size
        nodes = self._nodes
        while True:
            us = rng.randint(0, nodes, size=size).astype(np.int32)
            vs = rng.randint(0, nodes, size=size).astype(np.int32)
            yield us, vs

    def __iter__(self) -> Iterator[Block]:
        return _limit_blocks(
            _with_faults(self._blocks(), self._faults, 0.01),
            self._max_edges,
        )


class ResolvedSource:
    """The batch executor's edge population, streamed as blocks.

    Resolution and permutation defer to the same helpers the batch
    ``run()`` path uses, so a service over a finite resolved source
    ends in exactly the arrival order a :class:`~repro.api.RunSpec`
    with the same ``source``/``stream_seed`` would replay.  A
    population with labels outside int32 (say a file holding id 2**31)
    is interned to dense ids in arrival order; :attr:`interner` then
    maps them back, so answers can speak in the file's labels.
    """

    columnar = True
    bounded = True

    def __init__(
        self,
        source: str,
        stream_seed: Optional[int],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_edges: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self._source = source
        self._stream_seed = stream_seed
        self._chunk_size = chunk_size
        self._max_edges = max_edges
        self._faults = faults
        #: Dense id ↔ label map of an interned population, else None.
        self.interner: Optional[NodeInterner] = None

    def __iter__(self) -> Iterator[Block]:
        # Lazy import: execution pulls the dataset registry.
        from repro.api.execution import _resolve_edges

        stream = _resolve_edges(self._source, None).permuted(
            self._stream_seed
        )
        if stream.columnar() is None and self.interner is None:
            # Kept across passes: a restarted pump re-interns the same
            # arrival order, which hands out the same ids again.
            self.interner = NodeInterner()
        blocks = stream.chunks(self._chunk_size, self.interner)
        return _limit_blocks(
            _with_faults(blocks, self._faults, 0.01), self._max_edges
        )


class FileTailSource:
    """Lazy block reads from an edge-list file, optionally following.

    Without ``follow`` this is a lazy pass over the file (arrival order
    = file order, matching ``stream_seed=None`` batch semantics).  With
    ``follow`` the source polls for appended complete lines after
    end-of-file until :meth:`stop` is called — the live-tail shape for
    services fed by log shippers.

    A followed file survives the two mutations log shippers perform:

    * **rotation** — the path now names a different inode (the old file
      was renamed away and a fresh one created); the source reopens the
      path and reads the new file from its start;
    * **truncation** — same inode, but the on-disk size fell below the
      read position (copytruncate rotation); the source reopens and
      re-reads from offset zero, which is exactly the writer's restart.

    Either reopen increments :attr:`rotations` and clears the carried
    partial line — a torn tail of the old file is not data.  Malformed
    lines are skipped and counted in :attr:`skipped_lines`.
    """

    columnar = True

    def __init__(
        self,
        path: str,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_edges: Optional[int] = None,
        follow: bool = False,
        poll_interval: float = 0.05,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.bounded = not follow
        self._path = path
        self._chunk_size = chunk_size
        self._max_edges = max_edges
        self._follow = follow
        self._poll = poll_interval
        self._stop = threading.Event()
        self._faults = faults
        #: Times the followed file was reopened after rotation/truncation.
        self.rotations = 0
        #: Malformed lines skipped (see :func:`parse_edge_lines`).
        self.skipped_lines = 0

    def stop(self) -> None:
        """End a ``follow`` pass at the next poll."""
        self._stop.set()

    def _parse(self, lines: List[str]) -> Optional[Block]:
        block, bad = parse_edge_lines(lines)
        self.skipped_lines += bad
        return block if len(block[0]) else None

    def _reopen_if_rotated(self, handle: IO[str]) -> Tuple[IO[str], bool]:
        """Detect rotation/truncation of the followed path.

        Returns ``(handle, reopened)``; on a reopen the returned handle
        reads the current file from offset zero.  A transiently missing
        path (mid-rotation gap) is not an error — the next poll retries.
        """
        try:
            disk = os.stat(self._path)
        except OSError:
            return handle, False
        here = os.fstat(handle.fileno())
        if disk.st_ino == here.st_ino and disk.st_size >= handle.tell():
            return handle, False
        handle.close()
        self.rotations += 1
        return open(self._path, "r", encoding="utf-8"), True

    def _blocks(self) -> Iterator[Block]:
        if not self._follow:
            from repro.graph.io import iter_edge_chunks

            yield from iter_edge_chunks(self._path, self._chunk_size)
            return
        handle = open(self._path, "r", encoding="utf-8")
        try:
            pending: List[str] = []
            carry = ""
            while not self._stop.is_set():
                text = handle.read()
                if text:
                    lines = (carry + text).split("\n")
                    carry = lines.pop()  # tail without newline yet
                    pending.extend(lines)
                    while len(pending) >= self._chunk_size:
                        block = self._parse(pending[: self._chunk_size])
                        del pending[: self._chunk_size]
                        if block is not None:
                            yield block
                    continue
                # Quiet file: flush what we have, then poll.
                if pending:
                    block = self._parse(pending)
                    pending = []
                    if block is not None:
                        yield block
                handle, reopened = self._reopen_if_rotated(handle)
                if reopened:
                    carry = ""
                    continue
                self._stop.wait(self._poll)
            if pending:
                block = self._parse(pending)
                if block is not None:
                    yield block
        finally:
            handle.close()

    def __iter__(self) -> Iterator[Block]:
        return _limit_blocks(
            _with_faults(self._blocks(), self._faults, self._poll),
            self._max_edges,
        )


class SocketLineSource:
    """Edges from a ``tcp://host:port`` line feed (``u v`` per line).

    With ``retries=0`` (default) any connection error propagates — the
    historical fail-fast shape.  With a budget the source supervises
    itself: on ``ConnectionError``/``OSError`` it sleeps a capped
    exponential backoff (jitter from a seeded ``random.Random``, so two
    services with the same spec retry on the same schedule) and
    reconnects.  The reference feed replays the stream from its start
    on a new connection, so the source counts edges as it *delivers*
    them and skips exactly that many on reconnect — downstream sees one
    gapless, duplicate-free stream and the final sample stays
    bit-identical to the fault-free run.  A clean end-of-stream (the
    feeder closed after finishing) is a natural end, never retried.
    Delivered progress resets the consecutive-failure counter, so the
    budget bounds each failure *burst* rather than the stream lifetime.
    Malformed lines are skipped and counted in :attr:`skipped_lines`
    apart from the delivered edges, so they never shift the replay
    skip, and a replayed bad line is not counted twice.
    """

    columnar = True
    bounded = False

    def __init__(
        self,
        address: str,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_edges: Optional[int] = None,
        retries: int = 0,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        jitter_seed: int = 0,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if not address.startswith(TCP_PREFIX):
            raise ValueError(f"socket source needs a {TCP_PREFIX} address")
        rest = address[len(TCP_PREFIX):]
        host, _, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"malformed socket address {address!r}; expected "
                f"{TCP_PREFIX}host:port"
            )
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self._host = host
        self._port = int(port)
        self._chunk_size = chunk_size
        self._max_edges = max_edges
        self._retries = retries
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._jitter_seed = jitter_seed
        self._faults = faults
        self._stop = threading.Event()
        #: Successful reconnections after a dropped connection.
        self.reconnects = 0
        #: Malformed lines skipped (see :func:`parse_edge_lines`).
        self.skipped_lines = 0
        #: ``"idle" | "streaming" | "retrying" | "closed" | "failed"``.
        self.state = "idle"

    def stop(self) -> None:
        """Abandon any backoff wait and end the stream."""
        self._stop.set()

    def _connection_blocks(self, skip_edges: int) -> Iterator[Block]:
        """Blocks from one connection, dropping ``skip_edges`` already-
        delivered leading edges (replay-from-start feed semantics)."""
        import socket

        remaining = skip_edges
        bad_seen = 0
        with socket.create_connection((self._host, self._port)) as conn:
            with conn.makefile("r", encoding="utf-8") as handle:
                while True:
                    lines = list(islice(handle, self._chunk_size))
                    if not lines:
                        return
                    (us, vs), bad = parse_edge_lines(lines)
                    # Every connection replays the same lines, so the
                    # most bad lines any connection has seen is the count.
                    bad_seen += bad
                    self.skipped_lines = max(self.skipped_lines, bad_seen)
                    drop = min(remaining, len(us))
                    remaining -= drop
                    if drop < len(us):
                        yield us[drop:], vs[drop:]

    def _blocks(self) -> Iterator[Block]:
        rng = random.Random(self._jitter_seed)
        delivered_edges = 0
        delivered_blocks = 0
        failures = 0
        while True:
            try:
                for us, vs in self._connection_blocks(delivered_edges):
                    if self._faults is not None:
                        polls = self._faults.stall_polls(
                            SOURCE_SITE, delivered_blocks
                        )
                        if polls:
                            time.sleep(polls * 0.01)
                        if self._faults.source_fault(
                            SOURCE_SITE, delivered_blocks
                        ):
                            raise ConnectionError(
                                f"injected disconnect at {SOURCE_SITE} "
                                f"block {delivered_blocks}"
                            )
                    self.state = "streaming"
                    yield us, vs
                    delivered_edges += len(us)
                    delivered_blocks += 1
                    failures = 0
                self.state = "closed"
                return
            except (ConnectionError, OSError):
                if self._stop.is_set() or failures >= self._retries:
                    self.state = "failed"
                    raise
                failures += 1
                self.state = "retrying"
                delay = backoff_delay(
                    failures - 1,
                    base=self._backoff,
                    cap=self._backoff_cap,
                    rng=rng,
                )
                if self._stop.wait(delay):
                    self.state = "closed"
                    return
                self.reconnects += 1

    def __iter__(self) -> Iterator[Block]:
        return _limit_blocks(self._blocks(), self._max_edges)


def make_source(
    spec: ServeSpec, faults: Optional[FaultInjector] = None
) -> Any:
    """Resolve a spec's ``source`` field to a block source.

    ``faults`` threads a deterministic injector through to the source's
    per-block hook; production callers leave it ``None``.
    """
    if spec.source == SYNTHETIC_SOURCE:
        return SyntheticSource(
            spec.nodes,
            spec.stream_seed,
            chunk_size=spec.chunk_size,
            max_edges=spec.max_edges,
            faults=faults,
        )
    if spec.source.startswith(TCP_PREFIX):
        return SocketLineSource(
            spec.source,
            chunk_size=spec.chunk_size,
            max_edges=spec.max_edges,
            retries=spec.source_retries,
            backoff=spec.retry_backoff,
            backoff_cap=spec.retry_backoff_cap,
            jitter_seed=spec.sampler_seed,
            faults=faults,
        )
    if spec.follow:
        return FileTailSource(
            spec.source,
            chunk_size=spec.chunk_size,
            max_edges=spec.max_edges,
            follow=True,
            poll_interval=spec.poll_interval,
            faults=faults,
        )
    return ResolvedSource(
        spec.source,
        spec.stream_seed,
        chunk_size=spec.chunk_size,
        max_edges=spec.max_edges,
        faults=faults,
    )


__all__ = [
    "Block",
    "SOURCE_SITE",
    "parse_edge_lines",
    "SyntheticSource",
    "ResolvedSource",
    "FileTailSource",
    "SocketLineSource",
    "make_source",
]
