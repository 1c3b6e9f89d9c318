"""Chaos acceptance suite: bit-identity under injected faults.

Every test runs one of the four execution surfaces (replicated run,
sweep grid, sharded replicated run, live serve session) twice — once fault-free
and once under a deterministic :class:`~repro.faults.FaultPlan` — and
asserts that the faulted run (a) actually exercised the recovery path
(retry/reconnect/quarantine counters > 0) and (b) produced estimates
**bit-identical** to the fault-free oracle.  That equality is the
whole point of the retry design: tasks and streams are pure functions
of their seeds, so a resubmitted task or a replayed source recomputes
the exact same numbers.  The sweep is also SIGKILLed for real, as a
``python -m repro sweep`` subprocess, and resumed with ``--resume``
semantics to the same numbers.

These tests spin real process pools and TCP servers, so they are
deselected from tier-1 (``addopts`` excludes ``-m chaos``) and run in
their own CI job::

    python -m pytest -m chaos
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from random import Random

import pytest

import repro
from repro.api.execution import run
from repro.api.ground_truth import ContentAddressedStore
from repro.api.spec import RunSpec
from repro.api.sweep import SweepSpec, run_sweep
from repro.faults import FaultPlan, FaultSpec
from repro.graph.generators import powerlaw_cluster
from repro.graph.io import write_edge_list
from repro.serve import SamplingService, ServeSpec
from repro.streams.stream import EdgeStream

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(250, 3, 0.5, seed=9)


@pytest.fixture(scope="module")
def edge_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "graph.txt"
    write_edge_list(graph, path)
    return str(path)


# ----------------------------------------------------------------------
# Replicated run: a crashed pool worker is retried bit-identically
# ----------------------------------------------------------------------
class TestReplicationChaos:
    def test_worker_crash_bit_identical(self, edge_file):
        base = RunSpec(
            source=edge_file, method="gps", budget=100, replications=4,
            stream_seed=3, sampler_seed=30,
        )
        oracle = run(base.replace(workers=0))
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="crash-worker", site="replication", at=1),
            )
        )
        crashed = run(base.replace(workers=2), faults=plan)
        assert crashed.task_retries > 0
        assert crashed.pool_rebuilds > 0
        assert crashed.estimates == oracle.estimates
        assert set(crashed.metrics) == set(oracle.metrics)
        for name, summary in oracle.metrics.items():
            assert crashed.metrics[name] == summary

    def test_raised_task_bit_identical(self, edge_file):
        base = RunSpec(
            source=edge_file, method="gps", budget=100, replications=3,
            stream_seed=4, sampler_seed=40,
        )
        oracle = run(base.replace(workers=0))
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="raise-task", site="replication", at=0),
                FaultSpec(kind="raise-task", site="replication", at=2),
            )
        )
        flaky = run(base.replace(workers=2), faults=plan)
        assert flaky.task_retries >= 2
        assert flaky.pool_rebuilds == 0  # raise kills the task, not the pool
        assert flaky.estimates == oracle.estimates


# ----------------------------------------------------------------------
# Sweep grid: pooled crash, then resume over a corrupted cell cache
# ----------------------------------------------------------------------
class TestSweepChaos:
    @pytest.fixture(scope="class")
    def spec(self, edge_file):
        # 1 source x 2 methods x 2 budgets = the 4-cell grid.
        return SweepSpec(
            sources=(edge_file,),
            methods=("triest", "gps-in-stream"),
            budgets=(80, 120),
            runs=2,
            base_stream_seed=3,
            base_sampler_seed=30,
            workers=2,
        )

    @staticmethod
    def _assert_cells_identical(report, oracle):
        assert len(report.cells) == len(oracle.cells) == 4
        for cell, truth in zip(report.cells, oracle.cells):
            assert cell.key == truth.key
            assert cell.metrics == truth.metrics
            assert cell.triangles == truth.triangles
            assert cell.relative_error == truth.relative_error
            assert [r.estimates for r in cell.reports] == [
                r.estimates for r in truth.reports
            ]

    def test_crash_then_corrupted_resume(self, spec, tmp_path):
        oracle = run_sweep(spec.replace(workers=0))

        # Leg 1: pooled execution with a worker crash mid-grid.
        plan = FaultPlan(
            faults=(FaultSpec(kind="crash-worker", site="sweep", at=1),)
        )
        crashed = run_sweep(spec, cache_dir=tmp_path, faults=plan)
        assert crashed.task_retries > 0
        assert crashed.pool_rebuilds > 0
        self._assert_cells_identical(crashed, oracle)

        # Leg 2: resume over the populated cache with one entry mangled
        # — the store quarantines it and the grid recounts that cell.
        corrupt = FaultPlan(
            faults=(
                FaultSpec(kind="corrupt-cache", site="sweep-cache", at=2),
            )
        )
        resumed = run_sweep(
            spec, cache_dir=tmp_path, resume=True, faults=corrupt
        )
        assert resumed.cache_quarantined >= 1
        assert resumed.cell_cache_misses >= 1  # the recount
        assert resumed.cell_cache_hits >= 1  # intact entries replayed
        self._assert_cells_identical(resumed, oracle)


# ----------------------------------------------------------------------
# Killed sweep: finished replications survive a SIGKILL and resume
# ----------------------------------------------------------------------
# Each wrapper runs the real CLI and SIGKILLs its own process from a
# patched function, so the kill point is exact without any sleep.
_KILL_INSIDE_TASK = """
import os, signal, sys
from repro.api import execution
from repro.cli import main

k = int(sys.argv[1])
task, calls = execution._run_task, []

def dying_task(*args):
    calls.append(None)
    if len(calls) == k + 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return task(*args)

execution._run_task = dying_task
sys.exit(main(sys.argv[2:]))
"""

_KILL_AT_FIRST_CELL_WRITE = """
import json, multiprocessing, os, signal, sys
from repro.api.ground_truth import ContentAddressedStore
from repro.cli import main

pid_file = sys.argv[1]
write = ContentAddressedStore.write

def dying_write(self, key, data):
    if self.root is None or self.root.name != "cells":
        return write(self, key, data)
    with open(pid_file, "w") as handle:
        json.dump([p.pid for p in multiprocessing.active_children()], handle)
    write(self, key, data)
    os.kill(os.getpid(), signal.SIGKILL)

ContentAddressedStore.write = dying_write
sys.exit(main(sys.argv[2:]))
"""


def _killed_sweep(wrapper, args, spec, cache):
    """Run ``repro sweep --spec`` under ``wrapper``; it must die by SIGKILL."""
    spec_file = cache.parent / "spec.json"
    spec_file.write_text(spec.to_json())
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    # Output goes to a file, not a pipe: an orphaned worker holding a
    # pipe open would block this call long after the parent died.
    log = cache.parent / "sweep.log"
    with log.open("w") as handle:
        done = subprocess.run(
            [sys.executable, "-c", wrapper, *args, "sweep", "--spec",
             str(spec_file), "--cache", str(cache)],
            env=env, stdout=handle, stderr=handle, timeout=120,
        )
    assert done.returncode == -signal.SIGKILL, log.read_text()


def _running(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _shm_segments():
    return {path.name for path in Path("/dev/shm").glob("psm_*")}


def _wait_until(condition, timeout):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class TestKilledSweepResumes:
    @pytest.fixture(scope="class")
    def spec(self, edge_file):
        # 2 methods x 2 budgets x 3 runs = 12 replications.
        return SweepSpec(
            sources=(edge_file,),
            methods=("triest", "gps-in-stream"),
            budgets=(80, 120),
            runs=3,
            base_stream_seed=3,
            base_sampler_seed=30,
            workers=0,
        )

    @pytest.fixture(scope="class")
    def oracle(self, spec):
        return run_sweep(spec)

    @staticmethod
    def _resume_matches_oracle(spec, cache, oracle, present):
        resumed = run_sweep(spec, cache_dir=cache, resume=True)
        assert resumed.cell_cache_hits == present
        assert resumed.cell_cache_misses == 12 - present
        assert len(resumed.cells) == len(oracle.cells)
        for cell, truth in zip(resumed.cells, oracle.cells):
            assert cell.key == truth.key
            assert cell.metrics == truth.metrics
            assert cell.triangles == truth.triangles
            assert cell.relative_error == truth.relative_error
            assert [r.estimates for r in cell.reports] == [
                r.estimates for r in truth.reports
            ]

    def test_inline_kill_keeps_finished_replications(
        self, spec, oracle, tmp_path
    ):
        cache = tmp_path / "cache"
        k = 7
        _killed_sweep(_KILL_INSIDE_TASK, [str(k)], spec, cache)
        assert len(ContentAddressedStore(cache / "cells").entries()) == k
        self._resume_matches_oracle(spec, cache, oracle, present=k)

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(),
        reason="tells a live worker from a zombie through procfs",
    )
    def test_pooled_parent_kill_leaves_no_orphans(
        self, spec, oracle, tmp_path
    ):
        cache = tmp_path / "cache"
        pid_file = tmp_path / "pids.json"
        segments = _shm_segments()
        _killed_sweep(
            _KILL_AT_FIRST_CELL_WRITE, [str(pid_file)],
            spec.replace(workers=2), cache,
        )
        pids = json.loads(pid_file.read_text())
        assert len(pids) >= 2
        _wait_until(lambda: not any(map(_running, pids)), timeout=10)
        orphans = [pid for pid in pids if _running(pid)]
        for pid in orphans:  # never leak them past a failure
            os.kill(pid, signal.SIGKILL)
        assert orphans == []
        # The resource tracker outlives the workers and unlinks the
        # segment the dead parent published.
        assert _wait_until(
            lambda: not _shm_segments() - segments, timeout=10
        ), _shm_segments() - segments
        assert len(ContentAddressedStore(cache / "cells").entries()) == 1
        self._resume_matches_oracle(spec, cache, oracle, present=1)


# ----------------------------------------------------------------------
# Sharded run: a crashed task of a replicated 4-shard study is retried
# ----------------------------------------------------------------------
class TestShardChaos:
    def test_shard_crash_bit_identical(self, graph):
        edges = EdgeStream.canonical_edges(graph)
        spec = RunSpec(
            source="<g>", method="gps-post", weight="uniform", budget=400,
            shards=4, replications=4, stream_seed=2, sampler_seed=20,
        )
        oracle = run(spec.replace(workers=0), graph=edges)
        plan = FaultPlan(
            faults=(FaultSpec(kind="crash-worker", site="replication", at=2),)
        )
        crashed = run(spec.replace(workers=2), graph=edges, faults=plan)
        assert crashed.task_retries > 0
        assert crashed.pool_rebuilds > 0
        assert crashed.estimates == oracle.estimates
        assert crashed.metrics == oracle.metrics


# ----------------------------------------------------------------------
# Live serve: a reset TCP source reconnects and replays bit-identically
# ----------------------------------------------------------------------
def _stream_edges(n: int, nodes: int, seed: int):
    rng = Random(seed)
    seen = set()
    edges = []
    while len(edges) < n:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        edges.append((u, v))
    return edges


def _feeder(server: socket.socket, edges, drop_after=None) -> None:
    """Serve ``edges`` to every connection; reset (RST) the *first*
    connection after ``drop_after`` lines to simulate an abrupt drop.
    Each connection replays from the start — the source's replay-skip
    must turn that into a gapless resume."""
    first = [True]

    def run() -> None:
        while True:
            try:
                conn, _ = server.accept()
            except OSError:
                return
            limit = drop_after if (first[0] and drop_after) else None
            first[0] = False
            try:
                handle = conn.makefile("w")
                sent = 0
                for u, v in edges:
                    if limit is not None and sent >= limit:
                        break
                    handle.write(f"{u} {v}\n")
                    sent += 1
                handle.flush()
                if limit is not None and sent >= limit:
                    # RST on close: an abrupt drop, not a clean EOF.
                    conn.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                handle.close()
                conn.close()
            except OSError:
                pass

    threading.Thread(target=run, daemon=True).start()


def _run_session(spec: ServeSpec, want: int):
    service = SamplingService(spec)
    service.start()
    deadline = time.time() + 30
    while time.time() < deadline:
        if service.status()["stream_position"] >= want:
            break
        if not service.running:
            break
        time.sleep(0.02)
    service.stop(drain=True)
    return service, service.latest()


class TestServeChaos:
    def test_socket_reset_bit_identical(self):
        edges = _stream_edges(1500, nodes=300, seed=42)

        clean_srv = socket.create_server(("127.0.0.1", 0))
        _feeder(clean_srv, edges)
        faulty_srv = socket.create_server(("127.0.0.1", 0))
        _feeder(faulty_srv, edges, drop_after=500)
        try:
            base = dict(
                budget=200, chunk_size=128, max_edges=len(edges),
                sampler_seed=7,
            )
            clean_spec = ServeSpec(
                source=f"tcp://127.0.0.1:{clean_srv.getsockname()[1]}",
                **base,
            )
            faulty_spec = ServeSpec(
                source=f"tcp://127.0.0.1:{faulty_srv.getsockname()[1]}",
                source_retries=3, retry_backoff=0.01,
                retry_backoff_cap=0.05, **base,
            )
            _, oracle = _run_session(clean_spec, want=len(edges))
            service, snap = _run_session(faulty_spec, want=len(edges))
        finally:
            clean_srv.close()
            faulty_srv.close()

        resilience = service.status()["resilience"]
        assert resilience["source_reconnects"] >= 1
        assert resilience["degraded"] is False
        assert snap.stream_position == oracle.stream_position == len(edges)
        assert snap.estimates() == oracle.estimates()
