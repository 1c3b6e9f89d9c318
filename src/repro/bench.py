"""``python -m repro bench`` — the one way BENCH_*.json files are made.

Five targets, one JSON envelope::

    python -m repro bench engine       # → BENCH_engine.json
    python -m repro bench replication  # → BENCH_replication.json
    python -m repro bench sweep        # → BENCH_sweep.json
    python -m repro bench serve        # → BENCH_serve.json
    python -m repro bench shard        # → BENCH_shard.json

Every payload carries the same envelope — ``benchmark``, ``mode``
(``full``/``quick``), ``generated_by``, ``python``, ``params``,
``results`` — so the perf trajectory across PRs stays machine-diffable.
``--quick`` shrinks each target to CI-smoke size (same schema).

* **engine** measures the GPS sampler update loop: compact core vs the
  object reference core, uniform and triangle weights, best-of-N
  repeats with the GC collected between runs (allocation pressure from
  a previous measurement otherwise taxes the next one).  The two cores
  are asserted bit-identical under a shared seed before timing counts.
  A second ladder measures the **chunked pipeline** (columnar blocks
  through the vectorised uniform-weight admission gate) against the
  scalar compact and object cores over a chunk-size axis, on a
  steady-state stream (budget ≪ stream length — the regime GPS runs in
  and the gate targets) *and* on the legacy admit-heavy envelope, with
  the same shared-seed identity assert.
* **replication** times a replicated ``run(spec)`` (gps-post, 4
  replications, uniform and triangle weights) inline against the
  executor's 2-worker pool on the same graph, best of 3 alternating
  repeats, asserting the two bit-identical.
* **sweep** measures the grid layer: a cold sweep into a fresh cache
  versus the same sweep resumed from it (ground truth and cell reports
  replayed, no recount).
* **serve** measures the live service: sustained ingestion over the
  steady-state uniform synthetic stream against a ladder of concurrent
  query-reader threads (queries/sec × edges/sec, per-query latency),
  with the final served estimates asserted bit-identical to a batch
  pass over the same stream.
* **shard** measures sharded GPS over the steady-state ladder: every
  shard's substream is driven *independently* (each shard is its own
  sampler over its own router partition, exactly what one host of an
  S-host fleet would run) and the fleet throughput is the full stream
  over the slowest shard's wall clock — the parallel capacity the
  seeded edge-hash router unlocks.  The single-process inline wall
  clock is recorded alongside, so a one-core box's numbers stay
  honest.  A second section replicates merged vs single-sampler
  estimates at equal *total* budget against exact triangle counts
  (relative error of the mean, per shard count).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

TARGETS = ("engine", "replication", "sweep", "serve", "shard")

DEFAULT_OUTPUTS = {
    "engine": "BENCH_engine.json",
    "replication": "BENCH_replication.json",
    "sweep": "BENCH_sweep.json",
    "serve": "BENCH_serve.json",
    "shard": "BENCH_shard.json",
}


def _envelope(target: str, quick: bool, params: Dict, results: Dict) -> Dict:
    return {
        "benchmark": target,
        "mode": "quick" if quick else "full",
        "generated_by": f"python -m repro bench {target}",
        "python": platform.python_version(),
        "params": params,
        "results": results,
    }


def _bench_stream(quick: bool):
    """The shared benchmark stream: a heavy-tailed Chung–Lu graph."""
    from repro.graph.generators import chung_lu
    from repro.streams.stream import EdgeStream

    if quick:
        graph = chung_lu(2_000, 10_000, exponent=2.3, seed=42)
        capacity = 1_000
    else:
        graph = chung_lu(10_000, 50_000, exponent=2.3, seed=42)
        capacity = 4_000
    return list(EdgeStream.from_graph(graph, seed=0)), capacity


def _best_rate(
    make_counter: Callable[[], object],
    edges: Sequence[Tuple[int, int]],
    repeats: int,
) -> float:
    """Best-of-``repeats`` edges/sec, GC-collected between runs."""
    best = 0.0
    for _ in range(repeats):
        gc.collect()
        counter = make_counter()
        started = time.perf_counter()
        counter.process_many(edges)
        elapsed = time.perf_counter() - started
        best = max(best, len(edges) / elapsed)
        del counter
    return best


def _best_chunked_rate(
    make_counter: Callable[[], object],
    columns,
    chunk_size: int,
    repeats: int,
) -> float:
    """Best-of-``repeats`` edges/sec through ``process_chunk`` blocks."""
    u, v = columns
    n = len(u)
    best = 0.0
    for _ in range(repeats):
        gc.collect()
        counter = make_counter()
        process_chunk = counter.process_chunk
        started = time.perf_counter()
        for at in range(0, n, chunk_size):
            process_chunk(u[at:at + chunk_size], v[at:at + chunk_size])
        elapsed = time.perf_counter() - started
        best = max(best, n / elapsed)
        del counter
    return best


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def bench_engine(quick: bool, repeats: Optional[int] = None) -> Dict:
    """Compact vs object GPS core throughput (uniform + triangle)."""
    from repro.core.compact import CompactGraphPrioritySampler
    from repro.core.priority_sampler import GraphPrioritySampler
    from repro.core.weights import TriangleWeight, UniformWeight

    edges, capacity = _bench_stream(quick)
    repeats = repeats if repeats is not None else (1 if quick else 3)

    # Shared-seed identity first: the comparison is meaningless unless
    # both cores select the very same sample.
    compact = CompactGraphPrioritySampler(
        capacity, weight_fn=TriangleWeight(), seed=11
    )
    reference = GraphPrioritySampler(
        capacity, weight_fn=TriangleWeight(), seed=11
    )
    compact.process_many(edges)
    reference.process_many(edges)
    assert compact.threshold == reference.threshold
    assert (
        compact.normalized_probabilities()
        == reference.normalized_probabilities()
    )
    del compact, reference

    results: Dict[str, Dict[str, float]] = {}
    for name, weight_cls in (("uniform", UniformWeight),
                             ("triangle", TriangleWeight)):
        fast = _best_rate(
            lambda: CompactGraphPrioritySampler(
                capacity, weight_fn=weight_cls(), seed=7
            ),
            edges, repeats,
        )
        slow = _best_rate(
            lambda: GraphPrioritySampler(
                capacity, weight_fn=weight_cls(), seed=7
            ),
            edges, repeats,
        )
        results[name] = {
            "compact_edges_per_sec": round(fast, 1),
            "object_edges_per_sec": round(slow, 1),
            "speedup": round(fast / slow, 3),
        }
        print(
            f"{name:<9} compact {fast:>12,.0f} e/s   "
            f"object {slow:>12,.0f} e/s   speedup {fast / slow:.2f}x"
        )
    results["chunked_uniform"] = _bench_chunked(quick, repeats)
    return _envelope(
        "engine", quick,
        params={"stream_edges": len(edges), "capacity": capacity,
                "repeats": repeats},
        results=results,
    )


def _bench_chunked(quick: bool, repeats: int) -> Dict:
    """The chunked-pipeline ladder: chunked vs compact vs object.

    Measured on two uniform-weight workloads: the *steady-state* regime
    (budget ≪ stream length, where arrivals are overwhelmingly
    rejections — the population the vectorised gate screens out in bulk)
    and the legacy admit-heavy envelope the historical compact/object
    numbers use, so both ends of the admission-rate spectrum stay on
    record.  Chunked results are asserted bit-identical to the scalar
    compact core under the shared seed before timing counts.
    """
    from repro.core.compact import CompactGraphPrioritySampler
    from repro.core.priority_sampler import GraphPrioritySampler
    from repro.core.weights import UniformWeight
    from repro.graph.generators import chung_lu
    from repro.streams.chunks import DEFAULT_CHUNK_SIZE
    from repro.streams.stream import EdgeStream

    if quick:
        regimes = [("steady_state", chung_lu(8_000, 40_000, exponent=2.3,
                                             seed=43), 1_000)]
        chunk_sizes = [DEFAULT_CHUNK_SIZE]
    else:
        regimes = [
            ("steady_state", chung_lu(40_000, 200_000, exponent=2.3,
                                      seed=43), 4_000),
            ("admit_heavy", chung_lu(10_000, 50_000, exponent=2.3,
                                     seed=42), 4_000),
        ]
        chunk_sizes = [4096, 8192, DEFAULT_CHUNK_SIZE, 32768]

    out: Dict[str, Dict] = {}
    for regime, graph, capacity in regimes:
        stream = EdgeStream.from_graph(graph, seed=0)
        edges = list(stream)
        columns = stream.columnar()

        scalar = CompactGraphPrioritySampler(
            capacity, weight_fn=UniformWeight(), seed=11
        )
        scalar.process_many(edges)
        chunked = CompactGraphPrioritySampler(
            capacity, weight_fn=UniformWeight(), seed=11
        )
        for at in range(0, len(edges), DEFAULT_CHUNK_SIZE):
            chunked.process_chunk(columns[0][at:at + DEFAULT_CHUNK_SIZE],
                                  columns[1][at:at + DEFAULT_CHUNK_SIZE])
        assert chunked.threshold == scalar.threshold
        assert (
            chunked.normalized_probabilities()
            == scalar.normalized_probabilities()
        )
        del scalar, chunked

        compact_rate = _best_rate(
            lambda: CompactGraphPrioritySampler(
                capacity, weight_fn=UniformWeight(), seed=7
            ),
            edges, repeats,
        )
        object_rate = _best_rate(
            lambda: GraphPrioritySampler(
                capacity, weight_fn=UniformWeight(), seed=7
            ),
            edges, repeats,
        )
        axis = {
            str(chunk): round(_best_chunked_rate(
                lambda: CompactGraphPrioritySampler(
                    capacity, weight_fn=UniformWeight(), seed=7
                ),
                columns, chunk, repeats,
            ), 1)
            for chunk in chunk_sizes
        }
        chunked_rate = max(axis.values())
        out[regime] = {
            "stream_edges": len(edges),
            "capacity": capacity,
            "chunked_edges_per_sec": chunked_rate,
            "compact_edges_per_sec": round(compact_rate, 1),
            "object_edges_per_sec": round(object_rate, 1),
            "chunk_size_axis": axis,
            "default_chunk_size": DEFAULT_CHUNK_SIZE,
            "speedup_vs_compact": round(chunked_rate / compact_rate, 3),
            "speedup_vs_object": round(chunked_rate / object_rate, 3),
        }
        print(
            f"chunked [{regime}] |K|={len(edges):,} m={capacity}: "
            f"chunked {chunked_rate:>12,.0f} e/s   "
            f"compact {compact_rate:>12,.0f} e/s   "
            f"object {object_rate:>12,.0f} e/s   "
            f"({chunked_rate / compact_rate:.2f}x vs compact)"
        )
    return out


# ----------------------------------------------------------------------
# replication
# ----------------------------------------------------------------------
def bench_replication(quick: bool) -> Dict:
    """Inline vs pooled replicated runs on one graph, bit-identical."""
    from repro.api.execution import run
    from repro.api.spec import RunSpec
    from repro.graph.generators import chung_lu

    # Full size is the steady-state stream of the engine and shard
    # ladders (|K| = 200k), where a task is long enough to amortise the
    # pool's start-up.
    graph = (chung_lu(2_000, 10_000, exponent=2.3, seed=42) if quick
             else chung_lu(40_000, 200_000, exponent=2.3, seed=43))
    workers = 2
    base = RunSpec(source="chung-lu", method="gps-post",
                   budget=1_000 if quick else 4_000, replications=4)
    repeats = 1 if quick else 3
    total = graph.num_edges * base.replications
    results: Dict[str, Dict] = {}
    for weight in ("uniform", "triangle"):
        reports = {}
        best = {"inline": float("inf"), "pooled": float("inf")}
        for _ in range(repeats):  # alternate modes; keep each one's best
            for mode, size in (("inline", 0), ("pooled", workers)):
                gc.collect()
                started = time.perf_counter()
                reports[mode] = run(
                    base.replace(weight=weight, workers=size), graph=graph
                )
                best[mode] = min(best[mode], time.perf_counter() - started)
        rung: Dict[str, Dict] = {
            mode: {
                "elapsed_seconds": round(elapsed, 4),
                "edges_per_sec": round(total / elapsed, 1),
            }
            for mode, elapsed in best.items()
        }
        inline, pooled = reports["inline"], reports["pooled"]
        assert pooled.metrics == inline.metrics, f"{weight}: pool != inline"
        assert pooled.estimates == inline.estimates
        rung["pooled_speedup"] = round(
            rung["inline"]["elapsed_seconds"]
            / rung["pooled"]["elapsed_seconds"], 3
        )
        rung["pipeline"] = inline.pipeline
        results[weight] = rung
        print(f"{weight:<9} inline {rung['inline']['elapsed_seconds']:6.2f}s"
              f"   pooled({workers}) {rung['pooled']['elapsed_seconds']:6.2f}s"
              f"   {rung['pooled_speedup']:.2f}x  [{inline.pipeline}]")
    return _envelope(
        "replication", quick,
        params={"edges": graph.num_edges, "budget": base.budget,
                "replications": base.replications, "workers": workers,
                "method": base.method, "repeats": repeats},
        results={"end_to_end": results},
    )


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def bench_sweep(quick: bool) -> Dict:
    """Cold grid vs cache-resumed grid (ground truth + cell replay)."""
    from repro.api.sweep import SweepSpec, run_sweep
    from repro.graph.generators import chung_lu
    from repro.graph.io import write_edge_list

    graph = (
        chung_lu(2_000, 10_000, exponent=2.3, seed=42)
        if quick
        else chung_lu(10_000, 50_000, exponent=2.3, seed=42)
    )
    with tempfile.TemporaryDirectory() as tmp:
        source = str(Path(tmp) / "bench_graph.txt")
        write_edge_list(graph, source)
        if quick:
            spec = SweepSpec(sources=(source,),
                             methods=("gps-post", "triest"),
                             budgets=(500, 1000), runs=2, workers=0)
        else:
            spec = SweepSpec(
                sources=(source,),
                methods=("gps-post", "gps-in-stream", "triest",
                         "triest-impr"),
                budgets=(1000, 2000, 4000), runs=4, workers=0,
            )
        cache = Path(tmp) / "cache"
        started = time.perf_counter()
        cold = run_sweep(spec, cache_dir=cache)
        cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        warm = run_sweep(spec, cache_dir=cache, resume=True)
        warm_seconds = time.perf_counter() - started

    # A resumed sweep must replay the very same numbers.
    assert warm.cell_cache_hits == sum(c.runs for c in warm.cells)
    assert warm.ground_truth_misses == 0
    for a, b in zip(cold.cells, warm.cells):
        assert a.triangles.mean == b.triangles.mean
        assert a.relative_error == b.relative_error

    replications = sum(c.runs for c in cold.cells)
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    print(
        f"{len(cold.cells)} cells / {replications} replications: "
        f"cold {cold_seconds:.3f}s, resumed {warm_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    return _envelope(
        "sweep", quick,
        params={"stream_edges": graph.num_edges, "cells": len(cold.cells),
                "replications": replications},
        results={
            "cold_seconds": round(cold_seconds, 4),
            "resumed_seconds": round(warm_seconds, 4),
            "speedup": round(speedup, 2),
            "ground_truth_recounts_cold": cold.ground_truth_misses,
            "ground_truth_recounts_resumed": warm.ground_truth_misses,
            "cells_replayed_resumed": warm.cell_cache_hits,
        },
    )


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def bench_serve(quick: bool) -> Dict:
    """Sustained-load ladder: ingestion rate × concurrent query latency.

    Drives the live service over the steady-state uniform synthetic
    stream (the ≥1M-edges/sec regime: budget ≪ stream, vectorised
    admission gate) while ``readers`` threads hammer ``estimates``
    queries, and reports sustained edges/sec against per-query wall
    latency for each rung of the reader ladder.  A second rung serves
    the in-stream estimator (O(1) global answers, scalar fused
    ingestion).  Before any timing counts, the service's final snapshot
    is asserted bit-identical to a batch pass over the same stream —
    concurrency must never buy a different number.
    """
    import threading

    from repro.api.execution import _estimates_dict
    from repro.api.registry import get_method, get_weight
    from repro.serve import SamplingService, ServeSpec
    from repro.serve.source import SyntheticSource

    def batch_oracle(spec: ServeSpec) -> Dict:
        """The same spec's stream, run to completion without threads."""
        method = get_method(spec.method)
        weight_fn = (
            get_weight(spec.weight).factory()
            if spec.weight is not None else None
        )
        counter = method.factory(
            spec.budget, 0, spec.sampler_seed,
            weight_fn=weight_fn, core="compact",
        )
        for us, vs in SyntheticSource(
            spec.nodes, spec.stream_seed, chunk_size=spec.chunk_size,
            max_edges=spec.max_edges,
        ):
            counter.process_chunk(us, vs)
        estimates_fn = getattr(counter, "estimates", None)
        if estimates_fn is not None:
            return _estimates_dict(estimates_fn())
        from repro.core.post_stream import PostStreamEstimator

        sampler = getattr(counter, "sampler", counter)
        return _estimates_dict(PostStreamEstimator(sampler).estimate())

    def run_rung(spec: ServeSpec, readers: int) -> Dict:
        service = SamplingService(spec)
        done = threading.Event()
        latencies: List[List[float]] = [[] for _ in range(readers)]

        def read_loop(slot: List[float]) -> None:
            while not done.is_set():
                started = time.perf_counter()
                response = service.query({"op": "estimates"})
                slot.append(time.perf_counter() - started)
                assert response["ok"], response

        threads = [
            threading.Thread(target=read_loop, args=(slot,), daemon=True)
            for slot in latencies
        ]
        gc.collect()
        service.start()
        for thread in threads:
            thread.start()
        service.join()  # bounded source: pump runs the stream dry
        done.set()
        for thread in threads:
            thread.join()
        stats = service.stats
        assert stats is not None
        all_latencies = sorted(lat for slot in latencies for lat in slot)
        final = _estimates_dict(service.latest().estimates())
        rung = {
            "readers": readers,
            "ingest_edges_per_sec": round(
                spec.max_edges / stats.elapsed_seconds, 1
            ),
            "elapsed_seconds": round(stats.elapsed_seconds, 4),
            "queries": len(all_latencies),
            "backpressure_stalls": service.stalls,
        }
        if all_latencies:
            rung["queries_per_sec"] = round(
                len(all_latencies) / stats.elapsed_seconds, 1
            )
            rung["query_latency_ms"] = {
                "mean": round(
                    sum(all_latencies) / len(all_latencies) * 1e3, 4
                ),
                "p95": round(
                    all_latencies[int(0.95 * (len(all_latencies) - 1))]
                    * 1e3, 4
                ),
                "max": round(all_latencies[-1] * 1e3, 4),
            }
        return rung, final

    if quick:
        post_spec = ServeSpec(
            source="synthetic", method="gps-post", budget=600,
            weight="uniform", nodes=100_000, max_edges=500_000,
            stream_seed=0, sampler_seed=1,
        )
        in_spec = post_spec.replace(
            method="gps", budget=400, max_edges=120_000
        )
        ladders = [0, 2]
    else:
        post_spec = ServeSpec(
            source="synthetic", method="gps-post", budget=1000,
            weight="uniform", nodes=100_000, max_edges=4_000_000,
            stream_seed=0, sampler_seed=1,
        )
        in_spec = post_spec.replace(
            method="gps", budget=1000, max_edges=500_000
        )
        ladders = [0, 1, 4]

    # Correctness gate: concurrency must not change a single bit.
    oracle = batch_oracle(post_spec)
    results: Dict[str, Dict] = {"post_stream": {"ladder": []}}
    for readers in ladders:
        rung, final = run_rung(post_spec, readers)
        assert final == oracle, (
            f"served estimates diverged from the batch oracle at "
            f"readers={readers}"
        )
        results["post_stream"]["ladder"].append(rung)
        latency = rung.get("query_latency_ms", {}).get("mean", 0.0)
        print(
            f"serve [gps-post] readers={readers}: "
            f"{rung['ingest_edges_per_sec']:>12,.0f} e/s   "
            f"{rung['queries']:>6} queries   "
            f"mean latency {latency:.3f} ms   "
            f"stalls {rung['backpressure_stalls']}"
        )
    results["post_stream"]["bit_identical_to_batch"] = True

    in_oracle = batch_oracle(in_spec)
    rung, final = run_rung(in_spec, 2)
    assert final == in_oracle, "in-stream serve diverged from batch"
    results["in_stream"] = {
        "ladder": [rung],
        "bit_identical_to_batch": True,
    }
    print(
        f"serve [gps]      readers=2: "
        f"{rung['ingest_edges_per_sec']:>12,.0f} e/s   "
        f"{rung['queries']:>6} queries   "
        f"mean latency "
        f"{rung.get('query_latency_ms', {}).get('mean', 0.0):.3f} ms"
    )
    return _envelope(
        "serve", quick,
        params={
            "post_stream_spec": post_spec.to_dict(),
            "in_stream_spec": in_spec.to_dict(),
            "reader_ladder": ladders,
        },
        results=results,
    )


# ----------------------------------------------------------------------
# shard
# ----------------------------------------------------------------------
def bench_shard(quick: bool, repeats: Optional[int] = None) -> Dict:
    """Sharded GPS: fleet throughput per shard count + merged accuracy.

    Throughput rungs partition the steady-state uniform stream with the
    seeded router, then time every shard's chunked drive *independently*
    (best-of-``repeats``, GC between runs) — one shard ≙ one host of an
    S-host fleet, so the fleet ingests the whole stream in the slowest
    shard's wall clock.  ``speedup_vs_single`` is that fleet rate over
    the S=1 rung; the inline single-process wall clock (all shards
    sequentially on this machine) is recorded next to it.  The accuracy
    section replicates sharded and unsharded gps-post at equal *total*
    budget over seeded passes and reports the relative error of the
    mean merged triangle estimate against the exact count.
    """
    from repro.core.compact import CompactGraphPrioritySampler
    from repro.core.weights import UniformWeight
    from repro.graph.exact import compute_statistics
    from repro.graph.generators import chung_lu
    from repro.shard.router import shard_columns
    from repro.shard.runner import ShardedRunner
    from repro.streams.chunks import DEFAULT_CHUNK_SIZE
    from repro.streams.stream import EdgeStream

    if quick:
        graph = chung_lu(8_000, 40_000, exponent=2.3, seed=43)
        budget = 1_000
        ladder = (1, 2, 4)
        repeats = repeats if repeats is not None else 1
        accuracy_graph = chung_lu(2_000, 10_000, exponent=2.3, seed=44)
        accuracy_budget, replications = 800, 8
    else:
        graph = chung_lu(40_000, 200_000, exponent=2.3, seed=43)
        budget = 4_000
        ladder = (1, 2, 4, 8)
        repeats = repeats if repeats is not None else 3
        accuracy_graph = chung_lu(4_000, 20_000, exponent=2.3, seed=44)
        accuracy_budget, replications = 1_600, 24

    stream = EdgeStream.from_graph(graph, seed=0)
    edges = list(stream)
    us, vs = stream.columnar()

    # Warm-up drive (untimed): the first chunked pass pays numpy import
    # and allocator warm-up that would otherwise tax whichever rung runs
    # first and skew the S=1 baseline.
    warm = CompactGraphPrioritySampler(
        budget, weight_fn=UniformWeight(), seed=7
    )
    for at in range(0, len(us), DEFAULT_CHUNK_SIZE):
        warm.process_chunk(us[at:at + DEFAULT_CHUNK_SIZE],
                          vs[at:at + DEFAULT_CHUNK_SIZE])
    del warm

    throughput: List[Dict] = []
    single_rate = 0.0
    for shards in ladder:
        ids = shard_columns(us, vs, shards, seed=0)
        partitions = [
            (us[ids == s], vs[ids == s]) for s in range(shards)
        ] if shards > 1 else [(us, vs)]
        capacity = budget // shards
        per_shard_seconds: List[float] = []
        for shard_us, shard_vs in partitions:
            n = len(shard_us)
            best = float("inf")
            for _ in range(repeats):
                gc.collect()
                counter = CompactGraphPrioritySampler(
                    capacity, weight_fn=UniformWeight(), seed=7
                )
                started = time.perf_counter()
                for at in range(0, n, DEFAULT_CHUNK_SIZE):
                    counter.process_chunk(
                        shard_us[at:at + DEFAULT_CHUNK_SIZE],
                        shard_vs[at:at + DEFAULT_CHUNK_SIZE],
                    )
                best = min(best, time.perf_counter() - started)
                del counter
            per_shard_seconds.append(best)
        fleet_wall = max(per_shard_seconds)
        fleet_rate = len(edges) / fleet_wall
        if shards == 1:
            single_rate = fleet_rate
        runner = ShardedRunner(
            edges, shards=shards, budget=budget, method="gps-post",
            weight_fn=UniformWeight(),
        )
        inline = runner.run()
        rung = {
            "shards": shards,
            "per_shard_edges": [len(p[0]) for p in partitions],
            "per_shard_seconds": [round(t, 6) for t in per_shard_seconds],
            "fleet_wall_seconds": round(fleet_wall, 6),
            "fleet_edges_per_sec": round(fleet_rate, 1),
            "speedup_vs_single": round(fleet_rate / single_rate, 3),
            "inline_wall_seconds": round(inline.elapsed_seconds, 6),
            "merged_sample_size": inline.estimates.sample_size,
        }
        throughput.append(rung)
        print(
            f"shard S={shards}: fleet {fleet_rate:>12,.0f} e/s "
            f"({rung['speedup_vs_single']:.2f}x vs single)   "
            f"inline wall {inline.elapsed_seconds:.3f}s"
        )

    exact = compute_statistics(accuracy_graph)
    accuracy_edges = EdgeStream.canonical_edges(accuracy_graph)
    accuracy: List[Dict] = []
    for shards in ladder:
        runner = ShardedRunner(
            accuracy_edges, shards=shards, budget=accuracy_budget,
            method="gps-post",
        )
        estimates = [
            runner.run(stream_seed=i, sampler_seed=1 + i)
            .estimates.triangles.value
            for i in range(replications)
        ]
        mean = sum(estimates) / len(estimates)
        error = abs(mean - exact.triangles) / exact.triangles
        accuracy.append({
            "shards": shards,
            "mean_triangles": round(mean, 2),
            "relative_error": round(error, 4),
        })
        print(
            f"accuracy S={shards}: mean {mean:,.0f} vs exact "
            f"{exact.triangles:,} (rel err {error:.2%})"
        )

    return _envelope(
        "shard", quick,
        params={
            "stream_edges": len(edges), "budget": budget,
            "shard_ladder": list(ladder), "repeats": repeats,
            "router_seed": 0,
            "accuracy_edges": len(accuracy_edges),
            "accuracy_budget": accuracy_budget,
            "accuracy_replications": replications,
            "exact_triangles": exact.triangles,
        },
        results={"throughput": throughput, "accuracy": accuracy},
    )


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def run_target(
    target: str,
    quick: bool = False,
    repeats: Optional[int] = None,
    output: Optional[Path] = None,
) -> Path:
    """Run one benchmark target and write its JSON; returns the path."""
    if target == "engine":
        payload = bench_engine(quick, repeats=repeats)
    elif target == "replication":
        payload = bench_replication(quick)
    elif target == "sweep":
        payload = bench_sweep(quick)
    elif target == "serve":
        payload = bench_serve(quick)
    elif target == "shard":
        payload = bench_shard(quick, repeats=repeats)
    else:
        raise ValueError(
            f"unknown bench target {target!r}; known: {TARGETS}"
        )
    # Default next to wherever the command runs (the repo root in CI and
    # the documented workflow) — never relative to the installed package.
    path = output if output is not None else (
        Path.cwd() / DEFAULT_OUTPUTS[target]
    )
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Regenerate the BENCH_*.json performance trajectories.",
    )
    parser.add_argument("target", choices=TARGETS)
    parser.add_argument("--quick", action="store_true",
                        help="CI-smoke sizes (same JSON schema)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repetitions (engine target)")
    parser.add_argument("-o", "--output", type=Path, default=None,
                        help="output path (default: BENCH_<target>.json "
                             "in the current directory)")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    run_target(args.target, quick=args.quick, repeats=args.repeats,
               output=args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
