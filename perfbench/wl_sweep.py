"""``sweep``: a cold pooled ``run_sweep`` into a fresh cache, then a resume.

The grid is ``methods=(gps-post, gps, triest)`` × two budgets ×
``shards=(1, 4)`` × 3 runs on 2 workers over one 200k-edge file: 8 cells
(shards collapse to 1 for the non-shardable methods) and 24
replications.  The source is parsed once and published through shared
memory, so the work is the samplers' scalar loops, the in-stream
estimator, TRIEST, the shard router and merge, exact ground truth and
the process pool: engine, pool and shard changes show here, ingest
changes barely do.

Checks: the resume replays every cell bit-identically with zero
ground-truth recounts, and one replication per method re-run inline
through ``run(spec)`` matches the pooled report.  The traced run replays
the sweep inline, layer by layer.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Tuple

from common import Context, latency_metrics, median, peak_rss_mb, timed
from spans import SpanRecorder, span_cost

IMPORTS = ("repro", "repro.api.sweep")
WORKERS = 2


def inputs(smoke: bool) -> Dict[str, Tuple[int, int]]:
    return {"graph": (4_000, 1_500) if smoke else (200_000, 50_000)}


def make_spec(ctx: Context):
    from repro.api.sweep import SweepSpec

    return SweepSpec(
        sources=(str(ctx.inputs["graph"]),),
        methods=("gps-post", "gps", "triest"),
        budgets=(200, 400) if ctx.smoke else (2000, 4000),
        shards=(1, 4),
        runs=2 if ctx.smoke else 3,
        workers=WORKERS,
    )


def label(key) -> str:
    return key.method + (f"-s{key.shards}" if key.shards > 1 else "")


def same_cells(a, b) -> bool:
    """Bit-identical cell results (metrics and every replication)."""
    return len(a.cells) == len(b.cells) and all(
        x.key == y.key
        and x.metrics == y.metrics
        and [r.estimates for r in x.reports] == [r.estimates for r in y.reports]
        for x, y in zip(a.cells, b.cells)
    )


def run(ctx: Context) -> Dict[str, float]:
    from repro.api import run as run_spec
    from repro.api.sweep import run_sweep

    spec = make_spec(ctx)
    replications = sum(len(cell.specs) for cell in spec.expand())
    walls: List[float] = []
    resumes: List[float] = []
    edges = 0
    deadline = time.perf_counter() + ctx.seconds
    while not walls or time.perf_counter() < deadline:
        cache = ctx.work / f"cache-{len(walls)}"
        with ctx.speed.during():
            cold, wall = timed(lambda: run_sweep(spec, cache_dir=cache))
        warm, resume_s = timed(
            lambda: run_sweep(spec, cache_dir=cache, resume=True))
        walls.append(wall)
        resumes.append(resume_s)
        edges += sum(r.edges for cell in cold.cells for r in cell.reports)
        ctx.checks.op(
            cold.cell_cache_misses == replications and cold.task_retries == 0,
            "cold sweep did not execute every replication exactly once")
        ctx.checks.op(
            same_cells(cold, warm) and warm.ground_truth_misses == 0
            and warm.cell_cache_hits == replications,
            "resume did not replay every cell bit-identically from cache")
    rss = peak_rss_mb()

    # One replication per method, re-run inline, must match the pool.
    firsts = {}
    for cell in cold.cells:
        firsts.setdefault(label(cell.key), cell.reports[0])
    for name, pooled in firsts.items():
        inline = run_spec(pooled.spec)
        ctx.checks.op(inline.estimates == pooled.estimates,
                      f"sweep {name}: inline run != pooled report")

    scale = ctx.speed.scale()
    out = {
        "edges_per_s": edges / (sum(walls) * scale),
        "peak_rss_mb": rss,
        **latency_metrics([wall * scale for wall in walls]),
    }
    if ctx.trace:
        rec = SpanRecorder()
        out.update(replay(ctx, cold, rec))
        out.update({
            "api.sweep.pool_efficiency":
                out.pop("task_total_s") / (WORKERS * walls[-1]),
            "api.sweep.resume_s": median(resumes),
            "api.sweep.cell_cache_hits": float(warm.cell_cache_hits),
            "engine.resilient.task_retries": float(cold.task_retries),
            "engine.resilient.pool_rebuilds": float(cold.pool_rebuilds),
        })
        rec.dump(ctx.work.parent / f"trace-sweep-{ctx.seed}.jsonl")
    return out


def replay(ctx: Context, cold, rec: SpanRecorder) -> Dict[str, float]:
    """The cold sweep's work inline, one span per layer call.

    Mirrors what ``run_sweep`` does across its pool: exact ground truth,
    one parse + publish of the source, an attach, then every replication
    as ``run(spec, graph=…)`` followed by its cache write.  Each S=4
    cell's first replication is also rebuilt from the router, the
    per-shard engines and the merge, and must equal the pooled report.
    """
    from repro.api import run as run_spec
    from repro.api.ground_truth import ContentAddressedStore, GroundTruthCache
    from repro.api.sweep import cell_report_key
    from repro.engine.shared_edges import SharedEdgePopulation
    from repro.graph.io import iter_edge_list
    from repro.streams.interner import NodeInterner
    from repro.streams.transforms import simplify_edges

    source = str(ctx.inputs["graph"])
    root = ctx.work / "replay"
    truths = GroundTruthCache(root)
    store = ContentAddressedStore(root / "cells")
    rec.new_op()
    with rec.span("api.sweep.replay"):
        with rec.span("api.ground_truth.exact"):
            truths.statistics(source)
        with rec.span("graph.io.parse"):
            parsed = list(iter_edge_list(source))
        with rec.span("streams.transforms.simplify"):
            simple = list(simplify_edges(parsed))
        with rec.span("streams.interner.intern"):
            interned = NodeInterner().intern_edges(simple)
        with rec.span("engine.shared_edges.publish"):
            population = SharedEdgePopulation.publish(interned)
        try:
            with rec.span("engine.shared_edges.attach"):
                edges = SharedEdgePopulation.attach(population.descriptor)
        finally:
            population.close()
            population.unlink()

    tasks: Dict[str, List[float]] = {}
    task_total = 0.0
    for cell in cold.cells:
        name = label(cell.key)
        for pooled in cell.reports:
            rec.new_op()
            with rec.span("engine.replication.task") as span:
                report = run_spec(pooled.spec, graph=edges)
            tasks.setdefault(name, []).append(span.duration)
            task_total += span.duration
            ctx.checks.op(report.estimates == pooled.estimates,
                          f"sweep {name}: replayed task != pooled report")
            with rec.span("api.sweep.cache_write"):
                store.write(
                    cell_report_key(pooled.spec, False, truths.key_for(source)),
                    dataclasses.replace(report, counter=None).to_dict(),
                )
        if cell.key.shards > 1:
            rec.new_op()
            pooled = cell.reports[0]
            merged = replay_sharded(pooled, edges, rec)
            ctx.checks.op(
                merged == (pooled.estimates["triangles"],
                           pooled.estimates["wedges"]),
                f"sweep {name}: router + merge replay != pooled report")

    out = {
        f"engine.replication.task_s_p50.{name}": median(times)
        for name, times in tasks.items()
    }
    names = ("api.ground_truth.exact", "graph.io.parse",
             "streams.transforms.simplify", "engine.shared_edges.publish",
             "engine.shared_edges.attach", "shard.router.route",
             "stats.merge.merge")
    for name in names:
        out[f"{name}_s"] = median(rec.self_times(name))
    out["api.sweep.cache_write_s"] = sum(rec.self_times("api.sweep.cache_write"))
    out["task_total_s"] = task_total
    # The replay runs inline, unlike the pooled sweep, so traced and
    # untraced walls are not the same work; charge the recorder's
    # measured cost per span instead.
    out["trace.overhead_s"] = len(rec.spans) * span_cost()
    return out


def replay_sharded(pooled, edges, rec: SpanRecorder) -> Tuple[float, float]:
    """One sharded replication rebuilt from router, shard engines and merge.

    Follows the inline path of the shard runner: the seeded permutation,
    the edge-hash router, one engine pass per shard at ``budget/shards``
    with sampler seed ``sampler_seed * shards + s``, then the union
    Horvitz–Thompson merge.  Returns the merged (triangles, wedges).
    """
    from repro.api.registry import get_method
    from repro.core.reservoir import snapshot_view
    from repro.engine.stream_engine import StreamEngine
    from repro.shard.router import split_stream
    from repro.shard.spec import ShardSpec
    from repro.stats.merge import merge_estimates

    spec = pooled.spec
    method = get_method(spec.method)
    order = list(edges)
    random.Random(spec.stream_seed).shuffle(order)
    with rec.span("shard.router.route"):
        substreams = split_stream(
            order, spec.shards, ShardSpec(shards=spec.shards).router_seed)
    samples = []
    for shard, substream in enumerate(substreams):
        counter = method.make(
            spec.budget // spec.shards, len(substream),
            spec.sampler_seed * spec.shards + shard, core=spec.core,
        )
        with rec.span("engine.stream_engine.drive"):
            StreamEngine(counter).run(substream)
        sampler = counter.sampler
        samples.append([
            (r.u, r.v, r.inclusion_probability(sampler.threshold))
            for r in snapshot_view(sampler.sample).records()
        ])
    with rec.span("stats.merge.merge"):
        merged = merge_estimates(samples)
    return merged.triangle_count, merged.wedge_count
