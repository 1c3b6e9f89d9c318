"""``file-run``: a closed loop of ``run(spec)`` calls over one edge-list file.

Each call is ``run(RunSpec(source=<file>, method="gps-post",
weight="uniform", budget=4000, stream_seed=i, sampler_seed=1+i))``, the
next one issued when the previous returns.  Ingest (parse, simplify,
permute, columnar conversion) is most of the work and the engine little,
so an ingest optimisation shows here and an engine optimisation barely
does.

Every report is checked bit for bit against :func:`replay`, which runs
the same spec layer by layer through the public functions ``run`` is
built from.  The traced run times those layers with spans.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from common import Context, latency_metrics, median, peak_rss_mb, timed
from spans import SpanRecorder

IMPORTS = ("repro",)

#: The layers ``run(spec)`` is made of, in call order.
LAYERS = (
    "graph.io.parse",
    "streams.transforms.simplify",
    "streams.stream.permute",
    "streams.stream.columnar",
    "engine.stream_engine.drive",
    "core.post_stream.estimate",
)
INGEST = LAYERS[:4]


def inputs(smoke: bool) -> Dict[str, Tuple[int, int]]:
    return {"graph": (4_000, 1_500) if smoke else (200_000, 50_000)}


def make_spec(ctx: Context, i: int):
    from repro.api import RunSpec

    return RunSpec(
        source=str(ctx.inputs["graph"]), method="gps-post", weight="uniform",
        budget=400 if ctx.smoke else 4000, stream_seed=i, sampler_seed=1 + i,
    )


def replay(spec, rec: SpanRecorder, simple=None):
    """``run(spec)`` rebuilt from its layers; returns the estimate bundle.

    ``simple`` is the file's parsed and simplified edge list when the
    caller already holds it (the untraced checks parse once); the file
    is parsed here otherwise.
    """
    from repro.api.registry import get_method, get_weight
    from repro.core.post_stream import PostStreamEstimator
    from repro.engine.stream_engine import StreamEngine
    from repro.streams.chunks import DEFAULT_CHUNK_SIZE
    from repro.streams.stream import EdgeStream

    method = get_method(spec.method)
    with rec.span("api.execution.run"):
        if simple is None:
            simple = parse_simple(spec.source, rec)
        with rec.span("streams.stream.permute"):
            order = list(simple)
            random.Random(spec.stream_seed).shuffle(order)
            stream = EdgeStream(order)
        with rec.span("streams.stream.columnar"):
            columnar = stream.columnar() is not None
        counter = method.make(
            spec.budget, len(stream), spec.sampler_seed,
            weight_fn=get_weight(spec.weight).factory(), core=spec.core,
        )
        with rec.span("engine.stream_engine.drive"):
            StreamEngine(
                counter, chunk_size=DEFAULT_CHUNK_SIZE if columnar else None
            ).run(stream)
        with rec.span("core.post_stream.estimate"):
            return PostStreamEstimator(counter.sampler).estimate()


def parse_simple(path: str, rec: SpanRecorder):
    from repro.graph.io import iter_edge_list
    from repro.streams.transforms import simplify_edges

    with rec.span("graph.io.parse"):
        parsed = list(iter_edge_list(path))
    with rec.span("streams.transforms.simplify"):
        return list(simplify_edges(parsed))


def matches(report, post, method) -> bool:
    return (
        report.pipeline == "chunked"
        and report.post_stream == post
        and report.estimates == method.from_bundles(None, post)
    )


def run(ctx: Context) -> Dict[str, float]:
    import dataclasses
    import time

    from repro.api import run as run_spec
    from repro.api.registry import get_method
    from repro.graph.io import iter_edge_list

    method = get_method("gps-post")
    rec = SpanRecorder(enabled=ctx.trace)
    walls: List[float] = []
    done: List[Tuple[object, object]] = []
    overheads: List[float] = []
    marks: List[int] = []  # where each call's speed samples start
    edges = 0
    deadline = time.perf_counter() + ctx.seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        spec = make_spec(ctx, i)
        # Traced runs alternate which of the pair goes first, so a drift
        # in machine speed does not bias the residual and overhead.
        replay_first = ctx.trace and i % 2 == 1
        if ctx.trace:
            rec.new_op()
        if replay_first:
            post, traced_wall = timed(lambda: replay(spec, rec))
        marks.append(len(ctx.speed.samples))
        ctx.speed.sample()
        report, wall = timed(lambda: run_spec(spec))
        walls.append(wall)
        edges += report.edges
        report = dataclasses.replace(report, counter=None)
        if ctx.trace:
            if not replay_first:
                post, traced_wall = timed(lambda: replay(spec, rec))
            overheads.append(traced_wall - wall)
            ctx.checks.op(matches(report, post, method),
                          f"file-run seed {i}: report != layer replay")
        else:
            done.append((spec, report))
        i += 1
    ctx.speed.sample()
    rss = peak_rss_mb()

    path = str(ctx.inputs["graph"])
    quiet = SpanRecorder(enabled=False)
    simple = parse_simple(path, quiet)
    for spec, report in done:
        ctx.checks.op(matches(report, replay(spec, quiet, simple), method),
                      f"file-run seed {spec.stream_seed}: report != replay")

    # Each call is scaled by the samples just before and just after it, so
    # that calls in a slow stretch and in a fast one read alike.
    scaled = [wall * ctx.speed.scale(mark, mark + 6)
              for wall, mark in zip(walls, marks)]
    out = {
        "edges_per_s": edges / sum(scaled),
        "peak_rss_mb": rss,
        **latency_metrics(scaled),
    }
    if ctx.trace:
        dropped = sum(1 for _ in iter_edge_list(path)) - len(simple)
        out.update(layer_metrics(rec, walls, overheads, dropped))
        rec.dump(ctx.work.parent / f"trace-file-run-{ctx.seed}.jsonl")
    return out


def layer_metrics(rec, walls, overheads, dropped) -> Dict[str, float]:
    """Per-layer medians over operations, plus the ratios ROADMAP gates on."""
    per_op = {name: rec.per_op_self(name) for name in LAYERS}
    ops = sorted(per_op[LAYERS[0]])
    layer_sum = [sum(per_op[n][op] for n in LAYERS) for op in ops]
    ingest = [sum(per_op[n][op] for n in INGEST) for op in ops]
    drive = [per_op["engine.stream_engine.drive"][op] for op in ops]
    out = {f"{name}_s": median(list(per_op[name].values())) for name in LAYERS}
    out.update({
        "streams.transforms.dropped_edges": float(dropped),
        "api.execution.residual_s": median(
            [w - s for w, s in zip(walls, layer_sum)]),
        "api.execution.ingest_share": median(
            [g / w for w, g in zip(walls, ingest)]),
        "api.execution.e2e_over_engine": median(
            [w / d for w, d in zip(walls, drive)]),
        "trace.overhead_s": median(overheads),
    })
    return out
