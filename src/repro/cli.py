"""Command-line interface: ``python -m repro <command>``.

Every stream-driving command is a thin veneer over the declarative
:mod:`repro.api` facade: the arguments are packed into a
:class:`~repro.api.spec.RunSpec`, executed by ``repro.api.run`` (one
engine-driven pass, a tracking pass, or a replicated pass through the
process pool), and the resulting :class:`~repro.api.execution.RunReport`
is printed — human-readable by default, machine-readable with ``--json``.

Commands:

* ``stats``      exact triangle/wedge/clustering (and optional 4-node
                 motif census) of an edge-list file — the ground-truth
                 side;
* ``sample``     one-pass GPS sampling of an edge-list stream with
                 in-stream estimates, optionally checkpointing the full
                 sampler state to JSON;
* ``estimate``   retrospective (post-stream) estimation from a saved
                 checkpoint: triangles/wedges/clustering and, on request,
                 k-cliques, k-stars and the motif census;
* ``track``      checkpointed real-time tracking of a stream (estimate vs
                 exact at evenly spaced points) for any registered method;
* ``replicate``  R independent (stream, sampler) seeded replications of
                 any registered method fanned across worker processes;
                 reports mean / variance / 95% CI of its estimates — the
                 paper's error-bar protocol;
* ``sweep``      a whole evaluation grid (sources × methods × budgets ×
                 weights × shards × seeds) in one command: cells fan across a
                 shared process pool, exact ground truth is cached
                 content-addressed, each finished replication is written
                 to the cache as it lands, and ``--resume`` skips every
                 one already there — also after a crash or a kill;
                 per-cell error summaries, CSV/JSON export;
* ``serve``      long-running sampling service: background ingestion
                 (file / file tail / synthetic generator / TCP feed)
                 with concurrent JSON-lines estimate queries over
                 stdin/stdout or TCP — see ``docs/serving.md``;
* ``methods``    list the registered stream-sampling methods
                 (``--markdown`` emits the ``docs/methods.md`` catalog);
* ``weights``    list the registered weight functions;
* ``lint``       static invariant analysis of the source tree (RNG,
                 dtype, shared-memory lifecycle, determinism, spec and
                 registry discipline — see ``docs/invariants.md``,
                 which ``--markdown`` emits); exits nonzero on findings;
* ``bench``      regenerate the BENCH_*.json performance trajectories
                 (``engine``/``replication``/``sweep``/``serve``/``shard``
                 targets, ``--quick`` for CI-smoke sizes);
* ``reproduce``  regenerate the paper's tables and figures.

GPS-family commands accept ``--core compact|object`` selecting the
reservoir implementation (slot-based struct-of-arrays vs the boxed
reference); the two are bit-identical under shared seeds, so the flag
only changes speed.

Methods and weights come from the :mod:`repro.api.registry`; anything a
plugin registers is immediately drivable here.  Edge-list format: two
whitespace-separated node ids per line, ``#``/``%`` comments, optional
``.gz``; extra columns ignored.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.api.execution import replicate as run_replicated
from repro.api.execution import run
from repro.api.ground_truth import file_statistics
from repro.api.registry import (
    get_weight,
    method_names,
    method_specs,
    registry_markdown,
    weight_names,
    weight_specs,
)
from repro.api.spec import RunSpec
from repro.api.sweep import BUDGET_POLICIES, SweepSpec, run_sweep
from repro.core.compact import CORES, DEFAULT_CORE
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.estimates import GraphEstimates
from repro.core.in_stream import InStreamEstimator
from repro.core.local import LocalTriangleEstimator
from repro.core.motifs import MotifCensusEstimator
from repro.core.post_stream import PostStreamEstimator
from repro.core.subgraphs import CliqueEstimator, StarEstimator
from repro.experiments import figure1, figure2, figure3, table1, table2, table3
from repro.graph.io import EdgeListError, read_edge_list
from repro.graph.motifs import count_motifs

ARTEFACTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
}

#: Friendly row labels for well-known replication metrics.
_METRIC_LABELS = {
    "in_stream_triangles": "triangles in-stream",
    "post_stream_triangles": "triangles post-stream",
    "in_stream_wedges": "wedges in-stream",
    "in_stream_clustering": "clustering in-stream",
}


def _artefact(value: str) -> str:
    """Argparse ``type`` validating artefact names (zero artefacts = all)."""
    if value not in ARTEFACTS:
        choices = ", ".join(sorted(ARTEFACTS))
        raise argparse.ArgumentTypeError(
            f"unknown artefact {value!r} (choose from: {choices})"
        )
    return value


def _add_weight_option(
    parser: argparse.ArgumentParser, default: Optional[str] = None
) -> None:
    parser.add_argument(
        "--weight", choices=sorted(weight_names()), default=default,
        help="registered weight function (GPS-family methods only; "
             "default: the method's own default, triangle for GPS)",
    )


def _add_core_option(
    parser: argparse.ArgumentParser, default: Optional[str] = DEFAULT_CORE
) -> None:
    parser.add_argument(
        "--core", choices=CORES, default=default,
        help="GPS reservoir core: 'compact' slot arrays (default) or the "
             "'object' reference — bit-identical results, different speed",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph Priority Sampling for massive graph streams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="exact statistics of an edge list")
    stats.add_argument("path")
    stats.add_argument("--motifs", action="store_true",
                       help="also count the six connected 4-node motifs")

    sample = commands.add_parser("sample", help="GPS-sample an edge-list stream")
    sample.add_argument("path")
    sample.add_argument("-m", "--capacity", type=int, required=True)
    _add_weight_option(sample, default="triangle")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--stream-seed", type=int, default=None,
                        help="permute the stream with this seed "
                             "(default: keep file order)")
    sample.add_argument("-o", "--output", help="write a resumable checkpoint here")
    _add_core_option(sample)
    sample.add_argument("--json", action="store_true",
                        help="emit the RunReport as JSON")

    estimate = commands.add_parser(
        "estimate", help="post-stream estimation from a checkpoint"
    )
    estimate.add_argument("checkpoint")
    _add_weight_option(estimate, default="triangle")
    estimate.add_argument("--motifs", action="store_true")
    estimate.add_argument("--cliques", type=int, metavar="K",
                          help="also estimate K-clique counts")
    estimate.add_argument("--stars", type=int, metavar="K",
                          help="also estimate K-star counts")
    estimate.add_argument("--top-nodes", type=int, metavar="N",
                          help="show the N nodes with largest local "
                               "triangle estimates")

    track = commands.add_parser("track", help="track estimates over a stream")
    track.add_argument("path")
    track.add_argument("-m", "--capacity", type=int, required=True)
    track.add_argument("--method", choices=sorted(method_names()), default="gps",
                       help="registered method to track (default: gps)")
    track.add_argument("--checkpoints", type=int, default=10)
    _add_weight_option(track)
    track.add_argument("--seed", type=int, default=0)
    track.add_argument("--stream-seed", type=int, default=None,
                       help="permute the stream with this seed "
                            "(default: keep file order)")
    _add_core_option(track)
    track.add_argument("--json", action="store_true",
                       help="emit the RunReport as JSON")

    replicate = commands.add_parser(
        "replicate", help="parallel multi-seed replications with error bars"
    )
    replicate.add_argument("path")
    replicate.add_argument("-m", "--capacity", type=int, required=True)
    replicate.add_argument("--method", choices=sorted(method_names()),
                           default="gps",
                           help="registered method to replicate (default: gps)")
    replicate.add_argument("-R", "--replications", type=int, default=8)
    replicate.add_argument("--workers", type=int, default=None,
                           help="process-pool size (0 runs inline)")
    replicate.add_argument("--shards", type=int, default=1,
                           help="partition each pass across this many "
                                "samplers via the seeded edge-hash router "
                                "and merge post-stream (gps-post only; "
                                "default: 1, the single-sampler path)")
    _add_weight_option(replicate)
    replicate.add_argument("--stream-seed", type=int, default=0)
    replicate.add_argument("--sampler-seed", type=int, default=10_000)
    _add_core_option(replicate)
    replicate.add_argument("--json", action="store_true",
                           help="emit the RunReport as JSON")

    sweep = commands.add_parser(
        "sweep", help="run a whole method × budget × source grid"
    )
    sweep.add_argument("--spec", metavar="FILE",
                       help="load the grid from a SweepSpec JSON file "
                            "(grid flags are then rejected)")
    sweep.add_argument("--source", nargs="+", default=None,
                       help="dataset names and/or edge-list paths")
    sweep.add_argument("--method", nargs="+", default=None,
                       help="registered methods (default: gps)")
    sweep.add_argument("-m", "--budget", nargs="+", type=int, default=None,
                       help="memory budgets (default: 1000)")
    sweep.add_argument("--weight", nargs="+", default=None,
                       choices=sorted(weight_names()),
                       help="weights for weight-aware methods "
                            "(default: each method's own default)")
    sweep.add_argument("--shards", nargs="+", type=int, default=None,
                       help="shard counts for shardable methods "
                            "(variance-vs-S curves; default: 1)")
    # Defaults are applied when the SweepSpec is built, not here: None
    # means "not passed", which lets --spec reject any explicit flag —
    # even one spelled at its default value.
    sweep.add_argument("--runs", type=int, default=None,
                       help="seed replications per cell (default: 1)")
    sweep.add_argument("--stream-seed", type=int, default=None,
                       help="base stream seed (default: 0)")
    sweep.add_argument("--sampler-seed", type=int, default=None,
                       help="base sampler seed (default: 1)")
    sweep.add_argument("--checkpoints", type=int, default=None,
                       help="tracking marks per run (default: 0, disabled)")
    sweep.add_argument("--budget-policy", choices=BUDGET_POLICIES,
                       default=None,
                       help="what to do with budgets beyond a source's "
                            "edge count (default: keep)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="shared process-pool size (0 runs inline)")
    _add_core_option(sweep, default=None)
    sweep.add_argument("--cache", metavar="DIR", default=".repro-cache",
                       help="ground-truth/cell cache directory "
                            "(default: .repro-cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="keep everything in memory; nothing on disk")
    sweep.add_argument("--resume", action="store_true",
                       help="reuse cached cell reports instead of "
                            "re-executing them (trusts the cache: clear "
                            "the cache dir after editing estimator code)")
    sweep.add_argument("--save-spec", metavar="FILE",
                       help="also write the expanded SweepSpec JSON here")
    sweep.add_argument("--csv", metavar="FILE",
                       help="write the per-cell CSV matrix here")
    sweep.add_argument("--json", action="store_true",
                       help="emit the SweepReport as JSON")

    serve = commands.add_parser(
        "serve", help="live sampling service answering JSON-lines queries"
    )
    serve.add_argument("source", nargs="?", default=None,
                       help="edge-list path, dataset name, 'synthetic', or "
                            "tcp://host:port")
    serve.add_argument("--spec", metavar="FILE",
                       help="load a ServeSpec JSON file (other service "
                            "flags are then rejected)")
    serve.add_argument("-m", "--capacity", type=int, default=None,
                       help="reservoir capacity (default: 1000)")
    serve.add_argument("--method", choices=sorted(method_names()),
                       default=None,
                       help="registered method to serve (default: gps)")
    _add_weight_option(serve)
    serve.add_argument("--seed", type=int, default=None,
                       help="sampler seed (default: 1)")
    serve.add_argument("--stream-seed", type=int, default=None,
                       help="stream permutation / generator seed "
                            "(default: 0; negative keeps source order)")
    serve.add_argument("--chunk-size", type=int, default=None,
                       help="ingestion block size in edges")
    serve.add_argument("--queue-chunks", type=int, default=None,
                       help="ingestion queue bound in blocks "
                            "(backpressure knob, default: 8)")
    serve.add_argument("--snapshot-every", type=int, default=None,
                       help="publish a snapshot every N blocks (default: 1)")
    serve.add_argument("--max-edges", type=int, default=None,
                       help="stop ingesting after this many edges")
    serve.add_argument("--nodes", type=int, default=None,
                       help="node population of the synthetic source "
                            "(default: 10000)")
    serve.add_argument("--follow", action="store_true",
                       help="tail a file source for appended edges")
    serve.add_argument("--port", type=int, default=None, metavar="PORT",
                       help="answer queries over TCP on PORT (0 binds an "
                            "ephemeral port) instead of stdin/stdout")

    lint = commands.add_parser(
        "lint", help="static invariant analysis (AST lint) of Python sources"
    )
    lint.add_argument("paths", nargs="*", default=["src"], metavar="path",
                      help="files and/or directories to lint (default: src)")
    lint.add_argument("--select", nargs="+", default=None, metavar="RULE",
                      help="run only these rule ids (comma- or "
                           "space-separated)")
    lint.add_argument("--ignore", nargs="+", default=None, metavar="RULE",
                      help="skip these rule ids")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (default: text)")
    lint.add_argument("--markdown", action="store_true",
                      help="emit the docs/invariants.md rule catalog "
                           "instead of linting")

    methods = commands.add_parser(
        "methods", help="list registered sampling methods"
    )
    methods.add_argument("--markdown", action="store_true",
                         help="emit the docs/methods.md catalog instead")
    commands.add_parser("weights", help="list registered weight functions")

    bench = commands.add_parser(
        "bench", help="regenerate the BENCH_*.json performance benchmarks"
    )
    bench.add_argument("target",
                       choices=("engine", "replication", "sweep", "serve",
                                "shard"),
                       help="which benchmark to run")
    bench.add_argument("--quick", action="store_true",
                       help="CI-smoke sizes (same JSON schema)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="timing repetitions (engine target)")
    bench.add_argument("-o", "--output", default=None,
                       help="output path (default: BENCH_<target>.json in "
                            "the current directory)")

    reproduce = commands.add_parser(
        "reproduce", help="regenerate the paper's tables and figures"
    )
    reproduce.add_argument(
        "artefacts", nargs="*", type=_artefact, default=[],
        metavar="artefact",
        help=f"subset of {', '.join(sorted(ARTEFACTS))} (default: all)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "stats": _cmd_stats,
        "sample": _cmd_sample,
        "estimate": _cmd_estimate,
        "track": _cmd_track,
        "replicate": _cmd_replicate,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "lint": _cmd_lint,
        "methods": _cmd_methods,
        "weights": _cmd_weights,
        "bench": _cmd_bench,
        "reproduce": _cmd_reproduce,
    }[args.command]
    try:
        return handler(args)
    except EdgeListError as exc:
        # A malformed input file is the user's to fix: one line, no
        # traceback.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------
def _cmd_stats(args) -> int:
    stats = file_statistics(args.path)
    print(f"nodes      {stats.num_nodes}")
    print(f"edges      {stats.num_edges}")
    print(f"triangles  {stats.triangles}")
    print(f"wedges     {stats.wedges}")
    print(f"clustering {stats.clustering:.6f}")
    if args.motifs:
        graph = read_edge_list(args.path)
        for name, count in count_motifs(graph).as_dict().items():
            print(f"{name:<16} {count}")
    return 0


def _cmd_sample(args) -> int:
    # gps-in-stream, not the shared-sample "gps": sample prints in-stream
    # estimates only, so the report must not pay an Algorithm-2 pass.
    spec = RunSpec(
        source=args.path,
        method="gps-in-stream",
        budget=args.capacity,
        weight=args.weight,
        stream_seed=args.stream_seed,
        sampler_seed=args.seed,
        core=args.core,
    )
    report = run(spec)
    if args.json:
        print(report.to_json())
    else:
        _print_estimates("in-stream estimates", report.in_stream)
    if args.output:
        path = save_checkpoint(report.counter, args.output)
        # Keep --json stdout machine-readable; the notice goes to stderr.
        notice_stream = sys.stderr if args.json else sys.stdout
        print(f"checkpoint written to {path}", file=notice_stream)
    return 0


def _cmd_estimate(args) -> int:
    loaded = load_checkpoint(
        args.checkpoint, weight_fn=get_weight(args.weight).factory()
    )
    sampler = loaded.sampler if isinstance(loaded, InStreamEstimator) else loaded
    estimates = PostStreamEstimator(sampler).estimate()
    _print_estimates("post-stream estimates", estimates)
    if args.cliques:
        clique = CliqueEstimator(sampler, size=args.cliques).estimate()
        lb, ub = clique.confidence_bounds()
        print(f"{args.cliques}-cliques  {clique.value:.1f}  95% CI [{lb:.1f}, {ub:.1f}]")
    if args.stars:
        star = StarEstimator(sampler, leaves=args.stars).estimate()
        print(f"{args.stars}-stars    {star.value:.1f}")
    if args.motifs:
        for name, estimate in MotifCensusEstimator(sampler).estimate().items():
            print(f"{name:<16} {estimate.value:.1f}")
    if args.top_nodes:
        print(f"top {args.top_nodes} nodes by local triangle estimate:")
        for node, count in LocalTriangleEstimator(sampler).top_nodes(args.top_nodes):
            print(f"  {node!r}: {count:.1f}")
    return 0


def _cmd_track(args) -> int:
    spec = RunSpec(
        source=args.path,
        method=args.method,
        budget=args.capacity,
        weight=args.weight,
        stream_seed=args.stream_seed,
        sampler_seed=args.seed,
        checkpoints=args.checkpoints,
        core=args.core,
    )
    report = run(spec)
    if args.json:
        print(report.to_json())
        return 0
    print(f"{'t':>10}  {'triangles':>12}  {'estimate':>12}  {'ARE':>8}")
    for point in report.tracking:
        err = 0.0 if point.are == float("inf") else point.are
        print(
            f"{point.position:>10}  {point.exact_triangles:>12}  "
            f"{point.estimate:>12.0f}  {err:>8.2%}"
        )
    return 0


def _cmd_replicate(args) -> int:
    spec = RunSpec(
        source=args.path,
        method=args.method,
        budget=args.capacity,
        weight=args.weight,
        stream_seed=args.stream_seed,
        sampler_seed=args.sampler_seed,
        replications=args.replications,
        workers=args.workers,
        core=args.core,
        shards=args.shards,
    )
    report = run_replicated(spec)
    if args.json:
        print(report.to_json())
        return 0
    print(
        f"{report.replications} replications over {report.edges} edges "
        f"(m={args.capacity}, method={args.method}, "
        f"weight={args.weight or 'default'}, workers={report.workers})"
    )
    print(f"{'metric':<22} {'mean':>14} {'std':>12}  95% CI")
    for name, stats in report.metrics.items():
        label = _METRIC_LABELS.get(name, name)
        std = stats.variance ** 0.5
        print(
            f"{label:<22} {stats.mean:>14.2f} {std:>12.2f}  "
            f"[{stats.ci_low:.2f}, {stats.ci_high:.2f}]"
        )
    return 0


def _cmd_sweep(args) -> int:
    from pathlib import Path

    from repro.experiments.reporting import format_table

    if args.resume and args.no_cache:
        print("sweep: --resume needs the cache that --no-cache disables; "
              "drop one of them", file=sys.stderr)
        return 2
    if args.spec:
        # Every grid/execution field lives in the spec file; a flag
        # passed alongside it would be silently ignored, so reject any
        # explicitly-given one loudly (all parser defaults are None).
        overridden = [
            flag
            for flag, value in (
                ("--source", args.source),
                ("--method", args.method),
                ("--budget", args.budget),
                ("--weight", args.weight),
                ("--shards", args.shards),
                ("--runs", args.runs),
                ("--stream-seed", args.stream_seed),
                ("--sampler-seed", args.sampler_seed),
                ("--checkpoints", args.checkpoints),
                ("--budget-policy", args.budget_policy),
                ("--workers", args.workers),
                ("--core", args.core),
            )
            if value is not None
        ]
        if overridden:
            print(f"sweep: --spec and {', '.join(overridden)} are "
                  f"mutually exclusive — edit the spec file instead",
                  file=sys.stderr)
            return 2
        spec = SweepSpec.from_json(Path(args.spec).read_text())
    else:
        if not args.source:
            print("sweep: --source is required (or load a grid with "
                  "--spec FILE)", file=sys.stderr)
            return 2
        spec = SweepSpec(
            sources=tuple(args.source),
            methods=tuple(args.method) if args.method else ("gps",),
            budgets=tuple(args.budget) if args.budget else (1000,),
            weights=tuple(args.weight) if args.weight else (None,),
            shards=tuple(args.shards) if args.shards else (1,),
            runs=args.runs if args.runs is not None else 1,
            base_stream_seed=args.stream_seed
            if args.stream_seed is not None else 0,
            base_sampler_seed=args.sampler_seed
            if args.sampler_seed is not None else 1,
            checkpoints=args.checkpoints
            if args.checkpoints is not None else 0,
            budget_policy=args.budget_policy or "keep",
            workers=args.workers,
            core=args.core if args.core is not None else DEFAULT_CORE,
        )
    if args.save_spec:
        Path(args.save_spec).write_text(spec.to_json(indent=2) + "\n")

    report = run_sweep(
        spec,
        cache_dir=None if args.no_cache else args.cache,
        resume=args.resume,
    )

    notice_stream = sys.stderr if args.json else sys.stdout
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
        print(f"cell matrix written to {args.csv}", file=notice_stream)
    if args.json:
        print(report.to_json())
        return 0

    body = []
    for cell in report.cells:
        tri = cell.triangles
        body.append([
            cell.key.source,
            cell.key.method,
            cell.key.budget,
            cell.key.weight or "-",
            cell.runs,
            "-" if tri is None else f"{tri.mean:.1f}",
            "-" if tri is None else f"[{tri.ci_low:.1f}, {tri.ci_high:.1f}]",
            "-" if cell.relative_error is None
            else f"{cell.relative_error:.4f}",
            f"{cell.update_time.mean:.2f}",
            f"{cell.cached_runs}/{cell.runs}",
        ])
    print(format_table(
        headers=["source", "method", "m", "weight", "runs",
                 "triangles (mean)", "95% CI", "ARE", "µs/edge", "cached"],
        rows=body,
        title=f"sweep — {len(report.cells)} cells in "
              f"{report.elapsed_seconds:.2f}s "
              f"(workers={report.workers})",
        align_left=(0, 1, 3),
    ))
    print(f"ground truth: {report.ground_truth_hits} cache hit(s), "
          f"{report.ground_truth_misses} exact recount(s)")
    print(f"cell reports: {report.cell_cache_hits} reused from cache, "
          f"{report.cell_cache_misses} executed")
    if report.skipped:
        names = ", ".join(
            f"{k.source}:{k.method}"
            + (f"[{k.weight}]" if k.weight else "")
            + f"@{k.budget}"
            for k in report.skipped
        )
        print(f"skipped (budget > |K|): {names}")
    if report.cache_dir:
        print(f"cache directory: {report.cache_dir}")
    return 0


def _cmd_serve(args) -> int:
    from pathlib import Path

    from repro.serve import SamplingService, ServeSpec
    from repro.serve.protocol import serve_stdio, serve_tcp

    if args.spec:
        overridden = [
            flag
            for flag, value in (
                ("source", args.source),
                ("--capacity", args.capacity),
                ("--method", args.method),
                ("--weight", args.weight),
                ("--seed", args.seed),
                ("--stream-seed", args.stream_seed),
                ("--chunk-size", args.chunk_size),
                ("--queue-chunks", args.queue_chunks),
                ("--snapshot-every", args.snapshot_every),
                ("--max-edges", args.max_edges),
                ("--nodes", args.nodes),
                ("--follow", args.follow or None),
            )
            if value is not None
        ]
        if overridden:
            print(f"serve: --spec and {', '.join(overridden)} are "
                  f"mutually exclusive — edit the spec file instead",
                  file=sys.stderr)
            return 2
        spec = ServeSpec.from_json(Path(args.spec).read_text())
    else:
        if not args.source:
            print("serve: a source is required (or load one with "
                  "--spec FILE)", file=sys.stderr)
            return 2
        overrides = {
            "method": args.method,
            "budget": args.capacity,
            "weight": args.weight,
            "sampler_seed": args.seed,
            "chunk_size": args.chunk_size,
            "queue_chunks": args.queue_chunks,
            "snapshot_every": args.snapshot_every,
            "max_edges": args.max_edges,
            "nodes": args.nodes,
        }
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if args.stream_seed is not None:
            # Negative = "keep source order" (None is unspellable on a CLI),
            # so this must land after the unset-flag filter above.
            overrides["stream_seed"] = (
                None if args.stream_seed < 0 else args.stream_seed
            )
        if args.follow:
            overrides["follow"] = True
        spec = ServeSpec(source=args.source, **overrides)
    try:
        service = SamplingService(spec)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    import json

    service.start()
    try:
        if args.port is not None:
            serve_tcp(
                service,
                port=args.port,
                ready=lambda host, port: print(
                    f"serving on tcp://{host}:{port}", file=sys.stderr
                ),
            )
        else:
            serve_stdio(service)
    except BaseException:
        try:
            service.stop(drain=False)
        except RuntimeError:
            pass  # the interrupting exception is the story
        raise
    try:
        service.stop(drain=True)
    except RuntimeError as exc:
        # A worker (pump/drive) failed: clients deserve a final,
        # machine-readable verdict and the shell a non-zero exit.
        print(json.dumps({"ok": False, "fatal": True, "error": str(exc)}))
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args) -> int:
    # Imported lazily: the analyzer (and its rule registrations) are
    # only needed by this command.
    from repro.analysis import (
        format_json,
        format_text,
        lint_paths,
        rules_markdown,
    )

    if args.markdown:
        sys.stdout.write(rules_markdown())
        return 0
    flatten = lambda values: [  # noqa: E731 - tiny comma-list splitter
        name
        for value in (values or [])
        for name in value.split(",")
        if name
    ]
    select = flatten(args.select)
    ignore = flatten(args.ignore)
    try:
        result = lint_paths(
            args.paths,
            select=select or None,
            ignore=ignore or None,
        )
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(result))
    else:
        sys.stdout.write(format_text(result))
    return 1 if result.findings else 0


def _cmd_methods(args) -> int:
    if args.markdown:
        sys.stdout.write(registry_markdown())
        return 0
    width = max(len(name) for name in method_names())
    for spec in method_specs():
        weight_tag = "  [weighted]" if spec.uses_weight else ""
        print(f"{spec.name:<{width}}  {spec.description}{weight_tag}")
    return 0


def _cmd_weights(args) -> int:
    width = max(len(name) for name in weight_names())
    for spec in weight_specs():
        print(f"{spec.name:<{width}}  {spec.description}")
    return 0


def _cmd_bench(args) -> int:
    from pathlib import Path

    from repro.bench import run_target

    if args.repeats is not None and args.repeats < 1:
        print("bench: --repeats must be at least 1", file=sys.stderr)
        return 2
    run_target(
        args.target,
        quick=args.quick,
        repeats=args.repeats,
        output=Path(args.output) if args.output else None,
    )
    return 0


def _cmd_reproduce(args) -> int:
    names = args.artefacts or sorted(ARTEFACTS)
    for name in names:
        print(f"\n=== {name} {'=' * (60 - len(name))}")
        ARTEFACTS[name].main([])
    return 0


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _print_estimates(title: str, estimates: GraphEstimates) -> None:
    print(title)
    print(
        f"  processed {estimates.stream_position} edges, sampled "
        f"{estimates.sample_size}, threshold z*={estimates.threshold:.4g}"
    )
    for label, estimate in (
        ("triangles", estimates.triangles),
        ("wedges", estimates.wedges),
        ("clustering", estimates.clustering),
    ):
        lb, ub = estimate.confidence_bounds()
        print(f"  {label:<11}{estimate.value:14.2f}   95% CI [{lb:.2f}, {ub:.2f}]")
