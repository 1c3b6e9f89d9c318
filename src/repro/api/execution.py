"""``run(spec) -> RunReport``: the one interpreter of declarative specs.

Every entry point — CLI commands, the table/figure harnesses, the
examples — dispatches through this module, so the paper's experiment
shape (seeded stream permutation → budget-matched counter → engine-driven
pass → estimates with error bars) is implemented exactly once:

* **single pass** (default): one :class:`~repro.engine.StreamEngine`
  drive over the permuted stream, batched through ``process_many``;
* **tracking pass** (``spec.checkpoints > 0``): the exact prefix
  series is counted once from the permuted stream's columns
  (:func:`~repro.graph.exact.prefix_counts`), then one engine pass
  records a :class:`TrackPoint` at every mark;
* **replicated pass** (``spec.replications > 1``): the spec becomes R
  single-pass specs seeded ``(stream_seed + i, sampler_seed + i)`` —
  any registered method, sharded or not — run by :func:`execute`, and
  per-metric :class:`MetricSummary` error bars come back.

:func:`execute` is the one executor of every fan-out: replicated runs
and sweep grids both hand it seeded single-pass specs and get one
report per spec back, inline or from a fault-tolerant process pool,
bit-identically either way.

The resulting :class:`RunReport` is uniform across modes and methods and
serialises to JSON for downstream tooling.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.registry import (
    GpsPostStreamAdapter, MethodSpec, get_method, get_weight,
)
from repro.api.spec import RunSpec
from repro.core.compact import CompactInStreamEstimator
from repro.core.estimates import GraphEstimates
from repro.core.in_stream import InStreamEstimator
from repro.core.post_stream import PostStreamEstimator
from repro.core.weights import WeightFunction, is_label_free
from repro.engine.resilient import (
    DEFAULT_RETRY_BUDGET,
    RetryStats,
    run_resilient,
)
from repro.engine.shared_edges import (
    Descriptor,
    SharedEdgePopulation,
    shared_memory_available,
)
from repro.engine.stream_engine import EngineStats, StreamEngine
from repro.faults.injector import coerce_injector
from repro.stats.confidence import confidence_interval
from repro.stats.running import RunningMoments
from repro.streams.chunks import DEFAULT_CHUNK_SIZE
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.exact import prefix_counts
from repro.streams.stream import EdgeStream

Edge = Tuple[Any, Any]

#: Counters exposing the in-stream estimate bundle (either GPS core).
IN_STREAM_TYPES = (InStreamEstimator, CompactInStreamEstimator)


# ----------------------------------------------------------------------
# Report containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricSummary:
    """Mean / variance / normal CI of one metric across replications."""

    mean: float
    variance: float
    std_error: float
    ci_low: float
    ci_high: float
    count: int

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe form; ``MetricSummary(**d)`` inverts it.

        The one serialiser every report layer shares (:class:`RunReport`,
        :class:`~repro.api.sweep.CellResult`), so the JSON schema cannot
        fork between them.
        """
        return {
            "mean": self.mean,
            "variance": self.variance,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "count": self.count,
        }

    @classmethod
    def from_values(
        cls, values: Sequence[float], level: float = 0.95
    ) -> "MetricSummary":
        moments = RunningMoments()
        moments.extend(values)
        std_error = moments.std_error
        low, high = confidence_interval(moments.mean, std_error**2, level=level)
        return cls(
            mean=moments.mean,
            variance=moments.variance,
            std_error=std_error,
            ci_low=low,
            ci_high=high,
            count=moments.count,
        )
@dataclass(frozen=True)
class TrackPoint:
    """State recorded at one tracking checkpoint."""

    position: int
    exact_triangles: int
    exact_clustering: float
    estimate: float
    in_stream: Optional[GraphEstimates] = None
    post_stream: Optional[GraphEstimates] = None

    @property
    def are(self) -> float:
        """Absolute relative triangle error at this checkpoint."""
        if self.exact_triangles == 0:
            return 0.0 if self.estimate == 0 else float("inf")
        return abs(self.estimate - self.exact_triangles) / self.exact_triangles


def _estimates_dict(estimates: GraphEstimates) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for stat in ("triangles", "wedges", "clustering"):
        est = getattr(estimates, stat)
        low, high = est.confidence_bounds()
        out[stat] = {
            "value": est.value,
            "variance": est.variance,
            "ci_low": low,
            "ci_high": high,
        }
    out["stream_position"] = estimates.stream_position
    out["sample_size"] = estimates.sample_size
    out["threshold"] = estimates.threshold
    return out


@dataclass(frozen=True)
class RunReport:
    """Uniform outcome of ``run(spec)`` across modes and methods.

    ``estimates`` always carries the method's final point estimates (for
    replicated runs: the across-replication means); ``metrics`` carries
    per-metric error bars for replicated runs; ``tracking`` the checkpoint
    series for tracking runs.  Timing fields are the sampler's pass for
    single/tracking runs, checkpoint callbacks and a scalar drive's
    block-by-block conversion of int32 columns to pairs included (a
    tracking run's exact series is counted before it); for replicated
    runs they cover the whole protocol wall-clock — including
    process-pool startup and aggregation — so they measure the study,
    not the per-edge update.  ``in_stream``/``post_stream`` hold the full
    GPS estimate bundles (with variances and bounds) when the method
    exposes them.  ``counter`` is the live counter object of single/track
    passes — handy for checkpointing — and is excluded from serialisation.
    """

    spec: RunSpec
    mode: str  # "single" | "track" | "replicate" | "sharded"
    edges: int
    estimates: Dict[str, float]
    metrics: Dict[str, MetricSummary] = field(default_factory=dict)
    tracking: Tuple[TrackPoint, ...] = ()
    elapsed_seconds: float = 0.0
    update_time_us: float = 0.0
    edges_per_second: float = 0.0
    replications: int = 1
    workers: int = 0
    sample_size: Optional[int] = None
    threshold: Optional[float] = None
    in_stream: Optional[GraphEstimates] = None
    post_stream: Optional[GraphEstimates] = None
    #: The drive that ran the pass, as :func:`chunk_size_for` chose it:
    #: ``"chunked"`` when the counter, weight and stream all support
    #: the columnar gate, else ``"scalar"`` — a label-reading method or
    #: weight, labels that are not int32 ints (a file the columnar
    #: reader declines) or a counter without a vectorised gate (the
    #: in-stream estimator, topology-reading weights).  Seeded and
    #: unseeded passes choose alike, and results are bit-identical
    #: either way.
    pipeline: str = "scalar"
    #: Fault-tolerance cost of pooled dispatch: tasks resubmitted after
    #: worker failure / executors rebuilt after BrokenProcessPool (both
    #: zero for inline runs and fault-free pools).
    task_retries: int = 0
    pool_rebuilds: int = 0
    counter: Any = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict: specs round-trip, estimate bundles flatten.

        Example
        -------
        >>> from repro.api import RunSpec
        >>> report = RunReport(spec=RunSpec(source="a.txt"), mode="single",
        ...                    edges=3, estimates={"triangles": 1.0})
        >>> report.to_dict()["estimates"]
        {'triangles': 1.0}
        """
        out: Dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "mode": self.mode,
            "method": self.spec.method,
            "edges": self.edges,
            "estimates": dict(self.estimates),
            "metrics": {k: v.to_dict() for k, v in self.metrics.items()},
            "elapsed_seconds": self.elapsed_seconds,
            "update_time_us": self.update_time_us,
            "edges_per_second": self.edges_per_second,
            "replications": self.replications,
            "workers": self.workers,
            "sample_size": self.sample_size,
            "threshold": self.threshold,
            "pipeline": self.pipeline,
            "task_retries": self.task_retries,
            "pool_rebuilds": self.pool_rebuilds,
        }
        if self.tracking:
            out["tracking"] = [
                {
                    "position": p.position,
                    "exact_triangles": p.exact_triangles,
                    "exact_clustering": p.exact_clustering,
                    "estimate": p.estimate,
                    "are": p.are if p.are != float("inf") else None,
                }
                for p in self.tracking
            ]
        if self.in_stream is not None:
            out["in_stream"] = _estimates_dict(self.in_stream)
        if self.post_stream is not None:
            out["post_stream"] = _estimates_dict(self.post_stream)
        return out

    def to_json(self, **kwargs: Any) -> str:
        """The report as JSON text (what ``--json`` prints on the CLI)."""
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output (cache replay).

        Scalar fields, the spec, per-metric summaries and the tracking
        series round-trip; the live estimate-bundle objects
        (``in_stream``/``post_stream``) and the counter do not survive
        JSON flattening and come back as ``None``.  This is what the
        sweep cell cache replays on ``--resume``, where only the metric
        payload feeds aggregation.

        Example
        -------
        >>> from repro.api import RunSpec
        >>> report = RunReport(spec=RunSpec(source="a.txt"), mode="single",
        ...                    edges=3, estimates={"triangles": 1.0})
        >>> RunReport.from_dict(report.to_dict()).estimates
        {'triangles': 1.0}
        """
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            mode=data["mode"],
            edges=data["edges"],
            estimates=dict(data["estimates"]),
            metrics={
                name: MetricSummary(**summary)
                for name, summary in data.get("metrics", {}).items()
            },
            tracking=tuple(
                TrackPoint(
                    position=row["position"],
                    exact_triangles=row["exact_triangles"],
                    exact_clustering=row["exact_clustering"],
                    estimate=row["estimate"],
                )
                for row in data.get("tracking", ())
            ),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            update_time_us=data.get("update_time_us", 0.0),
            edges_per_second=data.get("edges_per_second", 0.0),
            replications=data.get("replications", 1),
            workers=data.get("workers", 0),
            sample_size=data.get("sample_size"),
            threshold=data.get("threshold"),
            pipeline=data.get("pipeline", "scalar"),
            task_retries=data.get("task_retries", 0),
            pool_rebuilds=data.get("pool_rebuilds", 0),
        )

    @property
    def triangle_estimate(self) -> float:
        """The method's triangle point estimate, whatever it named it.

        Raises instead of defaulting so a method registered with an
        unconventional metric set fails loudly in harnesses that compare
        triangle counts (Table 2) rather than scoring a silent 100% ARE.
        """
        for key in ("triangles", "in_stream_triangles"):
            if key in self.estimates:
                return self.estimates[key]
        raise KeyError(
            f"method {self.spec.method!r} reports no triangle metric; "
            f"available metrics: {sorted(self.estimates)}"
        )


# ----------------------------------------------------------------------
# Source resolution
# ----------------------------------------------------------------------
def _resolve_edges(source: str, graph: Optional[Any]) -> EdgeStream:
    """The edge population a spec streams, in canonical (pre-shuffle) order.

    Resolution order: an explicitly passed graph/edge sequence wins, then
    a dataset-registry name, then an edge-list file path.  Graphs resolve
    to the same repr-sorted order :meth:`EdgeStream.from_graph` shuffles,
    so seeded permutations are bit-identical to the legacy entry points;
    files keep their arrival order (the stream seed then permutes it).
    An :class:`EdgeStream` passes through as is, so a population the
    executor holds keeps its cached views across tasks.  A file becomes
    its population through :meth:`EdgeStream.from_file`, seeded run or
    not: int32 columns for an integer file, tuples for a file the
    columnar reader declines.
    """
    if graph is not None:
        if isinstance(graph, EdgeStream):
            return graph
        if isinstance(graph, AdjacencyGraph):
            return EdgeStream(EdgeStream.canonical_edges(graph))
        return EdgeStream(graph)
    # Lazy import: only registry names need the dataset module.
    from repro.experiments.datasets import DATASETS, make_graph

    if source in DATASETS:
        return EdgeStream(EdgeStream.canonical_edges(make_graph(source)))
    if os.path.exists(source):
        return EdgeStream.from_file(source)
    raise ValueError(
        f"cannot resolve source {source!r}: not a registered dataset "
        f"and no such file"
    )


def _resolve_weight(
    spec: RunSpec, method: MethodSpec, weight_fn: Optional[WeightFunction]
) -> Optional[WeightFunction]:
    requested = weight_fn if weight_fn is not None else (
        get_weight(spec.weight).factory() if spec.weight is not None else None
    )
    if requested is not None and not method.uses_weight:
        raise ValueError(
            f"method {spec.method!r} does not use a weight function; drop "
            f"the weight ({spec.weight or weight_fn!r}) or pick a "
            f"weight-aware method"
        )
    return requested


def _checked(
    spec: RunSpec, weight_fn: Optional[WeightFunction]
) -> Tuple[MethodSpec, Optional[WeightFunction]]:
    """The spec's method and weight, rejecting bad combinations up front.

    Runs before any source is resolved, so an unknown method, a weight
    on a weight-free method or a sharded non-shardable method fails
    before a replicated run starts any work.
    """
    method = get_method(spec.method)
    resolved = _resolve_weight(spec, method, weight_fn)
    if spec.shards > 1:
        from repro.shard.runner import validate_shardable_method

        validate_shardable_method(spec.method)
    return method, resolved


def chunk_size_for(
    method: MethodSpec,
    weight_fn: Optional[WeightFunction],
    counter: Any,
    population: EdgeStream,
) -> Optional[int]:
    """The engine chunk size for a pass, or ``None`` to drive it scalar.

    The one chunked-or-scalar decision, shared by :func:`run` and the
    sharded runner.  A pass drives columnar blocks only when every
    layer allows it: neither the method nor the weight reads node
    labels (a label-reading configuration must see the stream's
    original tuples), the counter's admission gate is vectorised
    (``chunk_vectorized``; false for e.g. the in-stream estimator,
    whose per-arrival snapshot leaves nothing to gate), and the
    population converts to int32 columns under its own labels, so
    samples, checkpoints and reports stay label-faithful.  The scalar
    drive gives bit-identical results, just slower; tests force it by
    patching this function.

    Example
    -------
    >>> from repro.core.weights import UniformWeight
    >>> method, weight = get_method("gps-post"), UniformWeight()
    >>> counter = method.make(10, 0, 1, weight_fn=weight)
    >>> chunk_size_for(method, weight, counter, EdgeStream([(0, 1)]))
    16384
    >>> chunk_size_for(method, weight, counter, EdgeStream([("a", "b")]))
    >>> chunk_size_for(method, None, method.make(10, 0, 1),
    ...                EdgeStream([(0, 1)]))  # triangle: no vectorised gate
    """
    if method.reads_labels:
        return None
    if weight_fn is not None and not is_label_free(weight_fn):
        return None
    if not getattr(counter, "chunk_vectorized", False):
        return None
    if population.columnar() is None:
        return None
    return DEFAULT_CHUNK_SIZE


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run(
    spec: RunSpec,
    *,
    graph: Optional[Any] = None,
    weight_fn: Optional[WeightFunction] = None,
    include_post: bool = False,
    faults: Optional[Any] = None,
) -> RunReport:
    """Execute one declarative spec and return its uniform report.

    Parameters
    ----------
    spec:
        The experiment description; its ``replications``/``checkpoints``
        fields select the replicated, tracking or single-pass mode.
    graph:
        Optional in-memory :class:`AdjacencyGraph` (or edge sequence)
        overriding ``spec.source`` resolution.
    weight_fn:
        Optional weight-function *instance* overriding ``spec.weight``
        (programmatic callers with unregistered weights).
    include_post:
        For tracking passes of GPS methods: also record the post-stream
        estimate bundle at every checkpoint (one Algorithm-2 evaluation
        per mark, so off by default; gps-post computes that bundle for
        its estimate anyway).
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or shared
        :class:`~repro.faults.FaultInjector`) consulted when a
        replicated run fans out over the process pool (site
        ``"replication"``).  Chaos testing only; inline runs ignore it.

    Example
    -------
    >>> from repro.api import RunSpec, run
    >>> report = run(RunSpec(source="infra-roadNet-CA", method="triest",
    ...                      budget=2000))
    >>> report.mode, sorted(report.estimates)
    ('single', ['triangles'])
    """
    method, resolved_weight = _checked(spec, weight_fn)
    if spec.replications > 1:
        return _run_replicated(spec, graph, weight_fn, faults=faults)

    population = _resolve_edges(spec.source, graph)

    if spec.shards > 1:
        return _run_sharded(spec, population, resolved_weight)

    counter = method.make(
        spec.budget, len(population), spec.sampler_seed,
        weight_fn=resolved_weight, core=spec.core,
    )
    chunk_size = chunk_size_for(method, resolved_weight, counter, population)
    stream = population.permuted(spec.stream_seed)
    if spec.checkpoints > 0:
        return _run_tracking(
            spec, method, counter, stream, include_post, chunk_size
        )
    stats = StreamEngine(counter, chunk_size=chunk_size).run(stream)
    return _finish_report(
        spec, mode="single", method=method, counter=counter, stats=stats,
        pipeline="chunked" if chunk_size else "scalar",
    )


def replicate(
    spec: RunSpec,
    *,
    graph: Optional[Any] = None,
    weight_fn: Optional[WeightFunction] = None,
) -> RunReport:
    """Force the replicated (error-bar) pass, even for ``replications=1``.

    ``run(spec)`` treats a single replication as an ordinary pass; this
    entry point always returns a ``mode="replicate"`` report with
    per-metric summaries (a one-value :class:`MetricSummary` collapses to
    its point estimate), which is what ``python -m repro replicate -R 1``
    means.

    Example
    -------
    >>> from repro.api import RunSpec, replicate
    >>> report = replicate(RunSpec(source="infra-roadNet-CA",
    ...                            method="triest", budget=2000,
    ...                            replications=4, workers=0))
    >>> report.mode, report.metrics["triangles"].count
    ('replicate', 4)
    """
    if spec.stream_seed is None:
        raise ValueError(
            "replicated runs need a base stream_seed (replication i "
            "streams the permutation seeded stream_seed + i)"
        )
    if spec.checkpoints > 0:
        # Mirror the RunSpec R>1 rule: the replicated pass aggregates
        # final estimates only and would silently drop the schedule.
        raise ValueError(
            "checkpoints and replicated execution are mutually exclusive"
        )
    _checked(spec, weight_fn)
    return _run_replicated(spec, graph, weight_fn)


def _run_sharded(
    spec: RunSpec,
    population: EdgeStream,
    weight_fn: Optional[WeightFunction],
) -> RunReport:
    """One sharded pass: route across ``spec.shards`` samplers and merge.

    Shard ``s`` seeds its sampler with ``sampler_seed·shards + s``, so
    the replications of a sharded study — single-pass specs whose
    sampler seeds step by one — never share an RNG stream.
    """
    from repro.shard.runner import ShardedRunner
    from repro.shard.spec import ShardSpec

    result = ShardedRunner.from_layout(
        population,
        ShardSpec(shards=spec.shards),
        budget=spec.budget,
        method=spec.method,
        weight_fn=weight_fn,
        stream_seed=spec.stream_seed,
        sampler_seed=spec.sampler_seed,
        core=spec.core,
    ).run()
    bundle = result.estimates
    elapsed = result.elapsed_seconds
    return RunReport(
        spec=spec,
        mode="sharded",
        edges=result.edges,
        estimates={
            name: getattr(bundle, name).value
            for name in ("triangles", "wedges", "clustering")
        },
        elapsed_seconds=elapsed,
        update_time_us=elapsed / max(1, result.edges) * 1e6,
        edges_per_second=(
            result.edges / elapsed if elapsed > 0 else float("inf")
        ),
        sample_size=bundle.sample_size,
        threshold=bundle.threshold,
        post_stream=bundle,
        pipeline=result.pipeline,
    )


def _run_replicated(
    spec: RunSpec,
    graph: Optional[Any],
    weight_fn: Optional[WeightFunction],
    faults: Optional[Any] = None,
) -> RunReport:
    """R seeded single-pass specs on :func:`execute`, summarised per metric.

    Replication ``i`` streams the permutation seeded ``stream_seed + i``
    and seeds its method with ``sampler_seed + i``; the source resolves
    once and every task reads that one population.
    """
    assert spec.stream_seed is not None  # spec validation enforces it
    started = time.perf_counter()
    edges = _resolve_edges(spec.source, graph)
    tasks = [
        spec.replace(
            replications=1,
            stream_seed=spec.stream_seed + i,
            sampler_seed=spec.sampler_seed + i,
        )
        for i in range(spec.replications)
    ]
    workers = resolve_workers(spec.workers, len(tasks))
    reports, stats = execute(
        tasks,
        workers=workers,
        populations={spec.source: edges},
        weight_fn=weight_fn,
        faults=faults,
        site="replication",
    )
    elapsed = time.perf_counter() - started
    metrics = summarise(reports)
    total = len(edges) * spec.replications
    return RunReport(
        spec=spec,
        mode="replicate",
        edges=len(edges),
        estimates={name: s.mean for name, s in metrics.items()},
        metrics=metrics,
        elapsed_seconds=elapsed,
        update_time_us=elapsed / max(1, total) * 1e6,
        edges_per_second=total / elapsed if elapsed > 0 else float("inf"),
        replications=spec.replications,
        workers=workers,
        pipeline=reports[0].pipeline,
        task_retries=stats.task_retries,
        pool_rebuilds=stats.pool_rebuilds,
    )


def summarise(reports: Sequence[RunReport]) -> Dict[str, MetricSummary]:
    """Per-metric :class:`MetricSummary` across replication reports.

    The one aggregation rule of replicated runs and sweep cells: every
    metric the first report carries, summarised over all reports in
    order (Welford's order is part of the bit-exact contract).

    Example
    -------
    >>> spec = RunSpec(source="a.txt")
    >>> reports = [RunReport(spec=spec, mode="single", edges=3,
    ...                      estimates={"triangles": value})
    ...            for value in (1.0, 3.0)]
    >>> summary = summarise(reports)["triangles"]
    >>> summary.mean, summary.count
    (2.0, 2)
    """
    return {
        name: MetricSummary.from_values([r.estimates[name] for r in reports])
        for name in reports[0].estimates
    }


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
def resolve_workers(workers: Optional[int], tasks: int) -> int:
    """Pool size for ``tasks`` independent tasks; ``0`` means inline.

    One task always runs inline.  ``None`` auto-sizes to
    ``min(tasks, cpu, 8)``, floored at 2 when the machine has at least
    2 cores so aggregation is exercised in parallel by default — but
    never more processes than cores.  An explicit size is capped at the
    task count.

    Example
    -------
    >>> resolve_workers(4, 1), resolve_workers(4, 3), resolve_workers(0, 9)
    (0, 3, 0)
    """
    if tasks <= 1:
        return 0
    if workers is None:
        cpu = os.cpu_count() or 1
        return max(min(2, cpu), min(tasks, cpu, 8))
    return min(workers, tasks)


def execute(
    specs: Sequence[RunSpec],
    *,
    workers: int,
    populations: Optional[Mapping[str, Sequence[Edge]]] = None,
    weight_fn: Optional[WeightFunction] = None,
    include_post: bool = False,
    faults: Optional[Any] = None,
    retry_budget: int = DEFAULT_RETRY_BUDGET,
    site: str = "",
    on_result: Optional[Callable[[int, RunReport], None]] = None,
) -> Tuple[List[RunReport], RetryStats]:
    """Run independent single-pass specs; one report per spec, in order.

    Each task is ``run(spec, graph=population)`` with the live counter
    stripped from its report, so a task is a pure function of its spec
    and the result is bit-identical inline (``workers=0``) and pooled.

    Every distinct ``spec.source`` resolves once — from ``populations``
    when the caller already holds it, else from the dataset registry or
    the file — into one :class:`~repro.streams.stream.EdgeStream` that
    every task of that source shares, so its int32 columns are built at
    most once per process.  The population also holds the arrival order
    it last permuted (:meth:`~repro.streams.stream.EdgeStream.permuted`),
    so consecutive tasks of one stream seed permute once.  Inline
    execution holds one source at a time (sweep specs come grouped by
    source, then by stream seed).  In pool mode a
    population whose labels are all int32 ints is published once,
    straight from its columns, through
    :class:`~repro.engine.shared_edges.SharedEdgePopulation` under its
    own labels, and workers attach it as a column-backed stream; any
    other population travels in the pool initializer's arguments.
    Either way a label-reading weight or router sees the original
    labels.  The pool is
    :func:`~repro.engine.resilient.run_resilient`: failed tasks are
    resubmitted up to ``retry_budget`` times, a broken pool is rebuilt
    (re-publishing lost segments), ``faults`` are consulted at
    ``site``, and every published segment is unlinked on success,
    failure and KeyboardInterrupt.  ``on_result(i, report)`` is called
    in this process for each spec, in order, as soon as its report (and
    every earlier one) is in hand, inline and pooled alike.

    Example
    -------
    >>> from repro.api import RunSpec
    >>> from repro.graph.generators import erdos_renyi_gnm
    >>> graph = erdos_renyi_gnm(30, 60, seed=0)
    >>> specs = [RunSpec(source="g", method="triest", budget=20,
    ...                  stream_seed=i) for i in range(3)]
    >>> reports, stats = execute(specs, workers=0, populations={"g": graph})
    >>> len(reports), stats.task_retries
    (3, 0)
    """
    given = populations or {}

    def population(source: str) -> EdgeStream:
        return _resolve_edges(source, given.get(source))

    if workers == 0:
        reports: List[RunReport] = []
        held, edges = None, None
        for index, spec in enumerate(specs):
            if spec.source != held:
                edges = None  # release the previous source first
                held, edges = spec.source, population(spec.source)
            reports.append(_run_task(spec, edges, weight_fn, include_post))
            if on_result is not None:
                on_result(index, reports[-1])
        return reports, RetryStats()

    edges_of = {
        source: population(source)
        for source in dict.fromkeys(spec.source for spec in specs)
    }
    published: List[SharedEdgePopulation] = []
    shared: Dict[str, Descriptor] = {}

    def publish(source: str) -> None:
        segment = SharedEdgePopulation.publish(edges_of[source])
        published.append(segment)
        shared[source] = segment.descriptor

    def initargs() -> Tuple[Any, ...]:
        pickled = {s: e for s, e in edges_of.items() if s not in shared}
        return (dict(shared), pickled, weight_fn, include_post)

    def refresh() -> Optional[Tuple[Any, ...]]:
        # A dead worker cannot unlink the parent's segments, but a
        # platform cleanup can; probe each one and republish the lost.
        lost = []
        for source, descriptor in shared.items():
            try:
                SharedEdgePopulation.attach_columns(descriptor)
            except (OSError, ValueError):
                lost.append(source)
        for source in lost:
            publish(source)
        return initargs() if lost else None

    try:
        if shared_memory_available():
            for source, edges in edges_of.items():
                if edges.columnar() is not None:
                    publish(source)
        return run_resilient(
            _pool_task,
            list(specs),
            workers=workers,
            initializer=_pool_initializer,
            initargs=initargs(),
            retry_budget=retry_budget,
            injector=coerce_injector(faults),
            site=site,
            refresh=refresh,
            on_result=on_result,
        )
    finally:
        for segment in published:
            segment.close()
            segment.unlink()


def _run_task(
    spec: RunSpec,
    edges: Any,
    weight_fn: Optional[WeightFunction],
    include_post: bool,
) -> RunReport:
    """One executor task: a single pass over the held population."""
    report = run(spec, graph=edges, weight_fn=weight_fn,
                 include_post=include_post)
    return dataclasses.replace(report, counter=None)


# Per-worker state, set once by the pool initializer: every source's
# population plus the options shared by all tasks of one execute().
_WORKER_STATE: Tuple[Dict[str, Any], Optional[WeightFunction], bool] = (
    {}, None, False,
)


def _pool_initializer(
    shared: Dict[str, Descriptor],
    pickled: Dict[str, Any],
    weight_fn: Optional[WeightFunction],
    include_post: bool,
) -> None:
    """Attach each published population once per worker, as columns."""
    global _WORKER_STATE
    populations = dict(pickled)
    for source, descriptor in shared.items():
        populations[source] = EdgeStream.from_columns(
            *SharedEdgePopulation.attach_columns(descriptor)
        )
    _WORKER_STATE = (populations, weight_fn, include_post)


def _pool_task(spec: RunSpec) -> RunReport:
    """Worker entry point (module-level, so the pool can pickle it)."""
    populations, weight_fn, include_post = _WORKER_STATE
    return _run_task(spec, populations[spec.source], weight_fn, include_post)


def _run_tracking(
    spec: RunSpec,
    method: MethodSpec,
    counter: Any,
    stream: EdgeStream,
    include_post: bool,
    chunk_size: Optional[int] = None,
) -> RunReport:
    """One pass recording a :class:`TrackPoint` at every mark.

    The exact series is counted before the pass, from the stream's
    int32 columns (:meth:`EdgeStream.id_columns`), so the report's
    timing covers the sampler, and on a batched drive over columns the
    conversion of each block to Python int pairs too (a few ms per 200k
    edges).
    """
    marks = stream.checkpoints(spec.checkpoints)
    exact = iter(prefix_counts(*stream.id_columns(), marks))
    points: List[TrackPoint] = []
    is_gps = isinstance(counter, IN_STREAM_TYPES)
    sampler = getattr(counter, "sampler", None)
    # One Algorithm-2 pass per mark serves gps-post's estimate and the
    # include_post bundle; the last (the stream's end) serves the report.
    is_post = isinstance(counter, GpsPostStreamAdapter)
    bundles: List[Optional[GraphEstimates]] = []

    def record(position: int) -> None:
        triangles, wedges = next(exact)
        post = None
        if is_post or (include_post and sampler is not None):
            post = PostStreamEstimator(sampler).estimate()
        bundles.append(post)
        points.append(
            TrackPoint(
                position=position,
                exact_triangles=triangles,
                exact_clustering=(
                    3.0 * triangles / wedges if wedges else 0.0
                ),
                estimate=(
                    post.triangles.value if is_post
                    else float(counter.triangle_estimate)
                ),
                in_stream=counter.estimates() if is_gps else None,
                post_stream=post if include_post else None,
            )
        )

    stats = StreamEngine(counter, chunk_size=chunk_size).run(
        stream, checkpoints=marks, on_checkpoint=record
    )
    return _finish_report(
        spec, mode="track", method=method, counter=counter, stats=stats,
        tracking=tuple(points),
        pipeline="chunked" if chunk_size else "scalar",
        post_stream=bundles[-1] if stats.edges in marks[-1:] else None,
    )


def _finish_report(
    spec: RunSpec,
    *,
    mode: str,
    method: MethodSpec,
    counter: Any,
    stats: EngineStats,
    tracking: Tuple[TrackPoint, ...] = (),
    pipeline: str = "scalar",
    post_stream: Optional[GraphEstimates] = None,  # at the final state
) -> RunReport:
    sampler = getattr(counter, "sampler", None)
    in_stream = (
        counter.estimates() if isinstance(counter, IN_STREAM_TYPES) else None
    )
    if sampler is None or not method.wants_post_stream:
        post_stream = None
    elif post_stream is None:
        post_stream = PostStreamEstimator(sampler).estimate()
    if method.from_bundles is not None and (
        in_stream is not None or post_stream is not None
    ):
        # Derive metrics from the bundles just computed instead of letting
        # the extractor re-run Algorithm 2 over the reservoir.
        estimates = method.from_bundles(in_stream, post_stream)
    else:
        estimates = method.extract(counter)
    return RunReport(
        spec=spec,
        mode=mode,
        edges=stats.edges,
        estimates=estimates,
        tracking=tracking,
        elapsed_seconds=stats.elapsed_seconds,
        update_time_us=stats.update_time_us,
        edges_per_second=stats.edges_per_second,
        sample_size=sampler.sample_size if sampler is not None else None,
        threshold=sampler.threshold if sampler is not None else None,
        in_stream=in_stream,
        post_stream=post_stream,
        pipeline=pipeline,
        counter=counter,
    )


__all__ = [
    "MetricSummary",
    "RunReport",
    "TrackPoint",
    "chunk_size_for",
    "execute",
    "replicate",
    "resolve_workers",
    "run",
    "summarise",
]
