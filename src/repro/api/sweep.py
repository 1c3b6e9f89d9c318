"""Spec-driven sweeps: grids of :class:`RunSpec`\\ s with cached ground truth.

The paper's evaluation is a *grid* — every method × budget × dataset,
replicated over seed pairs (Tables 2–3, Figures 1–3) — and before this
module every harness hand-rolled its own nested loops and recomputed the
exact triangle counts per cell.  A :class:`SweepSpec` freezes the whole
grid into one declarative value object (JSON round trip included, like
:class:`~repro.api.spec.RunSpec`), expands it into concrete ``RunSpec``
cells, and :func:`run_sweep` executes them through the existing
``run(spec)`` machinery with

* one :func:`~repro.api.execution.execute` call for every pending
  replication of every cell — a shared process pool, or inline with
  ``workers=0``, bit-identically — with each source resolved once;
* a content-addressed :class:`~repro.api.ground_truth.GroundTruthCache`
  so exact statistics are computed once per source and reused by every
  cell of the grid — and by every later sweep pointed at the same cache
  directory;
* an optional per-replication report cache (same directory,
  ``cells/``), written as each replication finishes, that lets
  ``python -m repro sweep --resume`` skip already-computed
  replications — also after a crash or a kill mid-grid.

The result is a :class:`SweepReport`: per-cell metric summaries (mean /
variance / 95% CI across the seed replications), relative-error
matrices against the cached ground truth, and CSV/JSON export.  The
table and figure harnesses (:mod:`repro.experiments`) are thin
projections of sweep reports.

Example
-------
>>> from repro.api import SweepSpec, run_sweep
>>> spec = SweepSpec(sources=("infra-roadNet-CA",),
...                  methods=("triest", "gps-post"),
...                  budgets=(1000, 2000), runs=3, workers=0)
>>> report = run_sweep(spec)                                # doctest: +SKIP
>>> report.cell("infra-roadNet-CA", "triest", 1000).relative_error  # doctest: +SKIP
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.execution import (
    MetricSummary,
    RunReport,
    execute,
    resolve_workers,
    summarise,
)
from repro.api.ground_truth import (
    ContentAddressedStore,
    GroundTruthCache,
    content_key,
)
from repro.api.spec import RunSpec, require_int
from repro.core.compact import CORES, DEFAULT_CORE
from repro.engine.resilient import DEFAULT_RETRY_BUDGET
from repro.faults.corruption import corrupt_entry
from repro.faults.injector import FaultInjector, coerce_injector
from repro.graph.exact import GraphStatistics
from repro.stats.metrics import absolute_relative_error

#: Axes a per-source override may replace.
_OVERRIDE_AXES = ("budgets", "methods", "runs", "shards", "weights")

#: What to do with a cell whose budget exceeds its source's edge count.
BUDGET_POLICIES = ("keep", "clip", "skip")


class _Any:
    """Wildcard default for :meth:`SweepReport.cell` lookups.

    Distinct from ``None``, which is a legitimate weight value (the
    method's own default weight) and must stay selectable.
    """

    def __repr__(self) -> str:
        return "ANY"


#: Pass explicitly to match any value of an axis in ``SweepReport.cell``.
ANY = _Any()


# ----------------------------------------------------------------------
# The grid specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """One declarative experiment grid.

    Attributes
    ----------
    sources:
        Dataset-registry names and/or edge-list paths; the outermost axis.
    methods / budgets / weights / shards:
        The remaining grid axes (cells enumerate source → method →
        budget → weight → shard count).  A weight is only meaningful for
        weight-aware methods; for weight-free methods the weight axis
        collapses to ``None`` and the duplicate cells are deduplicated,
        so mixed grids like
        ``methods=("gps", "triest"), weights=("triangle", "uniform")``
        do the right thing.  Shard counts > 1 likewise collapse to 1 for
        methods outside :data:`repro.shard.runner.SHARDABLE_METHODS`
        (sharded merging is a post-stream Horvitz–Thompson pass), so
        variance-vs-S grids can mix sharded GPS with baselines.
    runs:
        Seed replications per cell: run ``i`` uses
        ``(base_stream_seed + i, base_sampler_seed + i)``, the protocol
        every harness shares.
    checkpoints:
        Tracking marks per run (``0`` disables tracking) — Table 3 grids.
    include_post:
        For tracking runs of GPS methods: also record the post-stream
        bundle at every mark (one Algorithm-2 evaluation per mark).
    budget_policy:
        ``"keep"`` cells as specified, ``"clip"`` budgets to the source's
        edge count (Figure 1), or ``"skip"`` oversized cells entirely
        (Figure 2).  Applied by :func:`run_sweep` using cached ground
        truth.
    workers:
        Shared process-pool size for cell execution (``0`` inline,
        ``None`` auto-sized).  Results are identical either way — every
        cell is deterministic given its seeds.
    core:
        GPS reservoir core threaded into every cell's :class:`RunSpec`
        (``"compact"`` default / ``"object"`` reference); bit-identical
        results, so purely a performance switch.
    overrides:
        Per-source axis overrides, ``{source: {axis: value}}`` with axes
        from ``budgets``/``methods``/``weights``/``runs`` — e.g. give one
        dataset its own budget ladder without splitting the sweep.

    Example
    -------
    >>> spec = SweepSpec(sources=("com-amazon",), methods=("triest",),
    ...                  budgets=(500, 1000), runs=2)
    >>> SweepSpec.from_json(spec.to_json()) == spec
    True
    >>> len(spec.expand())
    2
    """

    sources: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ("gps",)
    budgets: Tuple[int, ...] = (1000,)
    weights: Tuple[Optional[str], ...] = (None,)
    shards: Tuple[int, ...] = (1,)
    runs: int = 1
    base_stream_seed: int = 0
    base_sampler_seed: int = 1
    checkpoints: int = 0
    include_post: bool = False
    budget_policy: str = "keep"
    workers: Optional[int] = None
    core: str = DEFAULT_CORE
    overrides: Any = ()

    def __post_init__(self) -> None:
        for axis in ("sources", "methods", "budgets", "weights", "shards"):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        object.__setattr__(
            self, "overrides", _normalise_overrides(self.overrides)
        )
        for axis in ("sources", "methods", "budgets", "weights", "shards"):
            if not getattr(self, axis):
                raise ValueError(f"sweep axis {axis!r} must not be empty")
        for source in self.sources:
            if not isinstance(source, str) or not source:
                raise ValueError("sources must be non-empty strings")
        for budget in self.budgets:
            if not isinstance(budget, int) or budget <= 0:
                raise ValueError("budgets must be positive integers")
        for shard_count in self.shards:
            if not isinstance(shard_count, int) or shard_count < 1:
                raise ValueError("shards must be integers >= 1")
        for name in (
            "runs", "checkpoints", "base_stream_seed", "base_sampler_seed"
        ):
            require_int(name, getattr(self, name))
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.checkpoints < 0:
            raise ValueError("checkpoints must be >= 0")
        if self.budget_policy not in BUDGET_POLICIES:
            raise ValueError(
                f"budget_policy must be one of {BUDGET_POLICIES}, "
                f"got {self.budget_policy!r}"
            )
        if self.workers is not None and self.workers < 0:
            raise ValueError("workers must be >= 0 (0 runs inline)")
        if self.core not in CORES:
            raise ValueError(
                f"core must be one of {CORES}, got {self.core!r}"
            )
        known = set(self.sources)
        for source, axes in self.overrides:
            if source not in known:
                raise ValueError(
                    f"override for {source!r} does not match any source"
                )
            for axis, value in axes:
                if axis == "runs":
                    if not isinstance(value, int) or value < 1:
                        raise ValueError("runs override must be an int >= 1")
                elif not value:
                    raise ValueError(
                        f"override axis {axis!r} for {source!r} must not "
                        f"be empty"
                    )

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    @property
    def overrides_map(self) -> Dict[str, Dict[str, Any]]:
        """The overrides as a plain ``{source: {axis: value}}`` dict."""
        return {
            source: {axis: value for axis, value in axes}
            for source, axes in self.overrides
        }

    def _axis(self, source: str, axis: str) -> Any:
        return self.overrides_map.get(source, {}).get(
            axis, getattr(self, axis)
        )

    def expand(self) -> Tuple["SweepCell", ...]:
        """The grid as concrete cells, deduplicated, in grid order.

        Cells enumerate source → method → budget → weight → shard count
        (per-source overrides applied); each cell carries its ``runs``
        seeded :class:`RunSpec` replications.  Weights collapse to
        ``None`` for weight-free methods, shard counts collapse to 1 for
        methods outside the shardable set, and exact duplicate cells
        (repeated axis values, collapsed weights/shards) are dropped,
        keeping the first.
        """
        from repro.api.registry import get_method
        from repro.shard.runner import SHARDABLE_METHODS

        cells: List[SweepCell] = []
        seen: set = set()
        for source in self.sources:
            runs = self._axis(source, "runs")
            for method in self._axis(source, "methods"):
                uses_weight = get_method(method).uses_weight
                shardable = method in SHARDABLE_METHODS
                for budget in self._axis(source, "budgets"):
                    for weight in self._axis(source, "weights"):
                        effective = weight if uses_weight else None
                        for shard_count in self._axis(source, "shards"):
                            layout = shard_count if shardable else 1
                            key = CellKey(
                                source, method, budget, effective, layout
                            )
                            if key in seen:
                                continue
                            seen.add(key)
                            cells.append(_make_cell(key, runs, self))
        return tuple(cells)

    # ------------------------------------------------------------------
    # Serialisation (mirrors RunSpec)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe; inverse of :meth:`from_dict`).

        Example
        -------
        >>> SweepSpec(sources=("a.txt",)).to_dict()["budget_policy"]
        'keep'
        """
        out = dataclasses.asdict(self)
        for axis in ("sources", "methods", "budgets", "weights", "shards"):
            out[axis] = list(out[axis])
        out["overrides"] = {
            source: {
                axis: (value if axis == "runs" else list(value))
                for axis, value in axes
            }
            for source, axes in self.overrides
        }
        return out

    def to_json(self, **kwargs: Any) -> str:
        """JSON text form; ``SweepSpec.from_json`` inverts it losslessly."""
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output; unknown keys raise.

        Example
        -------
        >>> SweepSpec.from_dict({"sources": ["a.txt"]}).sources
        ('a.txt',)
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SweepSpec fields: {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "SweepSpec":
        """A copy with ``changes`` applied (re-runs validation).

        Example
        -------
        >>> SweepSpec(sources=("a.txt",)).replace(runs=4).runs
        4
        """
        return dataclasses.replace(self, **changes)


def _normalise_overrides(overrides: Any) -> Tuple[Any, ...]:
    """Canonical, hashable form: sorted ``((source, ((axis, value), …)), …)``."""
    if not overrides:
        return ()
    if isinstance(overrides, Mapping):
        items = overrides.items()
    else:  # already the canonical tuple form (e.g. via replace())
        items = [(source, dict(axes)) for source, axes in overrides]
    out = []
    for source, axes in sorted(items):
        if not isinstance(axes, Mapping):
            raise ValueError(
                f"override for {source!r} must map axes to values"
            )
        unknown = set(axes) - set(_OVERRIDE_AXES)
        if unknown:
            raise ValueError(
                f"unknown override axes {sorted(unknown)} for {source!r}; "
                f"known: {list(_OVERRIDE_AXES)}"
            )
        canon = tuple(
            (axis, axes[axis] if axis == "runs" else tuple(axes[axis]))
            for axis in _OVERRIDE_AXES
            if axis in axes
        )
        out.append((source, canon))
    return tuple(out)


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellKey:
    """One logical grid point: ``(source, method, budget, weight, shards)``."""

    source: str
    method: str
    budget: int
    weight: Optional[str] = None
    shards: int = 1


@dataclass(frozen=True)
class SweepCell:
    """A grid point together with its seeded per-run specs."""

    key: CellKey
    specs: Tuple[RunSpec, ...]


def _make_cell(key: CellKey, runs: int, sweep: SweepSpec) -> SweepCell:
    return SweepCell(
        key=key,
        specs=tuple(
            RunSpec(
                source=key.source,
                method=key.method,
                budget=key.budget,
                weight=key.weight,
                stream_seed=sweep.base_stream_seed + i,
                sampler_seed=sweep.base_sampler_seed + i,
                checkpoints=sweep.checkpoints,
                core=sweep.core,
                shards=key.shards,
            )
            for i in range(runs)
        ),
    )


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of one grid cell across its seed replications.

    ``metrics`` summarises every metric the method reports (mean /
    variance / 95% CI across runs); ``triangles`` is the canonical
    triangle summary (None only for methods without a triangle metric);
    ``relative_error`` is the ARE of the *mean* estimate against the
    cached exact count — the paper's ``|E[X̂]−X|/X``.  ``cached_runs``
    counts replications served from the cell cache on a resumed sweep.
    """

    key: CellKey
    reports: Tuple[RunReport, ...]
    metrics: Dict[str, MetricSummary]
    ground_truth: GraphStatistics
    triangles: Optional[MetricSummary] = None
    relative_error: Optional[float] = None
    update_time: Optional[MetricSummary] = None
    cached_runs: int = 0

    @property
    def runs(self) -> int:
        return len(self.reports)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "source": self.key.source,
            "method": self.key.method,
            "budget": self.key.budget,
            "weight": self.key.weight,
            "shards": self.key.shards,
            "runs": self.runs,
            "cached_runs": self.cached_runs,
            "ground_truth": self.ground_truth.as_dict(),
            "metrics": {
                name: summary.to_dict()
                for name, summary in self.metrics.items()
            },
            "relative_error": self.relative_error,
        }
        if self.triangles is not None:
            out["triangles"] = self.triangles.to_dict()
        if self.update_time is not None:
            out["update_time_us"] = self.update_time.mean
        return out


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepReport:
    """Uniform outcome of :func:`run_sweep`.

    Cells appear in grid order (source → method → budget → weight).  The
    cache counters make reuse observable: ``ground_truth_hits`` counts
    exact recounts avoided, ``cell_cache_hits`` counts replications a
    resumed sweep did not re-execute.
    """

    spec: SweepSpec
    cells: Tuple[CellResult, ...]
    elapsed_seconds: float = 0.0
    ground_truth_hits: int = 0
    ground_truth_misses: int = 0
    cell_cache_hits: int = 0
    cell_cache_misses: int = 0
    workers: int = 0
    cache_dir: Optional[str] = None
    skipped: Tuple[CellKey, ...] = ()
    #: Fault-tolerance cost: pooled replications resubmitted.
    task_retries: int = 0
    #: Fault-tolerance cost: executors rebuilt after BrokenProcessPool.
    pool_rebuilds: int = 0
    #: Corrupt cache entries set aside (and recounted) this run.
    cache_quarantined: int = 0

    def cell(
        self,
        source: str,
        method: str,
        budget: Any = ANY,
        weight: Any = ANY,
        shards: Any = ANY,
    ) -> CellResult:
        """Look one cell up; unspecified axes must match uniquely.

        ``budget``/``weight``/``shards`` default to the :data:`ANY`
        wildcard; ``weight=None`` selects cells whose weight is
        *literally* None (the method's default weight), which is why the
        wildcard is a sentinel rather than None.
        """
        matches = [
            c
            for c in self.cells
            if c.key.source == source
            and c.key.method == method
            and (budget is ANY or c.key.budget == budget)
            and (weight is ANY or c.key.weight == weight)
            and (shards is ANY or c.key.shards == shards)
        ]
        if not matches:
            raise KeyError(
                f"no cell ({source!r}, {method!r}, budget={budget}, "
                f"weight={weight}) in this sweep"
            )
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous cell lookup ({source!r}, {method!r}): "
                f"{len(matches)} matches; pass budget/weight"
            )
        return matches[0]

    def error_matrix(self, source: str) -> Dict[str, Any]:
        """Relative-error matrix of one source: methods × budgets.

        Returns ``{"methods": […], "budgets": […], "errors": rows}``
        where ``rows[i][j]`` is the relative error of method ``i`` at
        budget ``j`` (None for skipped/absent cells).  Cells differing
        only in weight are reported as separate "method[weight]" rows;
        sharded cells get "method@Sn" rows (variance-vs-S curves read
        straight off the matrix).
        """
        labels: List[str] = []
        budgets: List[int] = []
        values: Dict[Tuple[str, int], float] = {}
        for cell in self.cells:
            if cell.key.source != source:
                continue
            label = cell.key.method + (
                f"[{cell.key.weight}]" if cell.key.weight else ""
            ) + (f"@S{cell.key.shards}" if cell.key.shards > 1 else "")
            if label not in labels:
                labels.append(label)
            if cell.key.budget not in budgets:
                budgets.append(cell.key.budget)
            values[(label, cell.key.budget)] = cell.relative_error
        return {
            "methods": labels,
            "budgets": budgets,
            "errors": [
                [values.get((label, budget)) for budget in budgets]
                for label in labels
            ],
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
            "skipped": [dataclasses.asdict(key) for key in self.skipped],
            "elapsed_seconds": self.elapsed_seconds,
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "cache": {
                "ground_truth_hits": self.ground_truth_hits,
                "ground_truth_misses": self.ground_truth_misses,
                "cell_hits": self.cell_cache_hits,
                "cell_misses": self.cell_cache_misses,
                "quarantined": self.cache_quarantined,
            },
            "resilience": {
                "task_retries": self.task_retries,
                "pool_rebuilds": self.pool_rebuilds,
            },
        }

    def to_json(self, **kwargs: Any) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)

    def to_csv(self) -> str:
        """One CSV row per cell: identity, triangle summary, error, time."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            [
                "source", "method", "budget", "weight", "runs", "shards",
                "triangles_mean", "triangles_ci_low", "triangles_ci_high",
                "exact_triangles", "relative_error", "update_time_us",
                "cached_runs",
            ]
        )
        for cell in self.cells:
            tri = cell.triangles
            writer.writerow(
                [
                    cell.key.source,
                    cell.key.method,
                    cell.key.budget,
                    cell.key.weight or "",
                    cell.runs,
                    cell.key.shards,
                    "" if tri is None else repr(tri.mean),
                    "" if tri is None else repr(tri.ci_low),
                    "" if tri is None else repr(tri.ci_high),
                    cell.ground_truth.triangles,
                    "" if cell.relative_error is None
                    else repr(cell.relative_error),
                    "" if cell.update_time is None
                    else repr(cell.update_time.mean),
                    cell.cached_runs,
                ]
            )
        return buffer.getvalue()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def cell_report_key(
    spec: RunSpec, include_post: bool, source_key: str
) -> str:
    """Content address of one replication's report.

    The spec's ``source`` string is replaced by its *content* key, so a
    renamed-but-identical edge list hits and an edited one misses.  The
    package version is folded in as a coarse guard against replaying
    estimates produced by older estimator code; *within* one version,
    editing an estimator without bumping it still replays stale cells —
    clear the cache directory (or skip ``--resume``) after such edits.

    Example
    -------
    >>> spec = RunSpec(source="g.txt", method="triest", budget=10)
    >>> key = cell_report_key(spec, False, "0" * 64)
    >>> len(key), key == cell_report_key(spec, False, "0" * 64)
    (64, True)
    >>> key == cell_report_key(spec, True, "0" * 64)
    False
    """
    from repro import __version__

    descriptor = dict(spec.to_dict(), source={"content": source_key})
    return content_key({"kind": "cell", "include_post": include_post,
                        "repro": __version__, "spec": descriptor})


def run_sweep(
    spec: SweepSpec,
    *,
    cache_dir: Optional[os.PathLike] = None,
    resume: bool = False,
    ground_truth: Optional[GroundTruthCache] = None,
    faults=None,
    retry_budget: int = DEFAULT_RETRY_BUDGET,
) -> SweepReport:
    """Execute one sweep grid and return its aggregated report.

    Parameters
    ----------
    spec:
        The grid description.
    cache_dir:
        Root of the on-disk cache.  Ground truth (``ground_truth/``) and
        per-replication reports (``cells/``) are written there, each
        report the moment its replication finishes (inline or pooled),
        so a sweep that dies mid-grid — an exception, a crash, a kill —
        keeps every replication it completed.  Replications run grouped
        by source, then by stream seed (every cell's run ``i`` shares
        one arrival order, permuted once), so a killed sweep has kept
        whole seeds rather than whole cells.  Without it, ground truth
        is still shared in-process across all cells.
    resume:
        Reuse cached per-replication reports instead of re-executing
        them, so only the replications a killed or failed sweep did not
        finish run again.  Resumed reports carry their full
        metric/estimate payload but not live estimate-bundle objects
        (``in_stream`` and the like), which do not round-trip through
        JSON.  Cache entries are keyed by spec + source content +
        package version — *not* by estimator code — so after editing a
        method's implementation, clear the cache directory rather than
        resuming over stale estimates.
    ground_truth:
        Inject a pre-warmed :class:`GroundTruthCache` (tests, long-lived
        services); defaults to a fresh cache rooted at ``cache_dir``.
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or shared
        :class:`~repro.faults.FaultInjector`): ``crash-worker`` /
        ``raise-task`` faults target the pooled replications (site
        ``"sweep"``), ``corrupt-cache`` faults mangle stored cell
        entries (site ``"sweep-cache"``) before the resume scan reads
        them.  Chaos testing only; production sweeps pass ``None``.
    retry_budget:
        Per-replication resubmissions allowed beyond the first attempt
        (see :func:`repro.engine.resilient.run_resilient`).

    Example
    -------
    >>> from repro.api import SweepSpec, run_sweep
    >>> report = run_sweep(SweepSpec(sources=("com-amazon",),
    ...     methods=("triest",), budgets=(500,), workers=0))  # doctest: +SKIP
    >>> report.cells[0].relative_error                        # doctest: +SKIP
    """
    started = time.perf_counter()
    injector = coerce_injector(faults)
    root = Path(cache_dir) if cache_dir is not None else None
    gt_cache = ground_truth or GroundTruthCache(root)
    cell_store = ContentAddressedStore(
        root / "cells" if root is not None else None
    )
    gt_hits_before = gt_cache.hits
    gt_misses_before = gt_cache.misses
    gt_quarantined_before = gt_cache.quarantined
    if injector is not None and cell_store.root is not None:
        _apply_cache_faults(injector, cell_store.root)

    cells = spec.expand()
    truths = {
        source: gt_cache.statistics(source)
        for source in dict.fromkeys(cell.key.source for cell in cells)
    }
    cells, skipped = _apply_budget_policy(spec, cells, truths)

    # Gather the flat replication list; serve what we can from the cache.
    # Cell keys (which content-hash the source) are only computed when a
    # disk store is actually attached.
    cell_cache_on = cell_store.root is not None

    def report_key(run_spec: RunSpec) -> str:
        return cell_report_key(
            run_spec, spec.include_post, gt_cache.key_for(run_spec.source)
        )

    flat: List[Tuple[int, int, RunSpec]] = []  # (cell idx, run idx, spec)
    for c, cell in enumerate(cells):
        for r, run_spec in enumerate(cell.specs):
            flat.append((c, r, run_spec))
    reports: Dict[Tuple[int, int], RunReport] = {}
    cached: Dict[Tuple[int, int], bool] = {}
    pending: List[Tuple[int, int, RunSpec]] = []
    for c, r, run_spec in flat:
        stored = (
            cell_store.read(report_key(run_spec))
            if resume and cell_cache_on
            else None
        )
        if stored is not None:
            reports[(c, r)] = RunReport.from_dict(stored)
            cached[(c, r)] = True
        else:
            pending.append((c, r, run_spec))
    # Submit source by source, then seed by seed (cells in grid order
    # within a seed): a population holds the arrival order it last
    # permuted, so the tasks of one stream seed share it, inline and
    # on each pool worker.
    source_rank = {source: rank for rank, source in enumerate(truths)}
    pending.sort(key=lambda item: (
        source_rank[item[2].source], item[2].stream_seed,
    ))

    def store(index: int, report: RunReport) -> None:
        cell_store.write(report_key(pending[index][2]), report.to_dict())

    workers = resolve_workers(spec.workers, len(pending))
    fresh, retry_stats = execute(
        [run_spec for _, _, run_spec in pending],
        workers=workers,
        include_post=spec.include_post,
        faults=injector,
        retry_budget=retry_budget,
        site="sweep",
        on_result=store if cell_cache_on else None,
    )
    for (c, r, _), report in zip(pending, fresh):
        reports[(c, r)] = report
        cached[(c, r)] = False

    results = tuple(
        _aggregate_cell(
            cell,
            [reports[(c, r)] for r in range(len(cell.specs))],
            truths[cell.key.source],
            cached_runs=sum(
                cached[(c, r)] for r in range(len(cell.specs))
            ),
        )
        for c, cell in enumerate(cells)
    )
    return SweepReport(
        spec=spec,
        cells=results,
        elapsed_seconds=time.perf_counter() - started,
        ground_truth_hits=gt_cache.hits - gt_hits_before,
        ground_truth_misses=gt_cache.misses - gt_misses_before,
        cell_cache_hits=sum(cached.values()),
        cell_cache_misses=len(pending),
        workers=workers,
        cache_dir=str(root) if root is not None else None,
        skipped=skipped,
        task_retries=retry_stats.task_retries,
        pool_rebuilds=retry_stats.pool_rebuilds,
        cache_quarantined=(
            cell_store.quarantined
            + (gt_cache.quarantined - gt_quarantined_before)
        ),
    )


def _apply_cache_faults(injector: FaultInjector, root: Path) -> None:
    """Mangle stored cell entries as the plan's corrupt-cache faults ask.

    Each armed fault corrupts the ``at``-th entry of the sorted cell
    listing (modulo the entry count) — deterministic given a
    deterministic cache population, which a seeded sweep is.  The scan
    goes through :meth:`ContentAddressedStore.entries`, which skips the
    ``.corrupt`` and tmp siblings quarantine and writers leave next to
    the payloads.
    """
    entries = list(ContentAddressedStore(root).entries())
    if not entries:
        return
    for fault in injector.cache_faults("sweep-cache"):
        corrupt_entry(
            entries[fault.at % len(entries)],
            mode=fault.mode,
            seed=injector.plan.seed,
        )


def _apply_budget_policy(
    spec: SweepSpec,
    cells: Tuple[SweepCell, ...],
    truths: Mapping[str, GraphStatistics],
) -> Tuple[Tuple[SweepCell, ...], Tuple[CellKey, ...]]:
    """Clip or skip cells whose budget exceeds the source's edge count."""
    if spec.budget_policy == "keep":
        return cells, ()
    kept: List[SweepCell] = []
    skipped: List[CellKey] = []
    seen: set = set()
    for cell in cells:
        edges = truths[cell.key.source].num_edges
        if cell.key.budget <= edges:
            if cell.key not in seen:
                seen.add(cell.key)
                kept.append(cell)
            continue
        if spec.budget_policy == "skip":
            skipped.append(cell.key)
            continue
        clipped = max(1, edges)
        if cell.key.shards > 1:
            # Keep the per-shard split exact: round down to a multiple
            # of the shard count (never below one edge per shard).
            clipped = max(cell.key.shards, clipped - clipped % cell.key.shards)
        clipped_key = dataclasses.replace(cell.key, budget=clipped)
        if clipped_key in seen:  # two budgets clip onto the same cell
            continue
        seen.add(clipped_key)
        kept.append(
            SweepCell(
                key=clipped_key,
                specs=tuple(
                    s.replace(budget=clipped_key.budget) for s in cell.specs
                ),
            )
        )
    return tuple(kept), tuple(skipped)


def _aggregate_cell(
    cell: SweepCell,
    reports: Sequence[RunReport],
    truth: GraphStatistics,
    cached_runs: int,
) -> CellResult:
    metrics = summarise(reports)
    try:
        triangle_values = [r.triangle_estimate for r in reports]
    except KeyError:
        triangles = None
        relative_error = None
    else:
        triangles = MetricSummary.from_values(triangle_values)
        relative_error = absolute_relative_error(
            triangles.mean, truth.triangles
        )
    return CellResult(
        key=cell.key,
        reports=tuple(reports),
        metrics=metrics,
        ground_truth=truth,
        triangles=triangles,
        relative_error=relative_error,
        update_time=MetricSummary.from_values(
            [r.update_time_us for r in reports]
        ),
        cached_runs=cached_runs,
    )


__all__ = [
    "ANY",
    "BUDGET_POLICIES",
    "CellKey",
    "CellResult",
    "SweepCell",
    "SweepReport",
    "SweepSpec",
    "cell_report_key",
    "run_sweep",
]
