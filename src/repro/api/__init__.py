"""repro.api — the declarative experiment facade.

The paper's protocol (Sec. 6) is one experiment shape: a seeded stream
permutation drives a budget-matched counter through the
:class:`~repro.engine.StreamEngine`, and estimates come back with error
bars.  This package expresses that shape once, declaratively:

* :mod:`repro.api.registry` — ``@register_method`` / ``@register_weight``
  registries; each method carries its own budget interpretation
  ``(budget, stream_length, seed) -> counter`` and metric extractor, so
  new methods plug into every entry point at once.
* :mod:`repro.api.spec` — :class:`RunSpec`, a frozen value object with a
  lossless JSON round trip: experiments are data, not code.
* :mod:`repro.api.execution` — ``run(spec) -> RunReport`` dispatching a
  spec through single, tracking, sharded or replicated passes, and
  ``execute(specs)``, the one executor every fan-out shares: seeded
  single-pass specs in, one report each out, inline or on a
  fault-tolerant process pool.
* :mod:`repro.api.sweep` — :class:`SweepSpec`, a declarative grid of
  ``RunSpec``\\ s (methods × budgets × weights × sources × seeds);
  ``run_sweep(spec) -> SweepReport`` executes it through ``execute``
  with cached ground truth and per-cell error summaries.
* :mod:`repro.api.ground_truth` — the content-addressed cache of exact
  statistics (and sweep cell reports) behind ``--resume``.

Quick start::

    from repro.api import RunSpec, SweepSpec, run, run_sweep
    report = run(RunSpec(source="infra-roadNet-CA", method="triest",
                         budget=2000, replications=8))
    print(report.metrics["triangles"].mean, report.to_json())
    grid = run_sweep(SweepSpec(sources=("infra-roadNet-CA",),
                               methods=("triest", "gps-post"),
                               budgets=(1000, 2000), runs=4))
    print(grid.error_matrix("infra-roadNet-CA"))

The CLI (``python -m repro``), the experiment harnesses
(:mod:`repro.experiments`) and the examples all route through this
facade; ``python -m repro methods`` lists what is registered.
"""

from repro.api.execution import (
    MetricSummary,
    RunReport,
    TrackPoint,
    execute,
    replicate,
    run,
)
from repro.api.ground_truth import GroundTruthCache
from repro.api.sweep import (
    ANY,
    CellKey,
    CellResult,
    SweepCell,
    SweepReport,
    SweepSpec,
    run_sweep,
)
from repro.api.registry import (
    GpsPostStreamAdapter,
    MethodSpec,
    WeightSpec,
    baseline_method_names,
    get_method,
    get_weight,
    method_names,
    method_specs,
    register_method,
    register_weight,
    weight_names,
    weight_specs,
)
from repro.api.spec import RunSpec

__all__ = [
    "ANY",
    "CellKey",
    "CellResult",
    "GpsPostStreamAdapter",
    "GroundTruthCache",
    "MethodSpec",
    "MetricSummary",
    "RunReport",
    "RunSpec",
    "SweepCell",
    "SweepReport",
    "SweepSpec",
    "TrackPoint",
    "WeightSpec",
    "baseline_method_names",
    "execute",
    "get_method",
    "get_weight",
    "method_names",
    "method_specs",
    "register_method",
    "register_weight",
    "replicate",
    "run",
    "run_sweep",
    "weight_names",
    "weight_specs",
]
