"""Figure 3 — real-time tracking: estimates vs actual over the stream.

Paper: m = 80K on soc-orkut and tech-as-skitter; triangle counts and
global clustering tracked as the stream progresses, with 95% bounds.  The
estimate curve is "indistinguishable from the actual values".

We emit the aligned (t, actual, estimate, LB, UB) series for both
statistics per dataset — the numeric content of the four panels.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.api.execution import TrackPoint, run
from repro.api.spec import RunSpec
from repro.core.estimates import GraphEstimates
from repro.experiments.datasets import FIGURE3_DATASETS
from repro.experiments.reporting import format_table, human_count

DEFAULT_CAPACITY = 4000
DEFAULT_CHECKPOINTS = 20


@dataclass(frozen=True)
class TrackedSeries:
    """Aligned per-checkpoint series of one GPS tracking run."""

    checkpoints: List[int]
    exact_triangles: List[int]
    exact_clustering: List[float]
    in_stream: List[GraphEstimates]

    @classmethod
    def from_tracking(cls, points: Sequence[TrackPoint]) -> "TrackedSeries":
        return cls(
            checkpoints=[p.position for p in points],
            exact_triangles=[p.exact_triangles for p in points],
            exact_clustering=[p.exact_clustering for p in points],
            in_stream=[p.in_stream for p in points],
        )


@dataclass(frozen=True)
class Figure3Series:
    dataset: str
    capacity: int
    series: TrackedSeries

    def triangle_rows(self) -> List[list]:
        rows = []
        for idx, t in enumerate(self.series.checkpoints):
            estimate = self.series.in_stream[idx].triangles
            lb, ub = estimate.confidence_bounds()
            rows.append(
                [
                    t,
                    human_count(self.series.exact_triangles[idx]),
                    human_count(estimate.value),
                    human_count(lb),
                    human_count(ub),
                ]
            )
        return rows

    def clustering_rows(self) -> List[list]:
        rows = []
        for idx, t in enumerate(self.series.checkpoints):
            estimate = self.series.in_stream[idx].clustering
            lb, ub = estimate.confidence_bounds()
            rows.append(
                [
                    t,
                    f"{self.series.exact_clustering[idx]:.4f}",
                    f"{estimate.value:.4f}",
                    f"{lb:.4f}",
                    f"{ub:.4f}",
                ]
            )
        return rows


def build_figure3(
    datasets: Sequence[str] = FIGURE3_DATASETS,
    capacity: int = DEFAULT_CAPACITY,
    num_checkpoints: int = DEFAULT_CHECKPOINTS,
    stream_seed: int = 0,
    sampler_seed: int = 1,
) -> List[Figure3Series]:
    out: List[Figure3Series] = []
    for dataset in datasets:
        report = run(
            RunSpec(
                source=dataset,
                method="gps",
                budget=capacity,
                stream_seed=stream_seed,
                sampler_seed=sampler_seed,
                checkpoints=num_checkpoints,
            )
        )
        tracked = TrackedSeries.from_tracking(report.tracking)
        out.append(Figure3Series(dataset=dataset, capacity=capacity, series=tracked))
    return out


def format_figure3(series_list: Sequence[Figure3Series]) -> str:
    sections = []
    for entry in series_list:
        sections.append(
            format_table(
                headers=["t", "actual", "estimate", "LB", "UB"],
                rows=entry.triangle_rows(),
                title=f"Figure 3 — {entry.dataset}: triangles vs time (m={entry.capacity})",
            )
        )
        sections.append(
            format_table(
                headers=["t", "actual", "estimate", "LB", "UB"],
                rows=entry.clustering_rows(),
                title=f"Figure 3 — {entry.dataset}: clustering vs time (m={entry.capacity})",
            )
        )
    return "\n\n".join(sections)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    parser.add_argument("--checkpoints", type=int, default=DEFAULT_CHECKPOINTS)
    parser.add_argument("--datasets", nargs="*", default=FIGURE3_DATASETS)
    args = parser.parse_args(argv)
    series = build_figure3(
        datasets=args.datasets,
        capacity=args.capacity,
        num_checkpoints=args.checkpoints,
    )
    print(format_figure3(series))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
