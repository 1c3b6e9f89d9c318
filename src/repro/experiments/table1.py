"""Table 1 — estimates, relative error and 95% bounds at a fixed capacity.

Paper: 11 graphs, m = 200K edges; columns for triangles, wedges and global
clustering: actual X, then for GPS in-stream and post-stream the estimate
X̂, ARE |X − X̂|/X, and 95% lower/upper confidence bounds.  Both estimation
flavours use the *same sample* (shared seeds).

Stand-ins are smaller, so the default capacity is scaled to keep sampling
fractions in the paper's regime; the shape to verify is: both methods
within a few percent, and in-stream bounds tighter than post-stream
bounds.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.api.execution import RunReport, run
from repro.api.spec import RunSpec
from repro.core.estimates import SubgraphEstimate
from repro.experiments.datasets import DATASETS, TABLE1_DATASETS, get_statistics
from repro.experiments.reporting import format_table, human_count
from repro.graph.exact import GraphStatistics

DEFAULT_CAPACITY = 8000


@dataclass(frozen=True)
class Table1Row:
    """One (dataset, statistic) row of Table 1."""

    dataset: str
    statistic: str  # "triangles" | "wedges" | "clustering"
    edges: int
    fraction: float
    actual: float
    in_stream: SubgraphEstimate
    post_stream: SubgraphEstimate
    paper_are_in_stream: Optional[float] = None
    paper_are_post: Optional[float] = None

    @property
    def are_in_stream(self) -> float:
        return self.in_stream.relative_error(self.actual)

    @property
    def are_post(self) -> float:
        return self.post_stream.relative_error(self.actual)


def rows_from_runs(
    results: Sequence[RunReport], exact: GraphStatistics, dataset: str
) -> List[Table1Row]:
    """Collapse repeated shared-sample ``gps`` runs into the three rows.

    Estimates and variance estimates are averaged over runs, matching the
    paper's ARE metric ``|E[X̂] − X| / X`` (Sec. 6, step 3); confidence
    bounds then reflect the mean single-sample variance.
    """
    if not results:
        raise ValueError("need at least one run")
    spec = DATASETS[dataset]
    actuals = {
        "triangles": float(exact.triangles),
        "wedges": float(exact.wedges),
        "clustering": exact.clustering,
    }
    paper_ares = {
        "triangles": (
            (spec.paper.are_in_stream, spec.paper.are_post) if spec.paper else (None, None)
        ),
        "wedges": (None, None),
        "clustering": (None, None),
    }

    def mean_estimate(
        pick: str, flavour: str
    ) -> SubgraphEstimate:
        values = [getattr(getattr(r, flavour), pick).value for r in results]
        variances = [getattr(getattr(r, flavour), pick).variance for r in results]
        return SubgraphEstimate(
            value=sum(values) / len(values),
            variance=sum(variances) / len(variances),
        )

    rows = []
    for statistic in ("triangles", "wedges", "clustering"):
        paper_in, paper_post = paper_ares[statistic]
        rows.append(
            Table1Row(
                dataset=dataset,
                statistic=statistic,
                edges=exact.num_edges,
                fraction=(
                    results[0].in_stream.sample_size / max(1, exact.num_edges)
                ),
                actual=actuals[statistic],
                in_stream=mean_estimate(statistic, "in_stream"),
                post_stream=mean_estimate(statistic, "post_stream"),
                paper_are_in_stream=paper_in,
                paper_are_post=paper_post,
            )
        )
    return rows


def build_table1(
    datasets: Sequence[str] = TABLE1_DATASETS,
    capacity: int = DEFAULT_CAPACITY,
    runs: int = 3,
    stream_seed: int = 0,
    sampler_seed: int = 1,
) -> List[Table1Row]:
    """Run the Table 1 experiment over ``datasets`` at one capacity."""
    rows: List[Table1Row] = []
    for dataset in datasets:
        exact = get_statistics(dataset)
        # Method "gps" estimates in-stream and post-stream on one sample.
        results = [
            run(
                RunSpec(
                    source=dataset,
                    method="gps",
                    budget=min(capacity, exact.num_edges),
                    stream_seed=stream_seed + i,
                    sampler_seed=sampler_seed + i,
                )
            )
            for i in range(runs)
        ]
        rows.extend(rows_from_runs(results, exact, dataset))
    return rows


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render rows in the paper's Table 1 layout (grouped by statistic)."""
    sections = []
    for statistic in ("triangles", "wedges", "clustering"):
        section_rows = [r for r in rows if r.statistic == statistic]
        if not section_rows:
            continue
        body = []
        for r in section_rows:
            in_lb, in_ub = r.in_stream.confidence_bounds()
            post_lb, post_ub = r.post_stream.confidence_bounds()
            body.append(
                [
                    r.dataset,
                    human_count(r.edges),
                    f"{r.fraction:.4f}",
                    human_count(r.actual),
                    human_count(r.in_stream.value),
                    f"{r.are_in_stream:.4f}",
                    human_count(in_lb),
                    human_count(in_ub),
                    human_count(r.post_stream.value),
                    f"{r.are_post:.4f}",
                    human_count(post_lb),
                    human_count(post_ub),
                ]
            )
        sections.append(
            format_table(
                headers=[
                    "graph",
                    "|K|",
                    "|K̂|/|K|",
                    "X",
                    "X̂ (in)",
                    "ARE (in)",
                    "LB",
                    "UB",
                    "X̂ (post)",
                    "ARE (post)",
                    "LB",
                    "UB",
                ],
                rows=body,
                title=f"Table 1 — {statistic.upper()}",
            )
        )
    return "\n\n".join(sections)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--datasets", nargs="*", default=TABLE1_DATASETS)
    parser.add_argument("--stream-seed", type=int, default=0)
    parser.add_argument("--sampler-seed", type=int, default=1)
    args = parser.parse_args(argv)
    rows = build_table1(
        datasets=args.datasets,
        capacity=args.capacity,
        runs=args.runs,
        stream_seed=args.stream_seed,
        sampler_seed=args.sampler_seed,
    )
    print(format_table1(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
