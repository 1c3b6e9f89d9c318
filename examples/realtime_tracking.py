"""Real-time tracking of an evolving interaction network (paper Figure 3).

Scenario: a social-media platform wants a live dashboard of triangle count
and clustering coefficient over its interaction stream, using a few
thousand edges of memory regardless of stream length.  GPS in-stream
estimation updates in O(1) amortised per query, so the dashboard can be
refreshed at every checkpoint.

The script declares one tracking run (``RunSpec(checkpoints=...)``):
``run`` counts the exact prefix series once and records the GPS
estimate bundle at every checkpoint, then the script prints an ASCII
chart of estimate vs actual as the stream progresses.

Run:  python examples/realtime_tracking.py [--capacity 3000]
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro import RunSpec, run
from repro.graph.generators import chung_lu


def bar(value: float, scale: float, width: int = 42) -> str:
    filled = 0 if scale <= 0 else int(round(width * value / scale))
    return "#" * max(0, min(width, filled))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=8000)
    parser.add_argument("--edges", type=int, default=40000)
    parser.add_argument("--capacity", type=int, default=5000)
    parser.add_argument("--checkpoints", type=int, default=12)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    print("Simulating an interaction stream (heavy-tailed Chung-Lu graph) ...")
    graph = chung_lu(args.nodes, args.edges, exponent=2.2, seed=args.seed)
    report = run(
        RunSpec(source="<interaction stream>", method="gps-in-stream",
                budget=args.capacity, stream_seed=args.seed,
                sampler_seed=args.seed + 1, checkpoints=args.checkpoints),
        graph=graph,
    )
    last = report.tracking[-1]

    scale = max(last.exact_triangles, 1)
    print(
        f"\nTriangle tracking with m={args.capacity} "
        f"({args.capacity / report.edges:.1%} of the stream)\n"
    )
    print(f"{'t':>8}  {'actual':>10}  {'estimate':>10}  {'ARE':>7}  chart")
    for point in report.tracking:
        actual, est = point.exact_triangles, point.in_stream.triangles
        err = est.relative_error(actual) if actual else 0.0
        print(
            f"{point.position:>8}  {actual:>10}  {est.value:>10.0f}  "
            f"{err:>7.2%}  |{bar(est.value, scale)}"
        )
    final = last.in_stream
    lb, ub = final.triangles.confidence_bounds()
    print(
        f"\nfinal estimate {final.triangles.value:.0f} "
        f"(actual {last.exact_triangles}), 95% CI [{lb:.0f}, {ub:.0f}]"
    )
    print(
        f"clustering: estimate {final.clustering.value:.4f} "
        f"vs actual {last.exact_clustering:.4f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
