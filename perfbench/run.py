"""End-to-end benchmark of the GPS reproduction: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload file-run --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and which
layer metric should move which end-to-end metric):

* ``file-run`` — closed loop of ``run(RunSpec(...))`` over a 200k-edge
  edge-list file, one call per seed pair.
* ``sweep``    — a cold pooled ``run_sweep`` into a fresh cache, then a
  ``resume=True`` replay.
* ``serve``    — a ``SamplingService`` draining a 1M-edge file while one
  open-loop client sends ``estimates`` queries at a fixed rate.

The benchmark generates its inputs from ``--seed`` (``perfbench/gen.py``),
times only public calls of the program, checks every output, and prints
as its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` replays each operation layer by layer under the
span recorder (``perfbench/spans.py``) and reports the per-layer
metrics instead.  Layers a workload never reaches read 0 there.  Metric
names and units are read from ``BENCHMARK.json`` at the checkout root.
CPU-bound end-to-end times are scaled to a reference machine speed
(``common.Speed``), because the shared virtual CPUs change speed every
few seconds.  Every process the run starts is stopped and waited for
before the result line is printed.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from common import HERE, ROOT, SRC, Context, Speed, median, stop_children


def time_imports(modules: Sequence[str], repeats: int,
                 speed: Speed) -> List[float]:
    """In-process import times of ``modules``, each in a fresh interpreter,
    with the machine's speed sampled before each."""
    code = (
        "import time; t = time.perf_counter(); import "
        + ", ".join(modules)
        + "; print(time.perf_counter() - t)"
    )
    samples: List[float] = []
    for _ in range(repeats):
        speed.sample()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def generate(path: Path, edges: int, nodes: int, seed: int) -> None:
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--edges", str(edges),
         "--nodes", str(nodes), "--seed", str(seed), "--out", str(path)],
        cwd=ROOT, timeout=300, check=True,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
WORKLOAD_MODULES = {
    "file-run": "wl_file_run",
    "sweep": "wl_sweep",
    "serve": "wl_serve",
}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; 'smoke' is the self-test's tiny size")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    # Child processes (import timing, pool workers) import the program too.
    previous = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (
        os.pathsep + previous if previous else "")
    sys.path.insert(0, str(SRC))
    module = __import__(WORKLOAD_MODULES[args.workload])
    smoke = args.size == "smoke"
    repeats = 1 if smoke else 5
    import_speed = Speed()

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs: Dict[str, Path] = {}
        for name, (edges, nodes) in module.inputs(smoke).items():
            inputs[name] = work / f"{name}.txt"
            generate(inputs[name], edges, nodes, args.seed)

        # The first import writes the byte-code cache a fresh checkout
        # lacks; it is not timed.  Samples are taken before and after the
        # workload so that one slow stretch of the machine weighs less.
        time_imports(module.IMPORTS, 1, Speed())
        imports = time_imports(module.IMPORTS, repeats, import_speed)
        ctx = Context(seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), smoke=smoke, work=work,
                      inputs=inputs)
        measured = module.run(ctx)
        imports += time_imports(module.IMPORTS, repeats, import_speed)
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)

    measured["setup.import_s"] = median(imports)
    # Import is CPU-bound; like the workloads' times, it is reported at
    # reference speed (see common.Speed).  The layer figure stays raw.
    measured["setup_s"] = (median(imports) * import_speed.scale()
                           + measured.pop("service_start_s", 0.0))
    checks = ctx.checks
    measured["ok_frac"] = 1.0 - checks.failed / max(1, checks.attempted)
    print(f"speed scale {ctx.speed.scale():.4f} over "
          f"{len(ctx.speed.samples)} reference loops; imports "
          f"{import_speed.scale():.4f}, raw setup.import_s "
          f"{measured['setup.import_s']:.4f}", file=sys.stderr)

    # Metric names and units live in BENCHMARK.json alone.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    unknown = set(measured) - set(end_to_end) - set(per_layer)
    missing = set(end_to_end) - set(measured)
    if unknown or missing:
        raise RuntimeError(f"undeclared {sorted(unknown)}, missing {sorted(missing)}")
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in (per_layer if args.trace else end_to_end).items()
    }
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
