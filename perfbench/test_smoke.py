"""Smoke self-test of the benchmark: every workload once, at tiny size.

Checks that each workload, untraced and traced, exits 0, reports
``correct``, and prints every metric ``BENCHMARK.json`` names with the
unit it declares; and that without the program's sources the benchmark
fails before printing a result.  Run from the root of a checkout::

    python3 perfbench/test_smoke.py        # or: python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_every_workload_prints_every_metric_with_its_unit():
    spec = declared()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = bench(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, done.stderr)
            assert result["attempted"] >= 1 and result["failed"] == 0
            expected = {m["name"]: m["unit"] for m in spec[group]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected, (workload, trace)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], float), name
                if group == "end_to_end":
                    assert metric["value"] > 0, (workload, name)


def test_fails_without_program_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(Path(tmp), "file-run", 0)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


if __name__ == "__main__":
    test_every_workload_prints_every_metric_with_its_unit()
    test_fails_without_program_sources()
    print("perfbench smoke test: ok")
