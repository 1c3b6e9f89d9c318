"""The shipped tree must lint clean — the analyzer dogfoods itself.

`python -m repro lint src` exiting 0 is a CI gate; this test is the
same gate inside the tier-1 suite, with the finding list in the
assertion message so a regression names its own violation.  The strict
mypy islands (`repro.analysis` and `repro.api.spec`, configured in
``pyproject.toml``) are checked when mypy is available — the CI lint
job installs it, minimal local environments may not have it.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def test_shipped_tree_lints_clean():
    result = lint_paths([SRC])
    details = "\n".join(
        f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}"
        for f in result.findings
    )
    assert result.clean, f"shipped tree has lint findings:\n{details}"
    assert result.files_checked > 80


def test_shipped_suppressions_are_exactly_the_documented_ones():
    # Three deliberate violations ride in the tree: compact.py
    # transplants MT19937 state into a construction-time-unseeded bit
    # generator, and shard/runner.py reads perf_counter twice for the
    # throughput report (wall time never feeds an estimate).  All are
    # justified inline; new suppressions must be accounted for here.
    result = lint_paths([SRC])
    assert result.suppressed == 3


def test_analysis_package_lints_itself():
    result = lint_paths([SRC / "analysis"])
    assert result.clean
    assert result.suppressed == 0


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None, reason="mypy not installed"
)
def test_typed_islands_pass_strict_mypy():
    # pyproject.toml pins the islands via [tool.mypy] files=...; a bare
    # `python -m mypy` from the repo root checks exactly those.
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_py_typed_marker_ships():
    assert (SRC / "py.typed").is_file()
