"""Every third-party module the tests import is declared in pyproject.toml.

CI's tier-1 job installs ``.[test]`` and nothing else, so a test that
imports an undeclared package stops ``pytest`` at collection on a clean
runner.  This walks every import in ``tests/*.py`` and checks it against
``[project].dependencies`` plus the ``test`` extra.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent


def declared_modules():
    """Import names of the runtime dependencies and the ``test`` extra."""
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    project = pyproject["project"]
    requirements = (
        project["dependencies"] + project["optional-dependencies"]["test"]
    )
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in requirements
    }


def top_level_imports(path):
    """The top-level package of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_every_test_import_is_declared():
    tests = sorted((ROOT / "tests").glob("*.py"))
    local = {path.stem for path in tests}  # conftest, helper modules
    known = set(sys.stdlib_module_names) | {"repro"} | local
    declared = declared_modules()
    undeclared = sorted(
        (path.name, name)
        for path in tests
        for name in set(top_level_imports(path))
        if name not in known and name not in declared
    )
    assert undeclared == [], (
        "imported by the tests but not declared in pyproject.toml: "
        f"{undeclared}"
    )

