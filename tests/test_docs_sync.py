"""Checked-in generated docs must match what the registry generates.

``docs/methods.md`` is emitted by ``python -m repro methods --markdown``;
this test (and the mirroring CI step) fails when a method or weight is
registered, renamed or re-described without regenerating the file.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import rule_names, rules_markdown
from repro.api.registry import registry_markdown
from repro.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs" / "methods.md"
INVARIANTS = DOCS.parent / "invariants.md"


def test_methods_markdown_in_sync_with_registry():
    assert DOCS.exists(), (
        "docs/methods.md is missing; regenerate with "
        "`python -m repro methods --markdown > docs/methods.md`"
    )
    assert DOCS.read_text() == registry_markdown(), (
        "docs/methods.md drifted from the method registry; regenerate "
        "with `python -m repro methods --markdown > docs/methods.md`"
    )


def test_markdown_flag_emits_the_catalog(capsys):
    assert main(["methods", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert out == registry_markdown()


def test_catalog_lists_every_registration():
    from repro.api.registry import method_names, weight_names

    text = registry_markdown()
    for name in method_names():
        assert f"| {name} |" in text
    for name in weight_names():
        assert f"| {name} |" in text


def test_catalog_escapes_table_pipes():
    # MASCOT's description contains 'budget/|K|'; unescaped pipes would
    # silently add table columns.
    text = registry_markdown()
    assert "budget/\\|K\\|" in text


def test_invariants_markdown_in_sync_with_rule_registry():
    assert INVARIANTS.exists(), (
        "docs/invariants.md is missing; regenerate with "
        "`python -m repro lint --markdown > docs/invariants.md`"
    )
    assert INVARIANTS.read_text() == rules_markdown(), (
        "docs/invariants.md drifted from the lint rule registry; "
        "regenerate with `python -m repro lint --markdown > "
        "docs/invariants.md`"
    )


def test_lint_markdown_flag_emits_the_catalog(capsys):
    assert main(["lint", "--markdown"]) == 0
    assert capsys.readouterr().out == rules_markdown()


def test_invariant_catalog_lists_every_rule():
    text = rules_markdown()
    for name in rule_names():
        assert f"## {name}" in text
        assert f"| [{name}](#{name}) |" in text


@pytest.mark.parametrize(
    "doc",
    [
        "architecture.md",
        "methods.md",
        "performance.md",
        "invariants.md",
        "serving.md",
        "sharding.md",
        "robustness.md",
    ],
)
def test_documentation_suite_present(doc):
    assert (DOCS.parent / doc).exists()


def test_readme_present_and_covers_quickstart():
    readme = DOCS.parent.parent / "README.md"
    assert readme.exists()
    text = readme.read_text()
    for command in ("sample", "track", "replicate", "sweep", "serve"):
        assert command in text
