"""Rule ``frozen-spec``: experiment specs stay frozen value objects.

``RunSpec`` is hashable, diffable and shippable to workers precisely
because it is a frozen dataclass with a lossless ``to_dict``/
``from_dict`` round trip.  A mutable spec (or one without the paired
serializers) breaks spec files, the sweep cache's content addressing,
and the "experiments are data" contract all at once.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.findings import FileContext, RawFinding
from repro.analysis.registry import register_rule


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    for decorator in node.decorator_list:
        probe = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(probe, ast.Name) and probe.id == "dataclass":
            return decorator
        if isinstance(probe, ast.Attribute) and probe.attr == "dataclass":
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False  # bare @dataclass defaults to frozen=False
    for kw in decorator.keywords:
        if kw.arg == "frozen":
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


@register_rule(
    "frozen-spec",
    severity="error",
    scope=("api/spec.py", "serve/spec.py", "shard/spec.py", "faults/spec.py"),
    summary="Spec dataclasses must be frozen=True with paired "
    "to_dict/from_dict",
    rationale=(
        "Specs are the repo's unit of provenance: stored in files, "
        "hashed into the sweep cache's content addressing, shipped to "
        "pool workers, and replayed bit-identically. That only holds "
        "if the dataclass is immutable (`frozen=True` — mutation after "
        "hashing silently corrupts cache keys) and JSON-round-trippable "
        "(`to_dict` paired with `from_dict`; one without the other "
        "strands saved spec files at the next schema change)."
    ),
    example=(
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class RunSpec:\n"
        "    source: str\n"
        "    budget: int = 1000\n"
        "\n"
        "    def to_dict(self):\n"
        "        return {'source': self.source, 'budget': self.budget}\n"
    ),
    example_path="api/spec.py",
    fix=(
        "Declare the dataclass `@dataclass(frozen=True)` and give it "
        "both `to_dict` and a `from_dict` classmethod that inverts it "
        "(rejecting unknown keys, like `RunSpec.from_dict`)."
    ),
)
def check_frozen_spec(ctx: FileContext) -> List[RawFinding]:
    out: List[RawFinding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorator = _dataclass_decorator(node)
        if decorator is None:
            continue
        if not _is_frozen(decorator):
            out.append(
                (
                    node.lineno,
                    node.col_offset,
                    f"spec dataclass {node.name} must be declared "
                    "@dataclass(frozen=True): specs are hashed into "
                    "cache keys and shipped to workers",
                )
            )
        methods = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        missing: Tuple[str, ...] = tuple(
            name for name in ("to_dict", "from_dict") if name not in methods
        )
        if missing:
            out.append(
                (
                    node.lineno,
                    node.col_offset,
                    f"spec dataclass {node.name} lacks "
                    f"{' and '.join(missing)}: specs need a lossless "
                    "JSON round trip",
                )
            )
    return out
