"""Rule ``nondet-ban``: estimator layers must be pure functions of input.

Wall clocks, OS entropy and hash-order set iteration are the three ways
nondeterminism has historically leaked into "deterministic" pipelines.
The first two are obvious; the third is the subtle one: iterating a
``set`` feeds Python's hash order into whatever is accumulated — and
float accumulation is order-sensitive, so two runs with string node
labels (``PYTHONHASHSEED``) can disagree in the last ulp while every
test with int labels stays green.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.astutil import collect_imports, resolve_call_target
from repro.analysis.findings import FileContext, RawFinding
from repro.analysis.registry import register_rule

#: Wall-clock / entropy calls that have no place in an estimator.
_BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Set methods whose result is again a set.
_SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)


def _is_keys_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
    )


def _is_setlike(node: ast.expr, env: Dict[str, bool]) -> bool:
    """Conservative 'this expression evaluates to a set' inference."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return env.get(node.id, False)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and (
                _is_setlike(func.value, env) or _is_keys_call(func.value)
            )
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        for side in (node.left, node.right):
            if _is_setlike(side, env) or _is_keys_call(side):
                return True
    return False


class _SetIterVisitor(ast.NodeVisitor):
    """Per-scope visitor flagging iteration over set-typed expressions.

    Tracks simple ``name = <set-producing expr>`` assignments in source
    order within each function scope (nested functions get a fresh
    environment), then flags ``for``-loop and comprehension iterables
    that are set-typed — membership tests and ``sorted(...)`` wrappers
    are fine.
    """

    def __init__(self, out: List[RawFinding]) -> None:
        self.out = out
        self.env: Dict[str, bool] = {}

    def _enter_scope(self, node: ast.AST) -> None:
        sub = _SetIterVisitor(self.out)
        for child in ast.iter_child_nodes(node):
            sub.visit(child)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        setlike = _is_setlike(node.value, self.env)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = setlike

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name) and node.value is not None:
            self.env[node.target.id] = _is_setlike(node.value, self.env)

    def _flag(self, iterable: ast.expr) -> None:
        if _is_setlike(iterable, self.env):
            self.out.append(
                (
                    iterable.lineno,
                    iterable.col_offset,
                    "iterating a set feeds hash order into the result; "
                    "iterate an insertion-ordered dict/list (or sorted(...)) "
                    "instead",
                )
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            self._flag(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


@register_rule(
    "nondet-ban",
    severity="error",
    scope=("core", "stats", "serve", "shard"),
    summary="No wall clocks, OS entropy, or hash-ordered set iteration "
    "in estimator layers",
    rationale=(
        "`core/` and `stats/` compute the numbers the paper's tables "
        "assert on, and `serve/` replays them live; they must be pure "
        "functions of (stream, seed). "
        "`time.time`/`datetime.now`/`os.urandom` are obviously impure. "
        "Set iteration is the stealth variant: float accumulation is "
        "order-sensitive and a set's order is hash order, so a product "
        "over `dict_a.keys() & dict_b.keys()` differs between runs the "
        "moment node labels are strings (hash randomization) — while "
        "every int-labelled test stays green. Timing belongs in the "
        "engine/bench layers, which this rule deliberately leaves out "
        "of scope."
    ),
    example=(
        "import time\n"
        "\n"
        "\n"
        "def covariance(first, second):\n"
        "    shared = first.keys() & second.keys()\n"
        "    value = time.time() * 0.0 + 1.0\n"
        "    for key in shared:\n"
        "        value *= 1.0 / first[key]\n"
        "    return value\n"
    ),
    example_path="core/example.py",
    fix=(
        "Drop the clock/entropy call (or move it to the engine/bench "
        "layer); replace set iteration with iteration over an "
        "insertion-ordered dict filtered by membership, e.g. "
        "`for key, p in first.items(): if key in second: ...`."
    ),
)
def check_nondet_ban(ctx: FileContext) -> List[RawFinding]:
    imports = collect_imports(ctx.tree)
    out: List[RawFinding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            target: Optional[str] = resolve_call_target(node.func, imports)
            if target in _BANNED_CALLS:
                out.append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"`{target}` injects wall-clock/OS state into an "
                        "estimator layer; results must be pure functions "
                        "of (stream, seed)",
                    )
                )
    _SetIterVisitor(out).visit(ctx.tree)
    out.sort()
    return out
