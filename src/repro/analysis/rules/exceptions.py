"""Rule ``exception-discipline``: broad handlers must surface or re-raise.

The concurrent subsystems (the engine's pool fan-out, the shard runner,
the serving threads) run user-relevant work on paths where a swallowed
exception does not crash anything — it silently corrupts results: a
pump thread that eats an error ends the stream early and the service
reports a truncated sample as if it were the answer.  The repo's
convention is that a broad ``except`` in those subsystems either
re-raises (possibly after bounded retry bookkeeping) or records the
failure on a *surfaced* error channel (``self._errors``, an ``"error"``
response field) that a caller provably reads.  Anything else is a
black hole, and the one legitimate probe fallback carries an inline
justification.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import FileContext, RawFinding
from repro.analysis.registry import register_rule

#: Exception names considered "broad": catching these (or a tuple
#: containing them) captures every programming error too.
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _names_broad(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _BROAD_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _BROAD_NAMES
    return False


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare except:
        return True
    if isinstance(handler.type, ast.Tuple):
        return any(_names_broad(elt) for elt in handler.type.elts)
    return _names_broad(handler.type)


def _mentions_error_channel(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return "error" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "error" in node.attr.lower()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "error" in node.value.lower()
    return False


def _handler_disciplined(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Raise):
                return True
            if _mentions_error_channel(sub):
                return True
    return False


@register_rule(
    "exception-discipline",
    severity="error",
    scope=("engine", "shard", "serve"),
    summary="Broad except in concurrent subsystems must re-raise or "
    "record on a surfaced error channel",
    rationale=(
        "The engine/shard/serve layers run on worker threads and pool "
        "processes where nothing observes an exception unless the "
        "handler makes it observable. A broad `except Exception` that "
        "neither re-raises nor records the failure on a channel a "
        "caller reads (`self._errors` surfaced by `join()`, an "
        "`\"error\"` field in a protocol response) converts crashes "
        "into silently truncated streams and half-complete results — "
        "the worst failure mode a determinism-first harness can have. "
        "Narrow handlers (`except OSError`) are exempt: catching a "
        "named failure you expect is policy, catching everything is "
        "amnesia."
    ),
    example=(
        "def pump(source, queue):\n"
        "    try:\n"
        "        for block in source:\n"
        "            queue.put(block)\n"
        "    except Exception:\n"
        "        pass  # worker dies silently; stream looks complete\n"
    ),
    example_path="serve/example.py",
    fix=(
        "Re-raise after bookkeeping, append the failure to a surfaced "
        "error channel (e.g. `self._errors`, re-raised by `join()`), "
        "or — for a genuinely safe probe fallback — suppress with "
        "`# repro-lint: disable=exception-discipline` and a "
        "justification on the handler line."
    ),
)
def check_exception_discipline(ctx: FileContext) -> List[RawFinding]:
    out: List[RawFinding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node):
            continue
        if _handler_disciplined(node):
            continue
        out.append(
            (
                node.lineno,
                node.col_offset,
                "broad except swallows the failure: re-raise, record it "
                "on a surfaced error channel, or justify an inline "
                "disable",
            )
        )
    return out
