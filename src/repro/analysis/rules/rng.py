"""Rule ``rng-discipline``: all randomness flows through injected RNGs.

The bit-exactness matrix (object vs compact vs chunked cores, inline vs
pooled replication) holds because every random draw comes from a
per-sampler ``random.Random(seed)`` in a fixed draw order.  A single
call into the module-level ``random``/``numpy.random`` singletons — or
an unseeded generator construction — injects process-global state into
a result and silently breaks replay.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.astutil import (
    collect_imports,
    resolve_call_target,
    walk_scoped,
)
from repro.analysis.findings import FileContext, RawFinding
from repro.analysis.registry import register_rule

#: numpy.random names that *construct* generators (fine when seeded)
#: rather than drawing from the module-level singleton.
_NUMPY_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "SeedSequence",
        "BitGenerator",
    }
)

#: Functions allowed to (re)seed an injected RNG: construction and the
#: explicit arena-reuse hook.
_SEED_SITES = frozenset({"__init__", "reset"})


@register_rule(
    "rng-discipline",
    severity="error",
    scope=("core", "baselines", "streams", "engine", "serve", "shard"),
    summary="Draws come from an injected seeded RNG, never the module "
    "singletons; reseeding only in __init__/reset",
    rationale=(
        "Every replayed pass (checkpoint restore, pooled replication, "
        "chunked-vs-scalar equivalence) assumes one per-sampler MT19937 "
        "in a fixed draw order. `random.random()` / `np.random.rand()` "
        "read process-global state shared across samplers and test "
        "orderings; an unseeded `random.Random()` / "
        "`np.random.default_rng()` pulls OS entropy; reseeding outside "
        "`__init__`/`reset` shifts the draw order mid-stream. Any of "
        "the three makes results irreproducible without failing a "
        "single functional test."
    ),
    example=(
        "import random\n"
        "import numpy as np\n"
        "\n"
        "\n"
        "class Sampler:\n"
        "    def __init__(self, seed):\n"
        "        self._rng = random.Random(seed)\n"
        "\n"
        "    def process(self, u, v):\n"
        "        if random.random() < 0.5:      # module-level draw\n"
        "            return np.random.rand()    # numpy singleton draw\n"
        "        rng = random.Random()          # unseeded generator\n"
        "        self._rng.seed(0)              # reseed mid-stream\n"
        "        return rng.random()\n"
    ),
    example_path="core/example.py",
    fix=(
        "Draw from the sampler's injected `self._rng` (seeded in the "
        "constructor); construct throwaway generators as "
        "`random.Random(seed)` with an explicit seed; move reseeding "
        "into `__init__`/`reset`."
    ),
)
def check_rng_discipline(ctx: FileContext) -> List[RawFinding]:
    imports = collect_imports(ctx.tree)
    out: List[RawFinding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            drawn = sorted(
                alias.name for alias in node.names if alias.name != "Random"
            )
            if drawn:
                out.append(
                    (
                        node.lineno,
                        node.col_offset,
                        "importing free draw functions from `random` "
                        f"({', '.join(drawn)}) binds the module-level "
                        "singleton; inject a seeded random.Random instead",
                    )
                )
    for node, stack in walk_scoped(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node.func, imports)
        if target is None:
            # Object-attribute chains: police mid-stream reseeding only.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "seed"
                and (not stack or stack[-1] not in _SEED_SITES)
            ):
                out.append(
                    (
                        node.lineno,
                        node.col_offset,
                        "reseeding an RNG outside __init__/reset shifts "
                        "the draw order mid-stream",
                    )
                )
            continue
        unseeded = not node.args and not node.keywords
        if target == "random.Random":
            if unseeded:
                out.append(
                    (
                        node.lineno,
                        node.col_offset,
                        "unseeded random.Random() draws OS entropy; pass "
                        "an explicit seed",
                    )
                )
        elif target.startswith("random."):
            out.append(
                (
                    node.lineno,
                    node.col_offset,
                    f"module-level draw `{target}` uses process-global "
                    "RNG state; draw from the injected self._rng",
                )
            )
        elif target.startswith("numpy.random."):
            tail = target.rsplit(".", 1)[1]
            if tail in _NUMPY_CONSTRUCTORS:
                if unseeded:
                    out.append(
                        (
                            node.lineno,
                            node.col_offset,
                            f"unseeded numpy.random.{tail}() draws OS "
                            "entropy; pass an explicit seed",
                        )
                    )
            else:
                out.append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"module-level draw `{target}` uses numpy's "
                        "global RandomState; draw from an injected "
                        "generator",
                    )
                )
    return out
