"""The docstring examples in repro.api are executable and must stay true.

Every public function in the facade carries an ``Example`` block; these
are documentation first, but several pin concrete registry state
(weight names, content hashes), so they drift silently unless executed.
Running them here puts them in the tier-1 suite without turning on
``--doctest-modules`` for the whole tree.
"""

from __future__ import annotations

import doctest

import pytest

import repro.analysis
import repro.analysis.engine
import repro.analysis.findings
import repro.analysis.registry
import repro.api.execution
import repro.api.ground_truth
import repro.api.registry
import repro.api.spec
import repro.api.sweep
import repro.core.compact
import repro.core.weights
import repro.engine.shared_edges
import repro.graph.exact
import repro.graph.io
import repro.heap.slot_heap
import repro.serve.source
import repro.streams.chunks
import repro.streams.interner
import repro.streams.stream
import repro.streams.transforms

MODULES = [
    repro.analysis,
    repro.analysis.engine,
    repro.analysis.findings,
    repro.analysis.registry,
    repro.api.execution,
    repro.api.ground_truth,
    repro.api.registry,
    repro.api.spec,
    repro.api.sweep,
    repro.core.compact,
    repro.core.weights,
    repro.engine.shared_edges,
    repro.graph.exact,
    repro.graph.io,
    repro.heap.slot_heap,
    repro.serve.source,
    repro.streams.chunks,
    repro.streams.interner,
    repro.streams.stream,
    repro.streams.transforms,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda m: m.__name__
)
def test_module_doctests_pass(module):
    results = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert results.attempted > 0, f"{module.__name__} lost its examples"
    assert results.failed == 0
