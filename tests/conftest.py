"""Shared fixtures for the test suite.

Conventions:

* every stochastic test fixes all seeds — the suite is deterministic;
* Monte-Carlo assertions use generous tolerances and are tuned to pass
  reproducibly with the pinned seeds (they document statistical behaviour,
  not razor-thin thresholds);
* medium graphs are session-scoped because exact counting is reused by
  many tests.
"""

from __future__ import annotations

import pytest

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.exact import compute_statistics
from repro.graph.generators import complete_graph, powerlaw_cluster


@pytest.fixture()
def scalar_drive(monkeypatch):
    """Call a function with every pass forced onto the scalar drive.

    ``scalar_drive(run, spec)`` patches the one chunked-or-scalar
    decision, :func:`repro.api.execution.chunk_size_for`, for the call:
    the reference the chunked drive must equal bit for bit.  Pool
    workers fork inside the call, so pooled runs follow the patch too.
    """
    from repro.api import execution

    def call(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(execution, "chunk_size_for", lambda *_: None)
            return fn(*args, **kwargs)

    return call


@pytest.fixture()
def triangle_graph() -> AdjacencyGraph:
    """The single triangle on nodes 0-2."""
    return AdjacencyGraph([(0, 1), (1, 2), (0, 2)])


@pytest.fixture()
def diamond_graph() -> AdjacencyGraph:
    """K4 minus one edge: 2 triangles, 8 wedges."""
    return AdjacencyGraph([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


@pytest.fixture()
def k4_graph() -> AdjacencyGraph:
    return complete_graph(4)


@pytest.fixture()
def k5_graph() -> AdjacencyGraph:
    return complete_graph(5)


@pytest.fixture(scope="session")
def social_graph() -> AdjacencyGraph:
    """A small clustered power-law graph used across Monte-Carlo tests."""
    return powerlaw_cluster(300, 3, 0.6, seed=5)


@pytest.fixture(scope="session")
def social_stats(social_graph):
    return compute_statistics(social_graph)


@pytest.fixture(scope="session")
def medium_graph() -> AdjacencyGraph:
    """A mid-size graph for single-run accuracy and integration tests."""
    return powerlaw_cluster(2000, 4, 0.5, seed=1)


@pytest.fixture(scope="session")
def medium_stats(medium_graph):
    return compute_statistics(medium_graph)
