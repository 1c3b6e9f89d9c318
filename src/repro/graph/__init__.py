"""Static-graph substrate: adjacency structure, exact counting, generators, I/O.

The paper's experiments measure estimator error against exact triangle and
wedge counts on graphs from many domains.  This package supplies everything
needed for that on the substrate side:

* :class:`~repro.graph.adjacency.AdjacencyGraph` — hash-based undirected
  simple graph (the paper's "undirected, unweighted, simplified graph
  without self loops").
* :mod:`repro.graph.exact` — exact triangle/wedge/clustering counting used
  as ground truth, including the exact prefix series of a stream for the
  tracking experiments.
* :mod:`repro.graph.generators` — from-scratch random graph models standing
  in for the paper's network-repository datasets.
* :mod:`repro.graph.io` — edge-list readers/writers for running on real
  downloaded graphs.
"""

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import canonical_edge, is_self_loop
from repro.graph.exact import (
    GraphStatistics,
    compute_statistics,
    global_clustering,
    triangle_count,
    wedge_count,
)

__all__ = [
    "AdjacencyGraph",
    "canonical_edge",
    "is_self_loop",
    "GraphStatistics",
    "compute_statistics",
    "global_clustering",
    "triangle_count",
    "wedge_count",
]
