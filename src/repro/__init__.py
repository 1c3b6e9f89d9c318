"""repro — Graph Priority Sampling for massive graph streams.

A faithful, production-quality reproduction of

    Nesreen K. Ahmed, Nick Duffield, Theodore L. Willke, Ryan A. Rossi.
    "On Sampling from Massive Graph Streams." VLDB 2017.

Quick start
-----------
>>> from repro import (AdjacencyGraph, EdgeStream, GraphPrioritySampler,
...                    PostStreamEstimator, triangle_count)
>>> graph = AdjacencyGraph([(0, 1), (1, 2), (0, 2), (2, 3), (3, 0)])
>>> stream = EdgeStream.from_graph(graph, seed=42)
>>> sampler = GraphPrioritySampler(capacity=10, seed=7)
>>> sampler.process_stream(stream)
>>> estimates = PostStreamEstimator(sampler).estimate()
>>> estimates.triangles.value == triangle_count(graph)  # no overflow: exact
True

Package map
-----------
``repro.api``         Declarative experiment facade: method/weight
                      registries, ``RunSpec`` value objects, the
                      ``run(spec) -> RunReport`` interpreter and the
                      ``execute`` executor every fan-out shares.
``repro.core``        GPS sampler, weight functions, post-/in-stream
                      estimation, generalised subgraph estimators.
``repro.graph``       Graph substrate: adjacency structure, exact counting,
                      generators, edge-list I/O.
``repro.streams``     Edge-stream model and transforms.
``repro.engine``      High-throughput stream driving, the resilient
                      process pool and shared-memory edge publication.
``repro.serve``       Live sampling service: concurrent ingestion with
                      epoch-stamped snapshot queries (``ServeSpec`` +
                      ``SamplingService`` + ``python -m repro serve``).
``repro.stats``       HT estimation, confidence intervals, error metrics.
``repro.baselines``   TRIEST, MASCOT, NSAMP, JSP, Buriol, gSH, uniform
                      reservoir — the paper's comparison methods.
``repro.experiments`` Dataset registry and the harnesses regenerating every
                      table and figure in the paper.
"""

from repro.api.execution import MetricSummary, RunReport, run
from repro.api.registry import register_method, register_weight
from repro.api.spec import RunSpec
from repro.core.adaptive import AdaptiveTriangleWeight
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.estimates import GraphEstimates, SubgraphEstimate
from repro.core.in_stream import InStreamEstimator
from repro.core.local import LocalTriangleEstimator
from repro.core.motifs import MotifCensusEstimator
from repro.core.post_stream import PostStreamEstimator
from repro.core.priority_sampler import GraphPrioritySampler, UpdateResult
from repro.core.records import EdgeRecord
from repro.core.reservoir import SampledGraph
from repro.core.snapshot_counters import InStreamCliqueCounter
from repro.core.subgraphs import CliqueEstimator, StarEstimator
from repro.core.weights import (
    AttributeWeight,
    LinearCombinationWeight,
    TriangleWeight,
    UniformWeight,
    WedgeWeight,
)
from repro.engine.stream_engine import EngineStats, StreamEngine
from repro.serve import SamplingService, ServeSpec
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.exact import (
    GraphStatistics,
    compute_statistics,
    global_clustering,
    triangle_count,
    wedge_count,
)
from repro.streams.stream import EdgeStream

__version__ = "1.0.0"

__all__ = [
    "RunReport",
    "RunSpec",
    "register_method",
    "register_weight",
    "run",
    "AdaptiveTriangleWeight",
    "load_checkpoint",
    "save_checkpoint",
    "LocalTriangleEstimator",
    "MotifCensusEstimator",
    "InStreamCliqueCounter",
    "GraphEstimates",
    "SubgraphEstimate",
    "InStreamEstimator",
    "PostStreamEstimator",
    "GraphPrioritySampler",
    "UpdateResult",
    "EdgeRecord",
    "SampledGraph",
    "CliqueEstimator",
    "StarEstimator",
    "AttributeWeight",
    "LinearCombinationWeight",
    "TriangleWeight",
    "UniformWeight",
    "WedgeWeight",
    "EngineStats",
    "MetricSummary",
    "StreamEngine",
    "SamplingService",
    "ServeSpec",
    "AdjacencyGraph",
    "GraphStatistics",
    "compute_statistics",
    "global_clustering",
    "triangle_count",
    "wedge_count",
    "EdgeStream",
    "__version__",
]
