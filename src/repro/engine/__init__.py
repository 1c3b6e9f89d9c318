"""repro.engine — the high-throughput stream-driving subsystem.

``StreamEngine`` is the one loop that feeds arrivals to counters (batched
through ``process_many`` fast paths where available) and fires checkpoint
callbacks.  The fan-out machinery under the executor
(:func:`repro.api.execution.execute`) lives here too:
:func:`run_resilient`, the fault-tolerant process pool, and
:mod:`repro.engine.shared_edges`, which publishes an int-labelled edge
population once through shared memory so per-worker setup stays a
fixed-size descriptor.
"""

from repro.engine.resilient import (
    DEFAULT_REBUILD_BUDGET,
    DEFAULT_RETRY_BUDGET,
    RetryStats,
    run_resilient,
)
from repro.engine.shared_edges import (
    SharedEdgePopulation,
    shared_memory_available,
)
from repro.engine.stream_engine import EngineStats, StreamEngine

__all__ = [
    "DEFAULT_REBUILD_BUDGET",
    "DEFAULT_RETRY_BUDGET",
    "EngineStats",
    "RetryStats",
    "SharedEdgePopulation",
    "StreamEngine",
    "run_resilient",
    "shared_memory_available",
]
