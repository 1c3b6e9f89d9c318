"""Shared-memory fan-out: zero-copy publication and segment lifecycle.

The executor (``repro.api.execution.execute``) publishes each
int-labelled population once, under its own labels.  The publisher owns
the segment; these tests pin down the contract that it is unlinked on
success, on worker failure, and on KeyboardInterrupt — a leaked segment
outlives the process and eats /dev/shm until reboot, so the lifecycle is
part of the feature — and that pooled tasks see exactly the labels an
inline run sees.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import pytest

from repro.api.execution import run
from repro.api.spec import RunSpec
from repro.api.sweep import SweepSpec, run_sweep
from repro.baselines.base import BatchProcessMixin
from repro.engine.shared_edges import (
    SharedEdgePopulation,
    shared_memory_available,
)
from repro.core.weights import AttributeWeight
from repro.graph.generators import powerlaw_cluster
from repro.graph.io import write_edge_list
from repro.streams.interner import NodeInterner
from repro.streams.stream import EdgeStream


def segment_exists(name: str) -> bool:
    try:
        handle = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    handle.close()
    return True


@pytest.fixture
def graph():
    return powerlaw_cluster(120, 3, 0.5, seed=1)


# ----------------------------------------------------------------------
# Publish / attach mechanics
# ----------------------------------------------------------------------
def test_publish_attach_round_trip():
    assert shared_memory_available()
    edges = [(0, 1), (1, 2), (2, 0), (3, 1)]
    population = SharedEdgePopulation.publish(edges)
    name, count = population.descriptor
    assert count == 4
    try:
        assert SharedEdgePopulation.attach(population.descriptor) == edges
        # Attaching never destroys the segment.
        assert segment_exists(name)
    finally:
        population.close()
        population.unlink()
    assert not segment_exists(name)
    with pytest.raises(FileNotFoundError):
        SharedEdgePopulation.attach((name, count))


def test_publish_empty_population():
    population = SharedEdgePopulation.publish([])
    try:
        assert SharedEdgePopulation.attach(population.descriptor) == []
    finally:
        population.close()
        population.unlink()


def test_context_manager_unlinks_on_success_and_failure():
    with SharedEdgePopulation.publish([(0, 1)]) as population:
        name, _ = population.descriptor
        assert segment_exists(name)
    assert not segment_exists(name)

    with pytest.raises(RuntimeError):
        with SharedEdgePopulation.publish([(0, 1)]) as population:
            name, _ = population.descriptor
            raise RuntimeError("boom")
    assert not segment_exists(name)

    with pytest.raises(KeyboardInterrupt):
        with SharedEdgePopulation.publish([(0, 1)]) as population:
            name, _ = population.descriptor
            raise KeyboardInterrupt
    assert not segment_exists(name)

    # unlink is idempotent (context exit after a manual unlink).
    population = SharedEdgePopulation.publish([(0, 1)])
    population.unlink()
    population.unlink()
    population.close()


# ----------------------------------------------------------------------
# Replicated-run pool lifecycle
# ----------------------------------------------------------------------
class _PublishRecorder:
    """Wrap publish() to capture the created segment names."""

    def __init__(self):
        self.names = []
        self._orig = SharedEdgePopulation.publish

    def __call__(self, edges):
        population = self._orig(edges)
        self.names.append(population.descriptor[0])
        return population


@pytest.fixture
def recorded_publish(monkeypatch):
    recorder = _PublishRecorder()
    monkeypatch.setattr(SharedEdgePopulation, "publish", recorder)
    return recorder


def replicated(graph, workers=1, **kwargs):
    spec = RunSpec(source="<g>", budget=50, replications=2, workers=workers)
    return run(spec, graph=graph, **kwargs)


def test_replication_shared_unlinks_on_success(graph, recorded_publish):
    report = replicated(graph)
    assert report.workers == 1
    assert len(recorded_publish.names) == 1  # one publish per population
    assert all(not segment_exists(n) for n in recorded_publish.names)


@pytest.mark.parametrize("boom", [RuntimeError("worker died"),
                                  KeyboardInterrupt()])
def test_replication_shared_unlinks_on_pool_failure(
    graph, recorded_publish, monkeypatch, boom
):
    import repro.engine.resilient as resilient_module

    class ExplodingPool:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, fn, *args):
            raise boom

        def shutdown(self, *args, **kwargs):
            pass

    monkeypatch.setattr(
        resilient_module, "ProcessPoolExecutor", ExplodingPool
    )
    with pytest.raises(type(boom)):
        replicated(graph)
    assert recorded_publish.names
    assert all(not segment_exists(n) for n in recorded_publish.names)


def sparse_labelled(graph):
    """The graph's edges under non-dense int labels ``7u + 1000``."""
    return [(7 * u + 1000, 7 * v + 1000)
            for u, v in EdgeStream.canonical_edges(graph)]


def test_label_dependent_weight_sees_original_labels(graph, recorded_publish):
    """A label-reading weight gets the raw labels from the shared segment."""
    edges = sparse_labelled(graph)
    weight = AttributeWeight(lambda u, v: 1.0 + (u + v) % 3)
    pooled = replicated(edges, workers=1, weight_fn=weight)
    assert recorded_publish.names, "int labels should publish"
    inline = replicated(edges, workers=0, weight_fn=weight)
    assert pooled.metrics == inline.metrics
    assert pooled.metrics["in_stream_triangles"].count == 2


def test_unknown_dispatch_rejected():
    # One transport remains, so the spec has no dispatch option at all.
    with pytest.raises(ValueError, match="dispatch"):
        RunSpec.from_dict({"source": "g.txt", "dispatch": "pickle"})


def test_interned_population_round_trips_labels(graph):
    """An interned population survives publish/attach and maps back."""
    labelled = [(f"n{u}", f"n{v}") for u, v in graph.edges()]
    interner = NodeInterner()
    interned = interner.intern_edges(labelled)
    with SharedEdgePopulation.publish(interned) as shared:
        attached = SharedEdgePopulation.attach(shared.descriptor)
    assert attached == list(interned)
    labels = interner.labels
    assert [(labels[u], labels[v]) for u, v in attached] == labelled


# ----------------------------------------------------------------------
# Sweep pool lifecycle
# ----------------------------------------------------------------------
def test_sweep_shared_sources_unlink(tmp_path, graph, recorded_publish):
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    spec = SweepSpec(sources=(str(path),), methods=("gps-post", "triest"),
                     budgets=(40, 60), runs=1, workers=1)
    report = run_sweep(spec)
    assert len(report.cells) == 4
    assert recorded_publish.names, "pooled sweep should publish its sources"
    assert all(not segment_exists(n) for n in recorded_publish.names)


def test_sweep_shared_vs_inline_bit_identical(tmp_path, graph):
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    base = SweepSpec(sources=(str(path),),
                     methods=("gps-in-stream", "triest"),
                     budgets=(40, 60), runs=2, workers=0)
    inline = run_sweep(base)
    pooled = run_sweep(base.replace(workers=1))
    for a, b in zip(inline.cells, pooled.cells):
        assert a.key == b.key
        for name in a.metrics:
            assert a.metrics[name].mean == b.metrics[name].mean
            assert a.metrics[name].variance == b.metrics[name].variance


def test_sweep_publishes_raw_labels_bit_identically(tmp_path):
    """Pooled S>1 cells route the file's own labels, like inline ones.

    The edge hash of the shard router reads labels, so a pool that
    relabelled its population (dense first-seen ids) would route a
    different partition than an inline run of the same file.
    """
    graph = powerlaw_cluster(600, 3, 0.5, seed=4)
    path = tmp_path / "sparse.txt"
    write_edge_list(sparse_labelled(graph), path)
    base = SweepSpec(sources=(str(path),), methods=("gps-post",),
                     budgets=(120,), shards=(1, 2), runs=2,
                     base_stream_seed=3, base_sampler_seed=8, workers=0)
    inline = run_sweep(base)
    pooled = run_sweep(base.replace(workers=2))
    assert len(inline.cells) == len(pooled.cells) == 2
    for a, b in zip(inline.cells, pooled.cells):
        assert a.key == b.key
        assert a.metrics == b.metrics
        assert [r.estimates for r in a.reports] == [
            r.estimates for r in b.reports
        ]


def test_label_reading_method_refuses_interned_dispatch(graph, tmp_path):
    """A method registered with reads_labels=True sees the raw labels in
    both pools: nothing is ever interned on the way to a worker."""
    import repro.api.registry as registry

    class MaxLabel(BatchProcessMixin):
        """Reports the largest node label it was fed."""

        def __init__(self):
            self.triangle_estimate = 0.0

        def process(self, u, v):
            self.triangle_estimate = float(
                max(self.triangle_estimate, u, v)
            )

    @registry.register_method(
        "label-reader-test", description="test-only", reads_labels=True
    )
    def _make(budget, stream_length, seed):
        return MaxLabel()

    try:
        edges = sparse_labelled(graph)
        top = float(max(max(edge) for edge in edges))
        spec = RunSpec(source="<g>", method="label-reader-test", budget=5,
                       replications=2, workers=1)
        assert run(spec, graph=edges).metrics["triangles"].mean == top
        path = tmp_path / "sparse.txt"
        write_edge_list(edges, path)
        report = run_sweep(SweepSpec(
            sources=(str(path),), methods=("label-reader-test", "triest"),
            budgets=(40,), runs=2, workers=2,
        ))
        cell = report.cell(str(path), "label-reader-test")
        assert [r.estimates["triangles"] for r in cell.reports] == [top, top]
    finally:
        registry._METHODS.pop("label-reader-test", None)
