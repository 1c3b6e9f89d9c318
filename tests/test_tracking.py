"""Tracking runs score against the exact prefix series of their stream.

A tracking pass counts ``N_t(△)`` and ``N_t(Λ)`` once, before the
engine pass, with :func:`repro.graph.exact.prefix_counts`.  Every
:class:`~repro.api.execution.TrackPoint` must equal the dict-of-sets
oracle fed the same permuted stream, whatever the labels, and the
report's timing must cover the sampler alone.
"""

from __future__ import annotations

import time

import pytest
from exact_oracle import oracle_prefix_counts

from repro.api import RunSpec, execution, run
from repro.api.registry import method_specs, weight_names
from repro.core.post_stream import PostStreamEstimator
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.generators import powerlaw_cluster
from repro.graph.io import iter_edge_list, read_edge_columns
from repro.streams import stream as stream_module
from repro.streams.stream import EdgeStream
from repro.streams.transforms import simplify_edges


def _dirty_file(path):
    """CRLF ends, a ``%`` header, a third column, self loops and
    reversed duplicates."""
    rows = ["% generated\r\n"]
    edges = sorted(powerlaw_cluster(120, 3, 0.5, seed=5).edges())
    for i, (u, v) in enumerate(edges):
        rows.append(f"{u} {v} {i}\r\n")
        if i % 9 == 0:
            rows.append(f"{v}\t{u}\r\n")
        if i % 13 == 0:
            rows.append(f"{u} {u}\r\n")
    path.write_bytes("".join(rows).encode())
    return str(path)


def _wide_file(path):
    """Integer ids, some past int32: the columnar reader declines it."""
    edges = powerlaw_cluster(90, 3, 0.5, seed=8).edges()
    path.write_text("".join(
        f"{u + (2**31 if u % 7 == 0 else 0)} {v}\n" for u, v in edges
    ))
    return str(path)


def _raw_edges():
    """An edge list with repeats in both orientations and self loops."""
    edges = []
    graph = powerlaw_cluster(90, 3, 0.5, seed=7)
    for i, (u, v) in enumerate(graph.edges()):
        edges.append((u, v))
        if i % 5 == 0:
            edges.append((v, u))
        if i % 7 == 0:
            edges.append((u, u))
    return edges


@pytest.fixture(scope="module")
def populations(tmp_path_factory):
    """``name -> (source, graph)`` of the four tracked populations."""
    root = tmp_path_factory.mktemp("tracking")
    dirty = _dirty_file(root / "dirty.txt")
    wide = _wide_file(root / "wide.txt")
    assert read_edge_columns(dirty) is not None
    assert read_edge_columns(wide) is None
    strings = AdjacencyGraph(
        (f"n{u}", f"n{v}")
        for u, v in powerlaw_cluster(100, 3, 0.5, seed=6).edges()
    )
    return {
        "dirty-file": (dirty, None),
        "wide-file": (wide, None),
        "string-graph": ("<g>", strings),
        "raw-edges": ("<g>", _raw_edges()),
    }


def _arrivals(source, graph, seed):
    """The permuted stream a run over ``source``/``graph`` sees."""
    if graph is None:
        population = EdgeStream(
            list(simplify_edges(iter_edge_list(source)))
        )
    elif isinstance(graph, AdjacencyGraph):
        population = EdgeStream(EdgeStream.canonical_edges(graph))
    else:
        population = EdgeStream(graph)
    return list(population.permuted(seed))


def _configurations():
    for name in ("dirty-file", "wide-file", "string-graph", "raw-edges"):
        for method in method_specs():
            if name == "string-graph" and method.name == "nsamp":
                continue  # NSAMP keeps its endpoints in int arrays
            weights = (None,) + (
                weight_names() if method.uses_weight else ()
            )
            for weight in weights:
                yield pytest.param(
                    name, method.name, weight,
                    id=f"{name}-{method.name}-{weight or 'default'}",
                )


@pytest.mark.parametrize("stream_seed", [None, 3])
@pytest.mark.parametrize("name,method,weight", list(_configurations()))
def test_track_points_equal_the_oracle(populations, name, method, weight,
                                       stream_seed):
    source, graph = populations[name]
    spec = RunSpec(source=source, method=method, weight=weight, budget=40,
                   stream_seed=stream_seed, sampler_seed=5, checkpoints=7)
    report = run(spec, graph=graph)
    _assert_oracle(report, _arrivals(source, graph, stream_seed), 7)


def _assert_oracle(report, arrivals, checkpoints):
    marks = [point.position for point in report.tracking]
    assert marks == EdgeStream(arrivals).checkpoints(checkpoints)
    expected = oracle_prefix_counts(arrivals, marks)
    assert [
        (point.exact_triangles, point.exact_clustering)
        for point in report.tracking
    ] == [
        (triangles, 3.0 * triangles / wedges if wedges else 0.0)
        for triangles, wedges in expected
    ]
    assert expected[-1][0] > 0


@pytest.mark.parametrize("method,weight", [
    ("gps", None), ("triest", None), ("gps-post", "triangle"),
])
def test_scalar_tracking_permutes_columns(populations, monkeypatch,
                                          method, weight):
    """A scalar pass over an integer file gathers its int32 columns.

    Its exact series needs them, so they are never rebuilt from the
    permuted tuples.
    """
    source, _ = populations["dirty-file"]
    arrivals = _arrivals(source, None, 3)

    def refuse(edges):
        raise AssertionError("columns rebuilt from tuples")

    monkeypatch.setattr(stream_module, "columnar_or_none", refuse)
    spec = RunSpec(source=source, method=method, weight=weight, budget=40,
                   stream_seed=3, sampler_seed=5, checkpoints=7)
    report = run(spec)
    assert report.pipeline == "scalar"
    _assert_oracle(report, arrivals, 7)


def test_report_timing_excludes_ground_truth(monkeypatch):
    """The exact series is counted before the pass, off the clock."""
    kernel = execution.prefix_counts

    def slow_kernel(*args):
        time.sleep(0.5)
        return kernel(*args)

    monkeypatch.setattr(execution, "prefix_counts", slow_kernel)
    graph = powerlaw_cluster(60, 3, 0.5, seed=2)
    spec = RunSpec(source="<g>", method="gps-post", weight="uniform",
                   budget=30, stream_seed=1, checkpoints=5)
    started = time.perf_counter()
    report = run(spec, graph=graph)
    assert time.perf_counter() - started >= 0.5  # the kernel ran
    assert len(report.tracking) == 5
    assert report.elapsed_seconds < 0.5


@pytest.mark.parametrize("method,include_post,passes", [
    ("gps-post", False, 10),
    ("gps-post", True, 10),
    ("gps", True, 10),
    ("gps", False, 1),
    ("gps-in-stream", True, 10),
])
def test_one_algorithm2_pass_per_mark(populations, monkeypatch, method,
                                      include_post, passes):
    """gps-post's estimate and its ``include_post`` bundle share one
    pass per mark, and the last mark's bundle (the stream's end) is the
    report's."""
    estimate = PostStreamEstimator.estimate
    calls = []

    def counted(self):
        calls.append(self)
        return estimate(self)

    source, _ = populations["dirty-file"]
    spec = RunSpec(source=source, method=method, budget=40, stream_seed=3,
                   sampler_seed=5, checkpoints=10)
    expected = run(spec, include_post=include_post)
    monkeypatch.setattr(PostStreamEstimator, "estimate", counted)
    report = run(spec, include_post=include_post)
    assert len(calls) == passes
    assert report.tracking == expected.tracking
    assert report.post_stream == expected.post_stream
    assert report.estimates == expected.estimates
    points = report.tracking
    if include_post:
        assert all(point.post_stream is not None for point in points)
        if report.post_stream is not None:
            assert report.post_stream == points[-1].post_stream
    if method == "gps-post":
        final = estimate(PostStreamEstimator(report.counter.sampler))
        assert points[-1].estimate == final.triangles.value
        assert report.post_stream == final
