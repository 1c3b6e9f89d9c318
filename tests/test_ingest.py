"""Columnar file ingest: the int32 edge-list reader against its reference.

The columnar reader (``parse_edge_columns`` and the byte slabs behind
``read_edge_columns``/``iter_edge_chunks``/``read_edge_list``) must
either reproduce the reference line loop ``iter_edge_list`` exactly or
decline; ``simplify_columns`` must equal ``simplify_edges``; the index
permutation must equal a tuple shuffle; and ``run(spec)`` over a file
must report exactly what it reports over the same edges passed as
tuples, on every path (single, tracking, replicated inline and pooled,
sharded).
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.io as io_module
import repro.streams.stream as stream_module
from repro.api import RunSpec, run
from repro.api.registry import method_specs, weight_names
from repro.cli import main
from repro.engine.shared_edges import SharedEdgePopulation
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.generators import powerlaw_cluster
from repro.graph.io import (
    EdgeListError,
    iter_edge_chunks,
    iter_edge_list,
    parse_edge_columns,
    read_edge_columns,
    read_edge_list,
)
from repro.serve.service import SamplingService
from repro.serve.source import FileTailSource, SocketLineSource
from repro.serve.spec import ServeSpec
from repro.shard.runner import ShardedRunner
from repro.streams.chunks import DEFAULT_CHUNK_SIZE, iter_chunks
from repro.streams.stream import EdgeStream
from repro.streams.transforms import simplify_columns, simplify_edges

INT32_MAX = 2**31 - 1

#: Labels the reference reads but the columnar reader must decline
#: (``+``, ``_``, leading zeros past its width cap, ids past ±2³¹,
#: non-ASCII digits) or handle (``-0``, short leading zeros, ±2³¹ edges),
#: and labels the reference rejects.
HOSTILE_LABELS = (
    "-0", "007", "+5", "1_0", "2147483647", "2147483648", "-2147483648",
    "-2147483649", "00000000000000000000001", "99999999999", "٣",
    "-", "--1", "0x1", "x", "/x", "\x00", "é",
)
#: Extra columns: numeric, non-numeric and comment look-alikes.
EXTRA_TOKENS = ("0.5", "1483228800", "w=3", "#c", "%", "+1", "x")
COMMENTS = ("#", "%", "//")
SEPARATORS = (" ", "\t", "  ", " \t", "\x0b", "\x1c")
LINE_ENDS = ("\n", "\r\n", "\r")

# Small ids so self loops and duplicates in both orientations are common.
small_ids = st.integers(min_value=-3, max_value=12).map(str)
#: Labels both readers must parse: ``-0``, leading zeros, the int32 ends.
SAFE_LABELS = ("-0", "007", "2147483647", "-2147483648")
separators = st.sampled_from(SEPARATORS)
indents = st.sampled_from(("", "", " ", "\t"))
other_lines = st.one_of(
    st.builds(lambda indent, mark, rest: indent + mark + rest, indents,
              st.sampled_from(COMMENTS),
              st.sampled_from(("", " header", " 1 2", "x y"))),
    st.builds(lambda indent, token: indent + token, indents,
              st.sampled_from(("", "7", "x", "%", "/"))),
)


def edge_files(labels):
    edge_lines = st.builds(
        lambda indent, u, sep, v, extra: indent + u + sep + v + extra,
        indents, labels, separators, labels,
        st.one_of(st.just(""), st.builds(
            lambda sep, token: sep + token, separators,
            st.sampled_from(EXTRA_TOKENS),
        )),
    )
    lines = st.builds(
        lambda body, end: body + end,
        st.one_of(edge_lines, edge_lines, edge_lines, other_lines),
        st.sampled_from(LINE_ENDS),
    )
    return st.lists(lines, max_size=20).map("".join)


# Half the files stick to labels both readers accept, so most of them
# carry edges; the other half draw from the whole hostile alphabet.
hostile_files = st.one_of(
    edge_files(st.one_of(*[small_ids] * 8, st.sampled_from(SAFE_LABELS))),
    edge_files(st.one_of(*[small_ids] * 8, st.sampled_from(HOSTILE_LABELS))),
)
plain_files = st.lists(
    st.tuples(
        st.integers(min_value=-(2**31), max_value=INT32_MAX),
        st.integers(min_value=-(2**31), max_value=INT32_MAX),
    ),
    max_size=30,
).map(lambda edges: "".join(f"{u} {v}\n" for u, v in edges))

# Tiny slabs so small generated files still cross slab boundaries.
TINY_SLABS = st.sampled_from((1, 3, 16, 1 << 18))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


def _write(workdir: Path, text: str) -> Path:
    path = workdir / "edges.txt"
    path.write_bytes(text.encode("utf-8"))
    return path


def _outcome(thunk):
    """A reader's result, or the type of the error it raised."""
    try:
        return thunk()
    except (EdgeListError, UnicodeDecodeError, TypeError) as exc:
        return type(exc)


def _blocks(blocks):
    out = []
    try:
        for us, vs in blocks:
            out.append((str(us.dtype), us.tolist(), vs.tolist()))
    except (EdgeListError, UnicodeDecodeError, TypeError) as exc:
        out.append(type(exc))
    return out


def _small_slabs(slab: int):
    return mock.patch.multiple(
        io_module, _FILE_SLAB_BYTES=slab, _SLAB_BYTES_PER_EDGE=1,
        _MIN_SLAB_BYTES=slab,
    )


# ----------------------------------------------------------------------
# Reader + simplify vs the reference
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=hostile_files, slab=TINY_SLABS)
def test_columnar_reader_equals_reference_or_declines(workdir, text, slab):
    path = _write(workdir, text)
    reference = _outcome(lambda: list(simplify_edges(iter_edge_list(path))))
    with _small_slabs(slab):
        columns = read_edge_columns(path)
        graph = _outcome(lambda: sorted(read_edge_list(path).edges()))
    if columns is not None:
        us, vs = simplify_columns(*columns)
        assert us.dtype == vs.dtype == np.int32
        assert list(zip(us.tolist(), vs.tolist())) == reference
    assert graph == _outcome(lambda: sorted(_reference_graph(path).edges()))


def _reference_graph(path):
    return AdjacencyGraph(iter_edge_list(path))


@settings(max_examples=100, deadline=None)
@given(text=plain_files, slab=TINY_SLABS)
def test_plain_files_never_decline(workdir, text, slab):
    path = _write(workdir, text)
    with _small_slabs(slab):
        columns = read_edge_columns(path)
    assert columns is not None
    assert list(zip(columns[0].tolist(), columns[1].tolist())) == list(
        iter_edge_list(path)
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=hostile_files, slab=TINY_SLABS)
def test_lazy_blocks_equal_reference_blocks(workdir, text, slab):
    path = _write(workdir, text)
    for size in (1, 7, 16384):
        expected = _blocks(iter_chunks(iter_edge_list(path), size))
        with _small_slabs(slab):
            assert _blocks(iter_edge_chunks(path, size)) == expected


def test_lazy_blocks_across_many_slabs(tmp_path):
    """A multi-slab file with mixed line ends, then one whose last slab
    declines: blocks and the raised error match the reference."""
    rng = random.Random(3)
    rows = []
    for i in range(6000):
        end = rng.choice(LINE_ENDS)
        rows.append(f"{rng.randrange(900)}\t{rng.randrange(900)} 0.5{end}")
        if i % 500 == 0:
            rows.append(f"% note {i}\n")
    path = tmp_path / "many.txt"
    path.write_bytes("".join(rows).encode())
    bad = tmp_path / "late.txt"
    bad.write_bytes(("".join(rows) + "7 2147483648\n1 2\n").encode())
    for size in (1, 7, 16384):
        for target in (path, bad):
            assert _blocks(iter_edge_chunks(target, size)) == _blocks(
                iter_chunks(iter_edge_list(target), size)
            )
    assert read_edge_columns(bad) is None
    assert sorted(read_edge_list(bad).edges()) == sorted(
        _reference_graph(bad).edges()
    )


def test_every_digit_place_parses_exactly():
    """A 9 in every decimal place, and ids at the int32 ends, parse to
    their exact values whatever numpy's scalar promotion rules."""
    labels = [int("9" * k) for k in range(1, 10)]
    labels += [300, 5000, 1999999999, INT32_MAX]
    text = "".join(f"{u} -{u}\n" for u in labels)
    us, vs = parse_edge_columns(text.encode())
    assert us.tolist() == labels
    assert vs.tolist() == [-u for u in labels]
    assert parse_edge_columns(b"900 5000000000\n") is None
    assert parse_edge_columns(b"9999999999 1\n") is None


def test_gzip_files_read_columnar(tmp_path):
    import gzip

    path = tmp_path / "g.txt.gz"
    with gzip.open(path, "wt") as handle:
        handle.write("# header\n0 1\n1 2\n2 0\n")
    us, vs = read_edge_columns(path)
    assert list(zip(us.tolist(), vs.tolist())) == [(0, 1), (1, 2), (2, 0)]


def test_malformed_line_error_names_path_and_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# header\n0 1\n1 x\n")
    with pytest.raises(EdgeListError, match=r"bad\.txt:3"):
        list(iter_edge_list(path))
    assert read_edge_columns(path) is None
    assert isinstance(EdgeListError("x"), ValueError)


# ----------------------------------------------------------------------
# The index permutation
# ----------------------------------------------------------------------
def _shuffled(n, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


# Small sizes stay in the replica's plain loop; 2**k - 1, 2**k and
# 2**k + 1 sit around its loop cut (2**10), a power of two its block
# draws cross (2**11) and its block-word cap (2**16).
@pytest.mark.parametrize(
    "n",
    [0, 1, 2, 3, 5, 17, 64, 1023, 1024, 1025, 2047, 2048, 2049, 4097,
     65535, 65536, 65537, 131073, 200000],
)
@pytest.mark.parametrize("seed", [0, 1, 7, -5, 2**40 + 3])
def test_index_shuffle_equals_tuple_shuffle(n, seed):
    # The replica answers here, not the fail-safe reference loop.
    assert stream_module._replica_agrees()
    edges = [(i, (7 * i + 3) % 101) for i in range(n)]
    order = _shuffled(n, seed)
    expected = [edges[i] for i in order]
    assert list(EdgeStream(edges).permuted(seed)) == expected
    assert list(_column_twin(edges).permuted(seed)) == expected
    # Labels past int32 do not convert, so their tuples are gathered.
    wide = [(u + 2**31, v) for u, v in edges]
    assert list(EdgeStream(wide).permuted(seed)) == [wide[i] for i in order]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 5000), seed=st.integers())
def test_replica_equals_shuffle_for_any_seed(n, seed):
    assert stream_module._replica(n, seed).tolist() == _shuffled(n, seed)


@pytest.mark.parametrize("words", [1, 100])
def test_replica_exact_whatever_the_block_cap(monkeypatch, words):
    """Blocks only batch the draws: any cap gives the same words."""
    monkeypatch.setattr(stream_module, "_BLOCK_WORDS", words)
    for n in (4095, 4096, 4097):
        assert stream_module._replica(n, 3).tolist() == _shuffled(n, 3)


@pytest.fixture
def fresh_self_check():
    """Run the replica's first-use self-check again, here and after."""
    stream_module._replica_agrees.cache_clear()
    yield stream_module._replica_agrees
    stream_module._replica_agrees.cache_clear()


def test_wrong_replica_fails_safe(monkeypatch, fresh_self_check):
    monkeypatch.setattr(
        stream_module, "_replica",
        lambda n, seed: np.arange(n, dtype=np.int32),
    )
    assert not fresh_self_check()
    edges = [(i, (3 * i + 1) % 53) for i in range(2000)]
    order = _shuffled(len(edges), 9)
    assert list(EdgeStream(edges).permuted(9)) == [edges[i] for i in order]
    wide = [(u + 2**31, v) for u, v in edges]
    assert list(EdgeStream(wide).permuted(9)) == [wide[i] for i in order]


def test_sizes_past_int32_take_the_reference(monkeypatch, fresh_self_check):
    assert fresh_self_check()

    def refuse(n, seed):
        raise AssertionError("replica ran past the index limit")

    monkeypatch.setattr(stream_module, "_INDEX_LIMIT", 100)
    monkeypatch.setattr(stream_module, "_replica", refuse)
    assert stream_module.shuffled_indices(150, 4).tolist() == _shuffled(150, 4)


def test_from_graph_permutes_the_canonical_order():
    graph = powerlaw_cluster(60, 3, 0.5, seed=4)
    canonical = EdgeStream.canonical_edges(graph)
    for seed in (0, 5):
        expected = [canonical[i] for i in _shuffled(len(canonical), seed)]
        assert list(EdgeStream.from_graph(graph, seed)) == expected
    assert list(EdgeStream.from_graph(graph, None)) == canonical


def test_unseeded_permutation_keeps_the_stream():
    stream = EdgeStream([(0, 1), (1, 2)])
    assert stream.permuted(None) is stream


# ----------------------------------------------------------------------
# run(spec): file source vs the same edges as tuples
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    """A dirty integer file: a header, CRLF ends, a third column, self
    loops and duplicates in both orientations."""
    edges = sorted(powerlaw_cluster(140, 3, 0.5, seed=5).edges())
    rows = ["% generated\r\n"]
    for i, (u, v) in enumerate(edges):
        rows.append(f"{u} {v} {i}\r\n")
        if i % 9 == 0:
            rows.append(f"{v}\t{u}\r\n")
        if i % 13 == 0:
            rows.append(f"{u} {u}\r\n")
    path = tmp_path_factory.mktemp("ingest") / "dirty.txt"
    path.write_bytes("".join(rows).encode())
    return str(path)


@pytest.fixture(scope="module")
def tuples(edge_file):
    return list(simplify_edges(iter_edge_list(edge_file)))


def _same_report(a, b):
    assert a.mode == b.mode
    assert a.edges == b.edges
    assert a.estimates == b.estimates
    assert a.metrics == b.metrics
    assert a.in_stream == b.in_stream
    assert a.post_stream == b.post_stream
    assert a.threshold == b.threshold
    assert a.sample_size == b.sample_size
    assert a.pipeline == b.pipeline
    assert [
        (p.position, p.exact_triangles, p.estimate, p.in_stream)
        for p in a.tracking
    ] == [
        (p.position, p.exact_triangles, p.estimate, p.in_stream)
        for p in b.tracking
    ]


def _configurations():
    for method in method_specs():
        weights = (None,) + (weight_names() if method.uses_weight else ())
        for weight in weights:
            yield pytest.param(method.name, weight,
                               id=f"{method.name}-{weight or 'default'}")


@pytest.mark.parametrize("method,weight", list(_configurations()))
def test_file_source_matches_tuple_graph(edge_file, tuples, method, weight):
    spec = RunSpec(source=edge_file, method=method, weight=weight,
                   budget=60, stream_seed=4, sampler_seed=9)
    _same_report(run(spec), run(spec, graph=tuples))
    track = spec.replace(checkpoints=3)
    _same_report(run(track), run(track, graph=tuples))


@pytest.mark.parametrize("weight", ["uniform", "triangle"])
@pytest.mark.parametrize("workers", [0, 2])
def test_replications_match_tuple_graph(edge_file, tuples, weight, workers):
    spec = RunSpec(source=edge_file, method="gps-post", weight=weight,
                   budget=60, stream_seed=2, sampler_seed=3,
                   replications=3, workers=workers)
    _same_report(run(spec), run(spec, graph=tuples))


@pytest.mark.parametrize("weight", ["uniform", "triangle"])
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_passes_match_tuple_graph(edge_file, tuples, weight, shards):
    spec = RunSpec(source=edge_file, method="gps-post", weight=weight,
                   budget=60, stream_seed=6, sampler_seed=2, shards=shards)
    file_report = run(spec)
    _same_report(file_report, run(spec, graph=tuples))
    assert file_report.pipeline == (
        "chunked" if weight == "uniform" else "scalar"
    )
    replicated = spec.replace(replications=2, workers=0)
    _same_report(run(replicated), run(replicated, graph=tuples))


def test_chunked_file_path_builds_no_tuples(edge_file, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tuples materialised on the chunked path")

    monkeypatch.setattr(EdgeStream, "__init__", refuse)
    # A chunked pass never iterates pairs out of the columns either.
    monkeypatch.setattr(stream_module, "pairs_from_columns", refuse)
    monkeypatch.setattr(stream_module, "iter_edge_list", refuse)
    spec = RunSpec(source=edge_file, method="gps-post", weight="uniform",
                   budget=60, stream_seed=1)
    assert run(spec).pipeline == "chunked"
    assert run(spec.replace(shards=2)).pipeline == "chunked"
    assert run(spec.replace(stream_seed=None)).pipeline == "chunked"


#: Report fields that time the pass; everything else must be identical.
TIMING = ("elapsed_seconds", "update_time_us", "edges_per_second")


def _timeless(report):
    out = report.to_dict()
    for key in TIMING:
        del out[key]
    return out


def test_scalar_file_passes_build_no_tuples(edge_file, tuples, monkeypatch):
    """Scalar passes over an int32 file read its columns block by
    block: with tuple-backed EdgeStream construction and the reference
    line loop refused, every single, tracking, replicated and sharded
    run, seeded or not, equals the same spec over the file's tuple
    list."""
    specs = []
    for param in _configurations():
        method, weight = param.values
        base = RunSpec(source=edge_file, method=method, weight=weight,
                       budget=60, stream_seed=4, sampler_seed=9)
        unseeded = base.replace(stream_seed=None)
        specs += [base, base.replace(checkpoints=3),
                  base.replace(replications=2, workers=0),
                  unseeded, unseeded.replace(checkpoints=3)]
    for weight in (None,) + weight_names():
        for shards in (2, 4):
            specs.append(RunSpec(source=edge_file, method="gps-post",
                                 weight=weight, budget=60, stream_seed=6,
                                 sampler_seed=2, shards=shards))
    expected = [run(spec, graph=tuples) for spec in specs]

    def refuse(*args, **kwargs):
        raise AssertionError("the file's edges were built as tuples")

    monkeypatch.setattr(EdgeStream, "__init__", refuse)
    monkeypatch.setattr(stream_module, "iter_edge_list", refuse)
    reports = [run(spec) for spec in specs]
    monkeypatch.undo()
    assert {report.pipeline for report in reports} == {"scalar", "chunked"}
    for report, reference in zip(reports, expected):
        _same_report(report, reference)
        assert _timeless(report) == _timeless(reference)


def _column_twin(edges):
    return EdgeStream.from_columns(
        np.array([u for u, _ in edges], dtype=np.int32),
        np.array([v for _, v in edges], dtype=np.int32),
    )


def test_column_stream_protocol_matches_tuples(monkeypatch):
    """Iteration, indexing, slicing, prefix and len of a column-backed
    stream equal the tuple stream's, across block boundaries, and
    slices and prefixes stay column-backed."""
    n = 2 * DEFAULT_CHUNK_SIZE + 77
    edges = [((7 * i) % 5003 - 2500, (11 * i + 3) % 4001) for i in range(n)]
    tuples, columns = EdgeStream(edges), _column_twin(edges)
    points = (0, 1, DEFAULT_CHUNK_SIZE - 1, DEFAULT_CHUNK_SIZE, n - 1, -1, -n)
    edge = DEFAULT_CHUNK_SIZE  # a block boundary
    cuts = [slice(a, b, step)
            for a, b in [(0, 5), (edge - 3, edge + 3), (10, n - 10),
                         (-20, None), (None, None), (5, 5)]
            for step in (None, 3)]
    lengths = (0, 1, DEFAULT_CHUNK_SIZE + 1, n, n + 5)
    expected = (
        list(tuples), [tuples[i] for i in points],
        [list(tuples[cut]) for cut in cuts],
        [(list(tuples.prefix(k)), len(tuples.prefix(k))) for k in lengths],
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a tuple-backed EdgeStream was built")

    monkeypatch.setattr(EdgeStream, "__init__", refuse)
    assert len(columns) == len(tuples) == n
    for _ in range(2):  # replayable
        pairs = list(columns)
        assert pairs == expected[0]
        assert {type(x) for pair in pairs for x in pair} == {int}
    assert [columns[i] for i in points] == expected[1]
    assert {type(x) for i in points for x in columns[i]} == {int}
    with pytest.raises(IndexError):
        columns[n]
    parts = [columns[cut] for cut in cuts]
    assert [list(part) for part in parts] == expected[2]
    heads = [columns.prefix(k) for k in lengths]
    assert [(list(head), len(head)) for head in heads] == expected[3]
    assert all(x.columnar() is not None for x in parts + heads)


def test_iterating_columns_holds_one_block():
    """Iterating a 200k-edge column stream keeps about one block of
    pairs alive, far below the tuple list a cached view would hold."""
    n = 200_000
    us = np.arange(n, dtype=np.int32)
    vs = ((us.astype(np.int64) * 7919 + 13) % n).astype(np.int32)
    stream = EdgeStream.from_columns(us, vs)

    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def walk():
        count = 0
        for _ in stream:
            count += 1
        return count

    count, walked = peak(walk)
    assert count == n
    _, block = peak(lambda: list(zip(us[:DEFAULT_CHUNK_SIZE].tolist(),
                                     vs[:DEFAULT_CHUNK_SIZE].tolist())))
    _, whole = peak(lambda: list(zip(us.tolist(), vs.tolist())))
    assert walked < 1.5 * block, (walked, block)
    assert walked * 10 < whole, (walked, whole)


def test_out_of_int32_file_stays_scalar(tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("0 1\n1 2\n2 0\n2 2147483648\n")
    assert read_edge_columns(path) is None
    spec = RunSpec(source=str(path), method="gps-post", weight="uniform",
                   budget=10, stream_seed=0)
    report = run(spec)
    assert report.pipeline == "scalar"
    _same_report(report, run(spec, graph=list(iter_edge_list(path))))


def test_publish_straight_from_columns():
    stream = EdgeStream.from_columns(
        np.array([0, 5, -3], dtype=np.int32),
        np.array([1, 6, 2**31 - 1], dtype=np.int32),
    )
    with SharedEdgePopulation.publish(stream) as shared:
        us, vs = SharedEdgePopulation.attach_columns(shared.descriptor)
        assert SharedEdgePopulation.attach(shared.descriptor) == list(stream)
    assert us.dtype == np.int32 and us.tolist() == [0, 5, -3]
    with pytest.raises(ValueError, match="int32"):
        SharedEdgePopulation.publish([(0, 2**31)])


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------
COMMENTED = "% header\n0 1\n// note\n1 2\n"


def test_followed_file_skips_every_comment_form(tmp_path):
    path = tmp_path / "tail.txt"
    path.write_text(COMMENTED)
    assert list(iter_edge_list(path)) == [(0, 1), (1, 2)]
    source = FileTailSource(str(path), chunk_size=4, follow=True,
                            poll_interval=0.01)
    collected = []

    def consume():
        for us, vs in source:
            collected.extend(zip(us.tolist(), vs.tolist()))

    thread = threading.Thread(target=consume, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5.0
    while len(collected) < 2 and thread.is_alive() and (
            time.monotonic() < deadline):
        time.sleep(0.01)
    source.stop()
    thread.join(5.0)
    assert collected == [(0, 1), (1, 2)]


def test_socket_source_skips_every_comment_form():
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def feed():
        conn, _ = server.accept()
        with conn:
            conn.sendall(COMMENTED.encode())

    threading.Thread(target=feed, daemon=True).start()
    try:
        collected = []
        for us, vs in SocketLineSource(f"tcp://127.0.0.1:{port}",
                                       chunk_size=4):
            collected.extend(zip(us.tolist(), vs.tolist()))
    finally:
        server.close()
    assert collected == [(0, 1), (1, 2)]


#: Three malformed lines among six edges: a non-integer pair, an id
#: past int32 and a word line, next to a comment that is not counted.
MALFORMED = ("0 1\nx y\n1 2\n1 2147483648\n2 3\n3 4\n% note\n4 5\n"
             "bad line\n5 6\n")
MALFORMED_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]


def test_followed_file_skips_and_counts_malformed_lines(tmp_path):
    path = tmp_path / "tail.txt"
    path.write_text(MALFORMED)
    service = SamplingService(ServeSpec(
        source=str(path), follow=True, budget=100, chunk_size=4,
        poll_interval=0.01,
    ))
    service.start()
    deadline = time.monotonic() + 10.0
    while service.status()["stream_position"] < len(MALFORMED_EDGES) and (
            time.monotonic() < deadline):
        time.sleep(0.01)
    status = service.status()
    service.stop(drain=False)
    assert status["stream_position"] == len(MALFORMED_EDGES)
    assert status["resilience"]["source_skipped_lines"] == 3
    assert status["resilience"]["degraded"] is False
    assert status["errors"] == []


def test_socket_source_skips_malformed_lines_across_a_reconnect():
    """A dropped feed replays from its start: the replay skip counts
    delivered edges only, and a replayed bad line is counted once."""
    lines = MALFORMED.splitlines(keepends=True)
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def feed():
        for drop in (True, False):
            conn, _ = server.accept()
            with conn:
                if drop:
                    conn.sendall("".join(lines[:5]).encode())
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    struct.pack("ii", 1, 0))
                else:
                    conn.sendall("".join(lines).encode())

    threading.Thread(target=feed, daemon=True).start()
    source = SocketLineSource(f"tcp://127.0.0.1:{port}", chunk_size=2,
                              retries=3, backoff=0.01)
    try:
        collected = []
        for us, vs in source:
            collected.extend(zip(us.tolist(), vs.tolist()))
    finally:
        server.close()
    assert collected == MALFORMED_EDGES
    assert source.skipped_lines == 3


def test_sharded_runner_checks_every_label():
    with pytest.raises(ValueError, match="integer node labels"):
        ShardedRunner([(0, 1), (1, 2), ("a", "b"), (2, 3)],
                      shards=2, budget=4)


@pytest.mark.parametrize("argv", [
    ["stats"],
    ["sample", "-m", "10"],
    ["replicate", "-m", "10", "-R", "2", "--workers", "0"],
    ["sweep", "--method", "triest", "-m", "10", "--workers", "0",
     "--no-cache"],
])
def test_cli_reports_malformed_lines_in_one_line(tmp_path, capsys, argv):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n1 x\n")
    command, *flags = argv
    args = [command, "--source", str(path), *flags] if command == "sweep" \
        else [command, str(path), *flags]
    assert main(args) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    assert f"{path}:2" in err and "Traceback" not in err
