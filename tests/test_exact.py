"""Tests for exact triangle/wedge/clustering counting (the ground truth).

Cross-validated against networkx (test dependency only), against the
dict-of-sets oracles in ``exact_oracle.py`` and against hand-computable
closed forms on structured graphs.
"""

from __future__ import annotations

import random
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from exact_oracle import (
    ExactStreamCounter,
    oracle_prefix_counts,
    oracle_statistics,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.exact as exact
from repro.api.ground_truth import GroundTruthCache
from repro.cli import main
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.exact import (
    column_statistics,
    compute_statistics,
    global_clustering,
    local_clustering,
    per_node_triangles,
    prefix_counts,
    triangle_count,
    wedge_count,
)
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    powerlaw_cluster,
    star_graph,
)
from repro.graph.io import read_edge_columns, read_edge_list


def comb2(n: int) -> int:
    return n * (n - 1) // 2


def comb3(n: int) -> int:
    return n * (n - 1) * (n - 2) // 6


class TestClosedForms:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
    def test_complete_graph_counts(self, n):
        graph = complete_graph(n)
        assert triangle_count(graph) == comb3(n)
        assert wedge_count(graph) == 3 * comb3(n)
        assert global_clustering(graph) == pytest.approx(1.0)

    @pytest.mark.parametrize("leaves", [1, 2, 5, 10])
    def test_star_counts(self, leaves):
        graph = star_graph(leaves)
        assert triangle_count(graph) == 0
        assert wedge_count(graph) == comb2(leaves)

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_cycle_counts(self, n):
        graph = cycle_graph(n)
        assert triangle_count(graph) == (1 if n == 3 else 0)
        assert wedge_count(graph) == n

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_path_counts(self, n):
        graph = path_graph(n)
        assert triangle_count(graph) == 0
        assert wedge_count(graph) == max(0, n - 2)

    def test_empty_graph(self):
        graph = AdjacencyGraph()
        assert triangle_count(graph) == 0
        assert wedge_count(graph) == 0
        assert global_clustering(graph) == 0.0

    def test_diamond(self, diamond_graph):
        assert triangle_count(diamond_graph) == 2
        assert wedge_count(diamond_graph) == 8
        assert global_clustering(diamond_graph) == pytest.approx(6 / 8)


class TestPerElementCounts:
    def test_per_node_triangles_k4(self, k4_graph):
        counts = per_node_triangles(k4_graph)
        assert all(count == 3 for count in counts.values())

    def test_per_node_sums_to_three_triangles(self, diamond_graph):
        counts = per_node_triangles(diamond_graph)
        assert sum(counts.values()) == 3 * triangle_count(diamond_graph)

    def test_local_clustering(self, diamond_graph):
        assert local_clustering(diamond_graph, 0) == pytest.approx(1.0)
        assert local_clustering(diamond_graph, 1) == pytest.approx(2 / 3)

    def test_local_clustering_degree_below_two(self):
        graph = AdjacencyGraph([(0, 1)])
        assert local_clustering(graph, 0) == 0.0


class TestStatisticsBundle:
    def test_compute_statistics(self, diamond_graph):
        stats = compute_statistics(diamond_graph)
        assert stats.num_nodes == 4
        assert stats.num_edges == 5
        assert stats.triangles == 2
        assert stats.wedges == 8
        assert stats.clustering == pytest.approx(0.75)

    def test_as_dict_round_trip(self, diamond_graph):
        stats = compute_statistics(diamond_graph)
        data = stats.as_dict()
        assert data["triangles"] == 2
        assert set(data) == {
            "num_nodes", "num_edges", "triangles", "wedges", "clustering",
        }


edge_lists = st.lists(
    st.tuples(st.integers(0, 25), st.integers(0, 25)), min_size=0, max_size=150
)


@settings(max_examples=100, deadline=None)
@given(edge_lists)
def test_triangles_match_networkx(pairs):
    graph = AdjacencyGraph(pairs)
    reference = nx.Graph()
    reference.add_nodes_from(graph.nodes())
    reference.add_edges_from(graph.edges())
    expected = sum(nx.triangles(reference).values()) // 3
    assert triangle_count(graph) == expected


@settings(max_examples=100, deadline=None)
@given(edge_lists)
def test_clustering_matches_networkx(pairs):
    graph = AdjacencyGraph(pairs)
    reference = nx.Graph()
    reference.add_nodes_from(graph.nodes())
    reference.add_edges_from(graph.edges())
    assert global_clustering(graph) == pytest.approx(
        nx.transitivity(reference), abs=1e-12
    )


class TestExactStreamCounter:
    def test_matches_batch_counts_on_stream(self, medium_graph):
        counter = ExactStreamCounter()
        for u, v in medium_graph.edges():
            counter.process(u, v)
        assert counter.triangles == triangle_count(medium_graph)
        assert counter.wedges == wedge_count(medium_graph)
        assert counter.clustering == pytest.approx(global_clustering(medium_graph))

    def test_prefix_counts_match_batch(self, social_graph):
        edges = social_graph.edge_list()
        counter = ExactStreamCounter()
        checkpoints = [len(edges) // 4, len(edges) // 2, len(edges)]
        prefix = AdjacencyGraph()
        next_mark = 0
        for idx, (u, v) in enumerate(edges, start=1):
            counter.process(u, v)
            prefix.add_edge(u, v)
            if next_mark < len(checkpoints) and idx == checkpoints[next_mark]:
                assert counter.triangles == triangle_count(prefix)
                assert counter.wedges == wedge_count(prefix)
                next_mark += 1

    def test_ignores_duplicates_and_loops(self):
        counter = ExactStreamCounter()
        assert counter.process(0, 1)
        assert not counter.process(1, 0)
        assert not counter.process(2, 2)
        assert counter.edges_seen == 1

    def test_process_many(self, k4_graph):
        counter = ExactStreamCounter()
        counter.process_many(k4_graph.edges())
        assert counter.triangles == 4
        assert counter.wedges == 12

    def test_graph_view_tracks_prefix(self):
        counter = ExactStreamCounter()
        counter.process(0, 1)
        counter.process(1, 2)
        assert counter.graph.num_edges == 2
        assert counter.graph.has_edge(0, 1)

    def test_empty_clustering_is_zero(self):
        assert ExactStreamCounter().clustering == 0.0


# ----------------------------------------------------------------------
# The columnar kernel against the oracle and networkx
# ----------------------------------------------------------------------
#: Block sizes that put a block boundary inside nearly every edge's
#: candidate run, plus the production constant.
BLOCKS = (1, 2, 3, exact._CANDIDATE_BLOCK)

INT32_EXTREMES = (-(2**31), -(2**31) + 1, 2**31 - 2, 2**31 - 1)
int_labels = st.one_of(st.integers(-4, 20), st.sampled_from(INT32_EXTREMES))
str_labels = st.text("abcdef", min_size=1, max_size=2)


@st.composite
def graphs(draw, labels):
    """Random simple graphs, with a few isolated ``add_node`` nodes."""
    pairs = draw(st.lists(st.tuples(labels, labels), max_size=120))
    graph = AdjacencyGraph(pairs)
    for node in draw(st.lists(labels, max_size=4)):
        graph.add_node(node)
    return graph


def int32_columns(graph):
    edges = np.array(list(graph.edges()), dtype=np.int32).reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


def assert_kernel_matches(graph, int_labelled):
    """Kernel, compute_statistics, oracle and networkx agree at every block."""
    expected = oracle_statistics(graph)
    reference = nx.Graph()
    reference.add_nodes_from(graph.nodes())
    reference.add_edges_from(graph.edges())
    per_node = nx.triangles(reference)
    assert (expected.num_nodes, expected.num_edges) == (
        reference.number_of_nodes(), reference.number_of_edges())
    assert expected.triangles == sum(per_node.values()) // 3
    assert expected.wedges == sum(d * (d - 1) // 2 for _, d in reference.degree())
    for block in BLOCKS:
        with mock.patch.object(exact, "_CANDIDATE_BLOCK", block):
            stats = compute_statistics(graph)
            assert stats == expected, block
            assert type(stats.triangles) is int and type(stats.wedges) is int
            assert triangle_count(graph) == expected.triangles
            assert global_clustering(graph) == expected.clustering
            assert per_node_triangles(graph) == per_node
            if int_labelled:
                columns = int32_columns(graph)
                assert column_statistics(
                    *columns, num_nodes=graph.num_nodes) == expected
                assert column_statistics(*columns).num_nodes == len(
                    {v for v in graph.nodes() if graph.degree(v)})


@settings(max_examples=150, deadline=None)
@given(graphs(int_labels))
def test_kernel_matches_oracle_on_int_labels(graph):
    assert_kernel_matches(graph, int_labelled=True)


@settings(max_examples=60, deadline=None)
@given(graphs(str_labels))
def test_kernel_matches_oracle_on_string_labels(graph):
    assert_kernel_matches(graph, int_labelled=False)


def _with_isolated(graph, *nodes):
    for node in nodes:
        graph.add_node(node)
    return graph


@pytest.mark.parametrize(
    "graph",
    [
        AdjacencyGraph(),
        _with_isolated(AdjacencyGraph(), 0, -5, 2**31 - 1),
        AdjacencyGraph([(-(2**31), 2**31 - 1)]),
        AdjacencyGraph([(0, 1), (2, 3), (-4, -5)]),  # a matching: no wedge
        star_graph(9),  # wedges, no triangle
        complete_graph(7),
        _with_isolated(powerlaw_cluster(120, 3, 0.6, seed=4), "a", "b"),
        AdjacencyGraph([("x", "y"), ("y", "z"), ("z", "x"), ("z", 3)]),
    ],
    ids=["empty", "isolated-only", "one-edge-extremes", "matching", "star",
         "k7", "powerlaw-plus-isolated", "mixed-labels"],
)
def test_kernel_matches_oracle_on_shapes(graph):
    int_labelled = all(type(v) is int for v in graph.nodes())
    assert_kernel_matches(graph, int_labelled=int_labelled)


def test_kernel_counts_past_int64_exactly():
    degrees = np.full(3, 2**32 - 1, dtype=np.int64)
    assert exact._wedges(degrees) == 3 * ((2**32 - 1) * (2**32 - 2) // 2)
    assert exact._wedges(degrees) > np.iinfo(np.int64).max


@pytest.mark.parametrize(
    "us, vs",
    [([1, 2], [1, 3]), ([1, 2], [2, 1]), ([5, 5], [6, 6])],
    ids=["self-loop", "reversed-duplicate", "duplicate"],
)
def test_kernel_rejects_unsimplified_columns(us, vs):
    with pytest.raises(ValueError, match="simplified"):
        column_statistics(np.array(us), np.array(vs))


def test_kernel_rejects_ragged_columns():
    with pytest.raises(ValueError, match="length"):
        column_statistics(np.array([1, 2]), np.array([3]))


# ----------------------------------------------------------------------
# The prefix kernel against the streaming oracle
# ----------------------------------------------------------------------
@st.composite
def streams_and_marks(draw):
    """Raw int32 streams — self loops, repeats in both orientations,
    negative and ±2³¹ ids, empty — with increasing 1-based marks, some
    past the end."""
    pairs = draw(st.lists(st.tuples(int_labels, int_labels), max_size=120))
    repeats = draw(st.lists(
        st.tuples(st.integers(0, 119), st.booleans()), max_size=30
    ))
    stream = list(pairs)
    for at, flip in repeats:
        if pairs:
            u, v = pairs[at % len(pairs)]
            stream.insert(draw(st.integers(0, len(stream))),
                          (v, u) if flip else (u, v))
    marks = draw(st.sets(st.integers(1, len(stream) + 3), max_size=12))
    return stream, sorted(marks)


@settings(max_examples=150, deadline=None)
@given(streams_and_marks())
def test_prefix_kernel_matches_streaming_oracle(case):
    stream, marks = case
    columns = np.array(stream, dtype=np.int32).reshape(-1, 2)
    expected = oracle_prefix_counts(stream, marks)
    for block in BLOCKS:
        with mock.patch.object(exact, "_CANDIDATE_BLOCK", block):
            rows = prefix_counts(columns[:, 0], columns[:, 1], marks)
        assert rows == expected, block
        assert all(type(t) is int and type(w) is int for t, w in rows)


# ----------------------------------------------------------------------
# Ground truth of files: the cache and ``stats`` count on columns
# ----------------------------------------------------------------------
def write_dirty(path, labels=None, seed=6):
    """A messy edge list: CRLF, % and # headers, a third column, self
    loops and reversed duplicates.  ``labels`` maps a node to its token."""
    rng = random.Random(seed)
    graph = powerlaw_cluster(200, 3, 0.5, seed=seed)
    token = labels or (lambda v: str(v - 100))  # negative ids too
    lines = ["% a header\r\n", "# a comment\r\n"]
    for u, v in graph.edges():
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{token(u)} {token(v)} {rng.random():.3f}\r\n")
        if rng.random() < 0.1:
            lines.append(f"{token(v)}\t{token(u)}\r\n")
        if rng.random() < 0.05:
            lines.append(f"{token(u)} {token(u)}\r\n")
    rng.shuffle(lines)
    lines.append(f"{2**31 - 1} {-(2**31)}\r\n" if labels is None else "")
    with open(path, "w", newline="") as handle:
        handle.writelines(lines)
    return str(path)


#: Files the columnar reader declines but the reference reads as ints.
DECLINED_LABELS = {
    "plus-and-underscore": lambda v: f"+{v}" if v % 3 else f"{v}_0",
    "past-int32": lambda v: str(v + 2**31 - 100 if v % 2 else -v - 2**31),
    "wide-and-huge": lambda v: str(v * 10**12),
}


class TestGroundTruthFiles:
    @pytest.mark.parametrize("block", [3, exact._CANDIDATE_BLOCK])
    def test_dirty_file_parses_columnar_and_matches_oracle(self, tmp_path, block):
        path = write_dirty(tmp_path / "dirty.txt")
        assert read_edge_columns(path) is not None
        expected = oracle_statistics(read_edge_list(path))
        with mock.patch.object(exact, "_CANDIDATE_BLOCK", block):
            assert GroundTruthCache().statistics(path) == expected
            cache = GroundTruthCache(tmp_path / "cache")
            assert cache.statistics(path) == expected
        assert expected.triangles > 0
        reread = GroundTruthCache(tmp_path / "cache")
        assert reread.statistics(path) == expected
        assert (reread.hits, reread.misses) == (1, 0)

    @pytest.mark.parametrize("name", sorted(DECLINED_LABELS))
    def test_declined_file_matches_oracle(self, tmp_path, name):
        path = write_dirty(tmp_path / f"{name}.txt", DECLINED_LABELS[name])
        assert read_edge_columns(path) is None
        expected = oracle_statistics(read_edge_list(path))
        assert expected.triangles > 0
        with mock.patch.object(exact, "_CANDIDATE_BLOCK", 2):
            assert GroundTruthCache().statistics(path) == expected
        assert GroundTruthCache().statistics(path) == expected

    @pytest.mark.parametrize("name", ["columnar"] + sorted(DECLINED_LABELS))
    def test_stats_command_prints_the_oracle(self, tmp_path, capsys, name):
        path = write_dirty(tmp_path / "g.txt", DECLINED_LABELS.get(name))
        expected = oracle_statistics(read_edge_list(path))
        assert main(["stats", path]) == 0
        assert capsys.readouterr().out == (
            f"nodes      {expected.num_nodes}\n"
            f"edges      {expected.num_edges}\n"
            f"triangles  {expected.triangles}\n"
            f"wedges     {expected.wedges}\n"
            f"clustering {expected.clustering:.6f}\n"
        )

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("% nothing\n")
        assert GroundTruthCache().statistics(str(path)) == oracle_statistics(
            AdjacencyGraph())
