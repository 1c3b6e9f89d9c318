"""Tests for the edge-stream model."""

from __future__ import annotations

import gc

import numpy as np

from repro.graph.adjacency import AdjacencyGraph
from repro.streams.stream import EdgeStream


class TestConstruction:
    def test_from_graph_contains_all_edges(self, k5_graph):
        stream = EdgeStream.from_graph(k5_graph, seed=0)
        assert len(stream) == 10
        assert sorted(stream) == sorted(k5_graph.edges())

    def test_permutation_deterministic_by_seed(self, k5_graph):
        s1 = EdgeStream.from_graph(k5_graph, seed=42)
        s2 = EdgeStream.from_graph(k5_graph, seed=42)
        assert list(s1) == list(s2)

    def test_different_seeds_differ(self, medium_graph):
        s1 = EdgeStream.from_graph(medium_graph, seed=1)
        s2 = EdgeStream.from_graph(medium_graph, seed=2)
        assert list(s1) != list(s2)

    def test_replayable(self, k4_graph):
        stream = EdgeStream.from_graph(k4_graph, seed=0)
        assert list(stream) == list(stream)

    def test_from_edges_preserves_order(self):
        edges = [(3, 4), (1, 2), (2, 3)]
        assert list(EdgeStream.from_edges(edges)) == edges


class TestHeldPermutation:
    """A population keeps the order it last permuted, and only that one."""

    @staticmethod
    def holds(population, stream):
        # EdgeStream has __slots__ and no __weakref__: look at what the
        # population itself refers to.
        return any(ref is stream for ref in gc.get_referents(population))

    def populations(self):
        column = np.arange(40, dtype=np.int32)
        yield EdgeStream.from_columns(column, column + 1)
        yield EdgeStream([(f"n{i}", f"n{i + 1}") for i in range(40)])

    def test_repeated_seed_returns_the_same_stream(self):
        for population in self.populations():
            first = population.permuted(3)
            assert population.permuted(3) is first
            assert self.holds(population, first)

    def test_new_seed_drops_the_held_stream(self):
        for population in self.populations():
            first = population.permuted(3)
            expected = list(EdgeStream(list(population)).permuted(4))
            second = population.permuted(4)
            assert list(second) == expected
            assert not self.holds(population, first)
            assert self.holds(population, second)
            assert population.permuted(3) is not first
            assert list(population.permuted(3)) == list(first)

    def test_unseeded_returns_the_population(self):
        for population in self.populations():
            held = population.permuted(5)
            assert population.permuted(None) is population
            assert population.permuted(5) is held


class TestSlicing:
    def test_prefix(self):
        stream = EdgeStream.from_edges([(0, 1), (1, 2), (2, 3)])
        assert list(stream.prefix(2)) == [(0, 1), (1, 2)]

    def test_getitem_index_and_slice(self):
        stream = EdgeStream.from_edges([(0, 1), (1, 2), (2, 3)])
        assert stream[0] == (0, 1)
        assert list(stream[1:]) == [(1, 2), (2, 3)]
        assert isinstance(stream[1:], EdgeStream)


class TestCheckpoints:
    def test_checkpoints_end_at_stream_length(self):
        stream = EdgeStream.from_edges([(i, i + 1) for i in range(100)])
        marks = stream.checkpoints(4)
        assert marks == [25, 50, 75, 100]

    def test_checkpoints_more_than_length(self):
        stream = EdgeStream.from_edges([(0, 1), (1, 2), (2, 3)])
        assert stream.checkpoints(10) == [1, 2, 3]

    def test_checkpoints_zero(self):
        stream = EdgeStream.from_edges([(0, 1)])
        assert stream.checkpoints(0) == []

    def test_checkpoints_sorted_unique(self, medium_graph):
        stream = EdgeStream.from_graph(medium_graph, seed=0)
        marks = stream.checkpoints(17)
        assert marks == sorted(set(marks))
        assert marks[-1] == len(stream)

    def test_stream_node_labels_preserved(self):
        graph = AdjacencyGraph([("a", "b"), ("b", "c")])
        stream = EdgeStream.from_graph(graph, seed=0)
        assert sorted(stream) == [("a", "b"), ("b", "c")]


class TestCheckpointExactCount:
    """Regression: rounding collisions must not shrink the checkpoint list
    below ``min(count, n)`` (small streams used to lose marks)."""

    def test_exact_count_for_all_small_streams(self):
        for n in range(1, 60):
            stream = EdgeStream.from_edges([(i, i + 1) for i in range(n)])
            for count in range(1, 70):
                marks = stream.checkpoints(count)
                assert len(marks) == min(count, n), (n, count, marks)
                assert marks == sorted(set(marks)), (n, count, marks)
                assert marks[0] >= 1
                assert marks[-1] == n

    def test_strictly_increasing_no_collisions(self):
        stream = EdgeStream.from_edges([(i, i + 1) for i in range(7)])
        marks = stream.checkpoints(5)
        assert len(marks) == 5
        assert all(b > a for a, b in zip(marks, marks[1:]))
        assert marks[-1] == 7

    def test_empty_stream(self):
        assert EdgeStream.from_edges([]).checkpoints(4) == []
