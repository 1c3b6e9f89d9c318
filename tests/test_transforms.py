"""Tests for stream transforms."""

from __future__ import annotations

from repro.streams.transforms import simplify_edges


class TestSimplify:
    def test_drops_self_loops(self):
        assert list(simplify_edges([(1, 1), (1, 2)])) == [(1, 2)]

    def test_drops_duplicates_both_orientations(self):
        edges = [(1, 2), (2, 1), (1, 2), (2, 3)]
        assert list(simplify_edges(edges)) == [(1, 2), (2, 3)]

    def test_keeps_first_orientation(self):
        assert list(simplify_edges([(5, 2), (2, 5)])) == [(5, 2)]

    def test_empty(self):
        assert list(simplify_edges([])) == []

    def test_lazy(self):
        def generator():
            yield (0, 1)
            raise AssertionError("must not be consumed eagerly")

        iterator = simplify_edges(generator())
        assert next(iterator) == (0, 1)
