"""Tests for edge-list I/O."""

from __future__ import annotations

import gzip

import pytest

from repro.graph.io import iter_edge_list, read_edge_list, write_edge_list


class TestRoundTrip:
    def test_graph_round_trip(self, tmp_path, k5_graph):
        path = tmp_path / "edges.txt"
        count = write_edge_list(k5_graph, path)
        assert count == 10
        back = read_edge_list(path)
        assert sorted(back.edges()) == sorted(k5_graph.edges())

    def test_edge_iterable_round_trip(self, tmp_path):
        path = tmp_path / "edges.txt"
        write_edge_list([(5, 2), (2, 9)], path)
        assert list(iter_edge_list(path)) == [(5, 2), (2, 9)]

    def test_gzip_round_trip(self, tmp_path, k4_graph):
        path = tmp_path / "edges.txt.gz"
        write_edge_list(k4_graph, path)
        with gzip.open(path, "rt") as handle:
            assert len(handle.readlines()) == 6
        back = read_edge_list(path)
        assert back.num_edges == 6


class TestParsing:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n\n% matrix comment\n// c style\n1 2\n3 4\n")
        assert list(iter_edge_list(path)) == [(1, 2), (3, 4)]

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2 1483228800 0.5\n2 3 1483228900 1.0\n")
        assert list(iter_edge_list(path)) == [(1, 2), (2, 3)]

    def test_short_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1\n1 2\n")
        assert list(iter_edge_list(path)) == [(1, 2)]

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("1,2\n2,3\n")
        assert list(iter_edge_list(path, delimiter=",")) == [(1, 2), (2, 3)]

    def test_custom_node_type(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("alice bob\nbob carol\n")
        edges = list(iter_edge_list(path, node_type=str))
        assert edges == [("alice", "bob"), ("bob", "carol")]

    def test_read_simplifies(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2\n2 1\n3 3\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 1

    def test_header_written_as_comments(self, tmp_path):
        path = tmp_path / "edges.txt"
        write_edge_list([(0, 1)], path, header="line one\nline two")
        text = path.read_text()
        assert text.startswith("# line one\n# line two\n")
        assert list(iter_edge_list(path)) == [(0, 1)]


class TestRelabel:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_edge_list(tmp_path / "absent.txt")
