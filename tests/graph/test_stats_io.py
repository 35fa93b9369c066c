"""Unit tests for graph statistics and IO."""

import pytest

from repro.errors import GraphFormatError
from repro.graph import generators, io, stats
from repro.graph.digraph import DiGraph


@pytest.fixture()
def graph():
    return generators.preferential_attachment_graph(150, out_degree=4, seed=12)


class TestStats:
    def test_compute_stats_fields(self, graph):
        result = stats.compute_stats(graph)
        assert result.n_nodes == graph.n_nodes
        assert result.n_edges == graph.n_edges
        assert result.avg_in_degree == pytest.approx(graph.n_edges / graph.n_nodes)
        assert result.max_in_degree >= result.avg_in_degree
        assert 0.0 <= result.zero_in_degree_fraction <= 1.0
        assert result.memory_bytes > 0

    def test_stats_to_dict_round_trip(self, graph):
        record = stats.compute_stats(graph).to_dict()
        assert record["name"] == graph.name
        assert record["n_edges"] == graph.n_edges

    def test_log_avg_in_degree_floor(self):
        sparse = DiGraph(10, [(0, 1)])
        result = stats.compute_stats(sparse)
        assert result.log_avg_in_degree == pytest.approx(1.0)

    def test_empty_graph_stats(self):
        result = stats.compute_stats(DiGraph(0, []))
        assert result.n_nodes == 0
        assert result.avg_in_degree == 0.0


class TestEdgeListIO:
    def test_round_trip(self, graph, tmp_path):
        path = tmp_path / "graph.tsv"
        written = io.write_edge_list(graph, path)
        assert written == path.stat().st_size
        loaded = io.read_edge_list(path, relabel=False, name=graph.name)
        assert loaded == graph

    def test_round_trip_with_relabel(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("# comment\nfoo\tbar\nbar\tbaz\n")
        graph = io.read_edge_list(path)
        assert graph.n_nodes == 3
        assert graph.n_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\njust-one-token\n")
        with pytest.raises(GraphFormatError):
            io.read_edge_list(path)

    def test_non_integer_ids_without_relabel_raise(self, tmp_path):
        path = tmp_path / "bad2.tsv"
        path.write_text("a\tb\n")
        with pytest.raises(GraphFormatError):
            io.read_edge_list(path, relabel=False)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "sparse.tsv"
        path.write_text("# header\n\n0\t1\n\n# trailer\n1\t2\n")
        graph = io.read_edge_list(path, relabel=False)
        assert graph.n_edges == 2


class TestBinaryIO:
    def test_round_trip(self, graph, tmp_path):
        path = tmp_path / "graph.npz"
        io.save_binary(graph, path)
        loaded = io.load_binary(path)
        assert loaded == graph
        assert loaded.name == graph.name

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(GraphFormatError):
            io.load_binary(tmp_path / "missing.npz")

    def test_load_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"not an npz file")
        with pytest.raises(GraphFormatError):
            io.load_binary(path)
