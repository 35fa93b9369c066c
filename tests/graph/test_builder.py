"""Unit tests for GraphBuilder."""

import pytest

from repro.errors import GraphFormatError
from repro.graph.builder import GraphBuilder


class TestGraphBuilder:
    def test_basic_build(self):
        builder = GraphBuilder()
        builder.add_edge("alice", "bob")
        builder.add_edge("bob", "carol")
        graph = builder.build(name="tiny")
        assert graph.n_nodes == 3
        assert graph.n_edges == 2
        assert graph.name == "tiny"

    def test_labels_ordered_by_first_appearance(self):
        builder = GraphBuilder()
        builder.add_edge("x", "y")
        builder.add_edge("y", "z")
        assert builder.labels() == ["x", "y", "z"]

    def test_add_edges_bulk(self):
        builder = GraphBuilder()
        builder.add_edges([(1, 2), (2, 3), (3, 1)])
        assert builder.n_nodes == 3
        assert builder.n_edges == 3

    def test_n_nodes_override(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1)
        graph = builder.build(n_nodes=5)
        assert graph.n_nodes == 5

    def test_n_nodes_override_too_small(self):
        builder = GraphBuilder()
        builder.add_edges([(0, 1), (1, 2)])
        with pytest.raises(GraphFormatError):
            builder.build(n_nodes=2)

    def test_repeated_labels_reuse_ids(self):
        builder = GraphBuilder()
        first = builder.node_id("a")
        second = builder.node_id("a")
        assert first == second

    def test_duplicate_edges_deduplicated_in_graph(self):
        builder = GraphBuilder()
        builder.add_edge("a", "b")
        builder.add_edge("a", "b")
        assert builder.n_edges == 2
        assert builder.build().n_edges == 1
