"""Unit tests for graph sampling."""

import pytest

from repro.errors import ConfigurationError
from repro.graph import generators, sampling
from repro.graph.digraph import DiGraph


@pytest.fixture(scope="module")
def graph():
    return generators.copying_model_graph(300, out_degree=6, seed=13)


class TestRandomNodeSample:
    def test_size(self, graph):
        sample = sampling.random_node_sample(graph, 0.25, seed=1)
        assert sample.n_nodes == 75
        assert sample.n_edges <= graph.n_edges

    def test_deterministic(self, graph):
        assert sampling.random_node_sample(graph, 0.2, seed=3) == \
            sampling.random_node_sample(graph, 0.2, seed=3)

    def test_full_fraction_keeps_all_nodes(self, graph):
        sample = sampling.random_node_sample(graph, 1.0, seed=1)
        assert sample.n_nodes == graph.n_nodes

    def test_invalid_fraction(self, graph):
        with pytest.raises(ConfigurationError):
            sampling.random_node_sample(graph, 0.0)
        with pytest.raises(ConfigurationError):
            sampling.random_node_sample(graph, 1.5)


class TestRandomEdgeSample:
    def test_keeps_all_nodes(self, graph):
        sample = sampling.random_edge_sample(graph, 0.3, seed=2)
        assert sample.n_nodes == graph.n_nodes
        assert 0 < sample.n_edges < graph.n_edges

    def test_expected_edge_count(self, graph):
        sample = sampling.random_edge_sample(graph, 0.5, seed=2)
        assert abs(sample.n_edges - 0.5 * graph.n_edges) < 0.15 * graph.n_edges

    def test_empty_graph(self):
        empty = DiGraph(5, [])
        sample = sampling.random_edge_sample(empty, 0.5, seed=1)
        assert sample.n_nodes == 5
        assert sample.n_edges == 0


class TestForestFireSample:
    def test_target_size_reached(self, graph):
        sample = sampling.forest_fire_sample(graph, 60, seed=4)
        assert sample.n_nodes == 60

    def test_target_larger_than_graph_clamped(self, graph):
        sample = sampling.forest_fire_sample(graph, 10_000, seed=4)
        assert sample.n_nodes == graph.n_nodes

    def test_preserves_some_edges(self, graph):
        sample = sampling.forest_fire_sample(graph, 100, seed=5)
        assert sample.n_edges > 0

    def test_invalid_arguments(self, graph):
        with pytest.raises(ConfigurationError):
            sampling.forest_fire_sample(graph, 0)
        with pytest.raises(ConfigurationError):
            sampling.forest_fire_sample(graph, 10, forward_prob=1.5)
        with pytest.raises(ConfigurationError):
            sampling.forest_fire_sample(DiGraph(0, []), 5)

