"""Unit tests for the CSR DiGraph."""

import numpy as np
import pytest

from repro.errors import GraphFormatError, NodeNotFoundError
from repro.graph.digraph import DiGraph


@pytest.fixture()
def small_graph() -> DiGraph:
    # 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 isolated
    return DiGraph(4, [(0, 1), (0, 2), (1, 2), (2, 0)], name="small")


class TestConstruction:
    def test_counts(self, small_graph):
        assert small_graph.n_nodes == 4
        assert small_graph.n_edges == 4
        assert len(small_graph) == 4

    def test_empty_graph(self):
        graph = DiGraph(3, [])
        assert graph.n_nodes == 3
        assert graph.n_edges == 0
        assert list(graph.edges()) == []

    def test_zero_node_graph(self):
        graph = DiGraph(0, [])
        assert graph.n_nodes == 0
        assert graph.n_edges == 0

    def test_duplicate_edges_removed(self):
        graph = DiGraph(3, [(0, 1), (0, 1), (1, 2)])
        assert graph.n_edges == 2

    def test_self_loops_kept(self):
        graph = DiGraph(2, [(0, 0), (0, 1)])
        assert graph.n_edges == 2
        assert graph.has_edge(0, 0)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            DiGraph(2, [(0, 5)])
        with pytest.raises(GraphFormatError):
            DiGraph(2, [(-1, 0)])

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphFormatError):
            DiGraph(-1, [])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(GraphFormatError):
            DiGraph(3, [(0, 1, 2)])

    def test_edge_array_taken_as_is(self, small_graph):
        edges = np.array([[0, 1], [0, 2], [1, 2], [2, 0], [0, 1]])
        assert DiGraph(4, edges) == small_graph
        assert DiGraph(4, edges[:, ::-1]) == small_graph.reverse()
        assert DiGraph(4, np.empty((0, 2), dtype=np.int64)).n_edges == 0
        with pytest.raises(GraphFormatError, match=r"pairs, got array of shape \(2, 3\)"):
            DiGraph(4, np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(GraphFormatError, match=r"lie in \[0, 3\], found endpoints in \[0, 4\]"):
            DiGraph(4, np.array([[0, 4]]))

    def test_repr_mentions_name(self, small_graph):
        assert "small" in repr(small_graph)

    def test_equality(self, small_graph):
        clone = DiGraph(4, [(0, 1), (0, 2), (1, 2), (2, 0)])
        assert small_graph == clone
        other = DiGraph(4, [(0, 1)])
        assert small_graph != other
        assert small_graph != "not a graph"


class TestAdjacency:
    def test_out_neighbors(self, small_graph):
        assert sorted(small_graph.out_neighbors(0).tolist()) == [1, 2]
        assert small_graph.out_neighbors(3).tolist() == []

    def test_in_neighbors(self, small_graph):
        assert sorted(small_graph.in_neighbors(2).tolist()) == [0, 1]
        assert small_graph.in_neighbors(3).tolist() == []

    def test_degrees(self, small_graph):
        assert small_graph.out_degree(0) == 2
        assert small_graph.in_degree(2) == 2
        assert small_graph.in_degree(3) == 0

    def test_degree_vectors_consistent(self, small_graph):
        assert small_graph.in_degrees().sum() == small_graph.n_edges
        assert small_graph.out_degrees().sum() == small_graph.n_edges

    def test_has_edge(self, small_graph):
        assert small_graph.has_edge(0, 1)
        assert not small_graph.has_edge(1, 0)

    def test_node_validation(self, small_graph):
        with pytest.raises(NodeNotFoundError):
            small_graph.in_neighbors(10)
        with pytest.raises(NodeNotFoundError):
            small_graph.out_degree(-1)

    def test_edges_iteration_matches_edge_array(self, small_graph):
        iterated = sorted(small_graph.edges())
        from_array = sorted(map(tuple, small_graph.edge_array().tolist()))
        assert iterated == from_array

    def test_nodes_range(self, small_graph):
        assert list(small_graph.nodes()) == [0, 1, 2, 3]


class TestLinearAlgebraViews:
    def test_transition_matrix_columns_sum_to_one_or_zero(self, small_graph):
        p = small_graph.transition_matrix()
        col_sums = np.asarray(p.sum(axis=0)).ravel()
        in_deg = small_graph.in_degrees()
        for node in range(small_graph.n_nodes):
            if in_deg[node] > 0:
                assert col_sums[node] == pytest.approx(1.0)
            else:
                assert col_sums[node] == pytest.approx(0.0)

    def test_transition_matrix_entries(self, small_graph):
        p = small_graph.transition_matrix().toarray()
        # node 2 has in-neighbours {0, 1} so each gets probability 1/2
        assert p[0, 2] == pytest.approx(0.5)
        assert p[1, 2] == pytest.approx(0.5)
        # node 1 has a single in-neighbour 0
        assert p[0, 1] == pytest.approx(1.0)

    def test_adjacency_matrix(self, small_graph):
        a = small_graph.adjacency_matrix().toarray()
        assert a[0, 1] == 1.0
        assert a[1, 0] == 0.0
        assert a.sum() == small_graph.n_edges


class TestDerivedGraphs:
    def test_reverse(self, small_graph):
        rev = small_graph.reverse()
        assert rev.n_edges == small_graph.n_edges
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)
        assert np.array_equal(rev.in_degrees(), small_graph.out_degrees())

    def test_with_edges(self, small_graph):
        grown = small_graph.with_edges([(3, 0), (0, 1), (4, 4), (3, 0)])
        assert (grown.n_nodes, grown.n_edges, grown.name) == (5, 6, "small")
        assert grown.out_neighbors(3).tolist() == [0]
        assert grown.in_neighbors(0).tolist() == [2, 3]
        assert grown.has_edge(4, 4)
        assert (small_graph.n_nodes, small_graph.n_edges) == (4, 4)
        assert small_graph.with_edges([], n_nodes=6).n_nodes == 6
        assert small_graph.with_edges([]) == small_graph

    def test_with_edges_rejects_bad_input(self, small_graph):
        with pytest.raises(GraphFormatError, match="only grows"):
            small_graph.with_edges([(0, 3)], n_nodes=3)
        with pytest.raises(GraphFormatError, match=r"lie in \[0, 4\]"):
            small_graph.with_edges([(0, 5)], n_nodes=5)
        with pytest.raises(GraphFormatError, match="found endpoints in"):
            small_graph.with_edges([(-1, 2)])
        with pytest.raises(GraphFormatError, match="pairs"):
            small_graph.with_edges([(0, 1, 2)])

    def test_subgraph(self, small_graph):
        sub = small_graph.subgraph([0, 1, 2])
        assert sub.n_nodes == 3
        assert sub.n_edges == 4
        sub2 = small_graph.subgraph([2, 0])
        # Edges 2 -> 0 and 0 -> 2 survive; with node order [2, 0] they are
        # relabelled to 0 -> 1 and 1 -> 0.
        assert sub2.n_edges == 2
        assert sub2.has_edge(0, 1)
        assert sub2.has_edge(1, 0)

    def test_networkx_round_trip(self, small_graph):
        nx_graph = small_graph.to_networkx()
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.number_of_edges() == 4
        back = DiGraph.from_networkx(nx_graph)
        assert back == small_graph

    def test_from_networkx_with_string_labels(self):
        import networkx as nx

        nx_graph = nx.DiGraph()
        nx_graph.add_edge("b", "a")
        nx_graph.add_edge("a", "c")
        graph = DiGraph.from_networkx(nx_graph)
        assert graph.n_nodes == 3
        assert graph.n_edges == 2

    def test_from_edge_list_infers_node_count(self):
        graph = DiGraph.from_edge_list([(0, 5), (2, 3)])
        assert graph.n_nodes == 6
        assert graph.n_edges == 2


class TestSizeAccounting:
    def test_memory_bytes_positive(self, small_graph):
        assert small_graph.memory_bytes() > 0

    def test_edge_list_bytes_scales_with_edges(self):
        small = DiGraph(10, [(0, 1)])
        larger = DiGraph(10, [(i, (i + 1) % 10) for i in range(10)])
        assert larger.edge_list_bytes() > small.edge_list_bytes()

    def test_edge_list_bytes_empty(self):
        assert DiGraph(5, []).edge_list_bytes() == 0
