"""Tests for the naive SimRank and co-citation baselines."""

import networkx as nx
import numpy as np
import pytest

from repro.baselines.cocitation import cocitation_counts, cocitation_matrix, cocitation_similarity
from repro.baselines.naive_simrank import (
    naive_simrank,
    naive_simrank_pair,
)
from repro.errors import ConfigurationError
from repro.graph import generators
from repro.graph.digraph import DiGraph


@pytest.fixture(scope="module")
def graph():
    return generators.copying_model_graph(50, out_degree=4, seed=2)


class TestNaiveSimRank:
    def test_matches_networkx(self, graph):
        ours = naive_simrank(graph, c=0.6, iterations=100, tolerance=1e-10)
        reference = nx.simrank_similarity(
            graph.to_networkx(), importance_factor=0.6, max_iterations=100,
            tolerance=1e-10,
        )
        theirs = np.array(
            [[reference[i][j] for j in range(graph.n_nodes)] for i in range(graph.n_nodes)]
        )
        assert np.abs(ours - theirs).max() < 1e-6

    def test_diagonal_is_one(self, graph):
        matrix = naive_simrank(graph, iterations=5)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_values_in_unit_interval(self, graph):
        matrix = naive_simrank(graph, iterations=10)
        assert (matrix >= 0).all() and (matrix <= 1.0 + 1e-12).all()

    def test_star_graph_closed_form(self):
        # Leaves of a star share their single in-neighbour, so s = c.
        star = generators.star_graph(4)
        matrix = naive_simrank(star, c=0.6, iterations=30)
        assert matrix[1, 2] == pytest.approx(0.6, abs=1e-9)
        # The hub has no in-links so its similarity to anything else is 0.
        assert matrix[0, 1] == pytest.approx(0.0)

    def test_zero_iterations_is_identity(self, graph):
        assert np.array_equal(naive_simrank(graph, iterations=0), np.eye(graph.n_nodes))

    def test_empty_graph(self):
        assert naive_simrank(DiGraph(0, [])).shape == (0, 0)

    def test_single_pair_helper(self, graph):
        matrix = naive_simrank(graph, iterations=20)
        assert naive_simrank_pair(graph, 3, 7, iterations=20) == pytest.approx(matrix[3, 7])

    def test_invalid_parameters(self, graph):
        with pytest.raises(ConfigurationError):
            naive_simrank(graph, c=1.5)
        with pytest.raises(ConfigurationError):
            naive_simrank(graph, iterations=-1)

    def test_early_stopping(self, graph):
        # With a loose tolerance the result is close to the converged one.
        loose = naive_simrank(graph, iterations=100, tolerance=1e-3)
        tight = naive_simrank(graph, iterations=100, tolerance=1e-12)
        assert np.abs(loose - tight).max() < 0.01


class TestCocitation:
    def test_counts_match_definition(self, graph):
        counts = cocitation_counts(graph).toarray()
        for i in (0, 5, 17):
            for j in (3, 8):
                expected = len(
                    set(graph.in_neighbors(i).tolist())
                    & set(graph.in_neighbors(j).tolist())
                )
                assert counts[i, j] == expected

    def test_matrix_symmetric(self, graph):
        matrix = cocitation_matrix(graph)
        assert np.allclose(matrix, matrix.T)

    def test_normalised_values_in_unit_interval(self, graph):
        matrix = cocitation_matrix(graph)
        assert (matrix >= 0).all() and (matrix <= 1.0 + 1e-12).all()

    def test_diagonal_rules(self):
        graph = DiGraph(3, [(0, 1), (1, 2)])
        matrix = cocitation_matrix(graph)
        assert matrix[1, 1] == 1.0   # has in-links
        assert matrix[0, 0] == 0.0   # no in-links

    def test_unnormalised_matches_counts(self, graph):
        assert np.array_equal(
            cocitation_matrix(graph, normalize=False),
            cocitation_counts(graph).toarray().astype(float),
        )

    def test_pairwise_helper_consistent_with_matrix(self, graph):
        matrix = cocitation_matrix(graph)
        assert cocitation_similarity(graph, 2, 9) == pytest.approx(matrix[2, 9])
        assert cocitation_similarity(graph, 4, 4) == matrix[4, 4]

    def test_pair_with_no_in_links(self):
        graph = DiGraph(3, [(0, 1), (0, 2)])
        assert cocitation_similarity(graph, 0, 1) == 0.0
        assert cocitation_similarity(graph, 1, 2) == 1.0

    def test_simrank_beats_cocitation_on_indirect_similarity(self):
        # Two nodes cited by *different but similar* citers: co-citation says
        # 0, SimRank says > 0 — the paper's motivating example.
        #   0 -> 2, 1 -> 3, and 4 -> 0, 4 -> 1 (the citers share a citer).
        graph = DiGraph(5, [(0, 2), (1, 3), (4, 0), (4, 1)])
        assert cocitation_similarity(graph, 2, 3) == 0.0
        simrank = naive_simrank(graph, c=0.6, iterations=30)
        assert simrank[2, 3] > 0.0
