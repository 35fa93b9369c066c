"""Tests for the accuracy and ranking analysis modules."""

import numpy as np
import pytest

from repro.analysis import accuracy, ranking
from repro.config import SimRankParams
from repro.core.diagonal import build_diagonal_index
from repro.core.queries import QueryEngine
from repro.graph import generators


@pytest.fixture(scope="module")
def graph():
    return generators.copying_model_graph(50, out_degree=4, seed=23)


@pytest.fixture(scope="module")
def params():
    return SimRankParams(c=0.6, walk_steps=6, jacobi_iterations=4,
                         index_walkers=200, query_walkers=500, seed=2)


class TestAccuracy:
    def test_sample_pairs_bounds_and_determinism(self, graph):
        pairs = accuracy.sample_pairs(graph, 25, seed=1)
        assert len(pairs) == 25
        assert pairs == accuracy.sample_pairs(graph, 25, seed=1)
        assert all(i != j for i, j in pairs)
        assert all(0 <= i < graph.n_nodes and 0 <= j < graph.n_nodes for i, j in pairs)

    def test_sample_pairs_tiny_graph(self):
        tiny = generators.cycle_graph(2)
        assert accuracy.sample_pairs(tiny, 5) != []
        single = generators.star_graph(1).subgraph([0])
        assert accuracy.sample_pairs(single, 5) == []

    def test_ground_truth_and_linearized_agree(self, graph, params):
        truth = accuracy.ground_truth_matrix(graph, c=params.c)
        linearized = accuracy.exact_linearized_matrix(graph, params.with_(walk_steps=12))
        off_diagonal = ~np.eye(graph.n_nodes, dtype=bool)
        assert np.abs(linearized - truth)[off_diagonal].mean() < 1e-3

    def test_evaluate_pairs_report(self, graph, params):
        truth = accuracy.ground_truth_matrix(graph, c=params.c)
        index = build_diagonal_index(graph, params.with_(walk_steps=10))
        engine = QueryEngine(graph, index, params.with_(walk_steps=10))
        pairs = accuracy.sample_pairs(graph, 15, seed=4)
        report = accuracy.evaluate_pairs(engine.single_pair, truth, pairs, "mcsp")
        assert report.estimator == "mcsp"
        assert report.n_pairs == 15
        assert report.mean_abs_error < 0.05
        assert report.max_abs_error >= report.mean_abs_error
        assert set(report.to_dict()) >= {"rmse", "mean_signed_error"}

    def test_evaluate_pairs_empty(self):
        report = accuracy.evaluate_pairs(lambda i, j: 0.0, np.zeros((3, 3)), [], "none")
        assert report.n_pairs == 0
        assert np.isnan(report.mean_abs_error)


class TestRanking:
    def test_top_k_indices_ordering(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert ranking.top_k_indices(scores, 2).tolist() == [1, 3]
        assert ranking.top_k_indices(scores, 2, exclude=1).tolist() == [3, 2]
        assert ranking.top_k_indices(scores, 0).tolist() == []
        assert len(ranking.top_k_indices(scores, 10)) == 4

    def test_precision_at_k(self):
        scores = np.array([0.9, 0.8, 0.1, 0.7])
        assert ranking.precision_at_k(scores, relevant=[0, 1], k=2) == 1.0
        assert ranking.precision_at_k(scores, relevant=[2], k=2) == 0.0
        assert ranking.precision_at_k(scores, relevant=[0], k=0) == 0.0

    def test_average_precision_perfect_and_worst(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        assert ranking.average_precision(scores, relevant=[0, 1]) == pytest.approx(1.0)
        assert ranking.average_precision(scores, relevant=[]) == 0.0
        worst = ranking.average_precision(scores, relevant=[3])
        assert worst == pytest.approx(0.25)
