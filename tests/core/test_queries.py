"""Correctness tests for MCSP / MCSS / MCAP queries.

The reference is Jeh-Widom SimRank computed by networkx on a small graph
(the ``ground_truth_simrank`` fixture).  The exact-mode pipeline must agree
with it almost perfectly; the Monte-Carlo queries must agree within noise.
"""

import numpy as np
import pytest

from repro.config import SimRankParams
from repro.core.diagonal import build_diagonal_index
from repro.core.exact import linearized_simrank_matrix, ranking_overlap, simrank_accuracy
from repro.core.queries import QueryEngine
from repro.errors import NodeNotFoundError
from repro.graph import generators


@pytest.fixture(scope="module")
def exact_params():
    # Long walks + exact solves so truncation error is negligible.
    return SimRankParams(c=0.6, walk_steps=12, jacobi_iterations=3,
                         index_walkers=100, query_walkers=1500, seed=13)


@pytest.fixture(scope="module")
def exact_engine(small_graph, exact_params):
    index = build_diagonal_index(small_graph, exact_params, exact=True, solver="exact")
    return QueryEngine(small_graph, index, exact_params)


@pytest.fixture(scope="module")
def mc_engine(small_graph, exact_params):
    index = build_diagonal_index(small_graph, exact_params.with_(index_walkers=2000))
    return QueryEngine(small_graph, index, exact_params)


class TestExactQueriesMatchGroundTruth:
    def test_exact_single_pair(self, exact_engine, ground_truth_simrank):
        rng = np.random.default_rng(0)
        n = ground_truth_simrank.shape[0]
        for _ in range(30):
            i, j = rng.integers(0, n, size=2)
            value = exact_engine.exact_single_pair(int(i), int(j))
            assert value == pytest.approx(ground_truth_simrank[i, j], abs=1e-4)

    def test_exact_single_source(self, exact_engine, ground_truth_simrank):
        for source in (0, 7, 23):
            scores = exact_engine.exact_single_source(source)
            assert np.abs(scores - ground_truth_simrank[source]).max() < 1e-4

    def test_self_similarity_is_one(self, exact_engine):
        assert exact_engine.exact_single_pair(5, 5) == 1.0
        assert exact_engine.single_pair(5, 5) == 1.0
        assert exact_engine.exact_single_source(5)[5] == 1.0


class TestMonteCarloQueries:
    def test_single_pair_close_to_ground_truth(self, mc_engine, ground_truth_simrank):
        rng = np.random.default_rng(1)
        n = ground_truth_simrank.shape[0]
        errors = []
        for _ in range(25):
            i, j = rng.integers(0, n, size=2)
            errors.append(
                abs(mc_engine.single_pair(int(i), int(j)) - ground_truth_simrank[i, j])
            )
        assert np.mean(errors) < 0.02
        assert np.max(errors) < 0.08

    def test_single_source_close_to_ground_truth(self, mc_engine, ground_truth_simrank):
        for source in (3, 11):
            scores = mc_engine.single_source(source)
            assert np.abs(scores - ground_truth_simrank[source]).mean() < 0.02

    def test_scores_in_unit_interval(self, mc_engine):
        scores = mc_engine.single_source(9)
        assert (scores >= 0).all()
        assert (scores <= 1).all()

    def test_single_pair_symmetricish(self, mc_engine):
        # Monte-Carlo estimates of s(i,j) and s(j,i) target the same value.
        forward = mc_engine.single_pair(4, 17, walkers=4000)
        backward = mc_engine.single_pair(17, 4, walkers=4000)
        assert forward == pytest.approx(backward, abs=0.05)

    def test_more_walkers_reduce_error(self, mc_engine, exact_engine, ground_truth_simrank):
        rng = np.random.default_rng(5)
        n = ground_truth_simrank.shape[0]
        pairs = [tuple(rng.integers(0, n, size=2)) for _ in range(15)]

        def mean_error(walkers):
            return np.mean([
                abs(mc_engine.single_pair(int(i), int(j), walkers=walkers)
                    - ground_truth_simrank[i, j])
                for i, j in pairs
            ])

        assert mean_error(4000) <= mean_error(30) + 1e-9

    def test_invalid_node_raises(self, mc_engine):
        with pytest.raises(NodeNotFoundError):
            mc_engine.single_pair(0, 10_000)
        with pytest.raises(NodeNotFoundError):
            mc_engine.single_source(-1)


class TestTopKAndAllPairs:
    def test_top_k_ordering_and_size(self, mc_engine):
        ranking = mc_engine.top_k(5, k=10)
        assert len(ranking) <= 10
        scores = [score for _node, score in ranking]
        assert scores == sorted(scores, reverse=True)
        assert all(node != 5 for node, _score in ranking)

    def test_top_k_include_self(self, mc_engine):
        ranking = mc_engine.top_k(5, k=3, include_self=True)
        assert ranking[0][0] == 5
        assert ranking[0][1] == pytest.approx(1.0)

    def test_top_k_larger_than_graph(self, mc_engine, small_graph):
        ranking = mc_engine.top_k(0, k=10_000)
        assert len(ranking) <= small_graph.n_nodes

    def test_all_pairs_subset_rows(self, mc_engine, small_graph):
        matrix = mc_engine.all_pairs(nodes=[0, 4], walkers=200)
        assert matrix.shape == (small_graph.n_nodes, small_graph.n_nodes)
        assert matrix[0].sum() > 0
        assert matrix[1].sum() == 0  # row not requested


class TestExactHelpers:
    def test_linearized_matrix_matches_ground_truth(self, small_graph, exact_params,
                                                    ground_truth_simrank):
        from repro.core.diagonal import exact_diagonal

        diagonal = exact_diagonal(small_graph, exact_params)
        matrix = linearized_simrank_matrix(small_graph, diagonal, exact_params)
        assert np.abs(matrix - ground_truth_simrank).max() < 1e-3

    def test_linearized_matrix_wrong_diagonal_length(self, small_graph, exact_params):
        with pytest.raises(ValueError):
            linearized_simrank_matrix(small_graph, np.ones(3), exact_params)

    def test_simrank_accuracy_metrics(self):
        reference = np.array([[1.0, 0.5], [0.5, 1.0]])
        estimate = np.array([[1.0, 0.4], [0.6, 1.0]])
        metrics = simrank_accuracy(reference, estimate)
        assert metrics["mean_abs_error"] == pytest.approx(0.1)
        assert metrics["max_abs_error"] == pytest.approx(0.1)
        with pytest.raises(ValueError):
            simrank_accuracy(reference, np.ones((3, 3)))

    def test_ranking_overlap_bounds(self):
        matrix = np.random.default_rng(3).random((10, 10))
        assert ranking_overlap(matrix, matrix, k=3) == pytest.approx(1.0)
        other = np.random.default_rng(4).random((10, 10))
        assert 0.0 <= ranking_overlap(matrix, other, k=3) <= 1.0
        with pytest.raises(ValueError):
            ranking_overlap(matrix, np.ones((3, 3)))

    def test_ranking_overlap_trivial_matrix(self):
        assert ranking_overlap(np.ones((1, 1)), np.ones((1, 1))) == 1.0


class TestPropagateSourceSequence:
    """The batch form of ``propagate_source`` against the one-node oracle."""

    def test_sequence_equals_one_node_calls_bitwise(self, mc_engine,
                                                    small_graph):
        from repro.core import montecarlo

        # Many sources in one call, one of them twice.
        nodes = list(range(19)) + [1]
        distributions = montecarlo.estimate_walk_distributions_batch(
            small_graph, nodes, mc_engine.params)
        scored = mc_engine.propagate_source(
            nodes, [distributions[node] for node in nodes])
        assert len(scored) == len(nodes)
        for node, scores in zip(nodes, scored):
            expected = mc_engine.propagate_source(node, distributions[node])
            assert scores.source == node
            assert scores.dense().shape == (small_graph.n_nodes,)
            assert scores.dense().tobytes() == expected.dense().tobytes()
            assert scores.nodes.tobytes() == expected.nodes.tobytes()

    def test_empty_sequence(self, mc_engine):
        assert mc_engine.propagate_source([], []) == []


def _scores_of(dense, source):
    """The support record of a dense score vector (source forced to 1.0)."""
    from repro.core.queries import SourceScores

    dense = dense.copy()
    dense[source] = 1.0
    support = np.flatnonzero(dense)
    return SourceScores(source, len(dense), support, dense[support]), dense


class TestSourceScoresTopK:
    """Ranking over the support must equal the dense ``rank_top_k`` exactly."""

    def test_sparse_rank_equals_dense_rank_on_random_scores(self):
        from repro.core.queries import rank_top_k

        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            dense = rng.random(n).round(1)       # zeros and ties included
            dense[rng.random(n) < 0.5] = 0.0
            source = int(rng.integers(0, n))
            scores, dense = _scores_of(dense, source)
            for k in (1, 2, 5, n - 1, n, n + 3):
                for include_self in (False, True):
                    assert scores.top_k(k, include_self=include_self) == \
                        rank_top_k(dense, source, k, include_self=include_self)

    def test_ties_order_by_node_id(self):
        scores, dense = _scores_of(np.array([0.0, 0.25, 0.5, 0.25, 0.25]), 0)
        assert scores.top_k(3) == [(2, 0.5), (1, 0.25), (3, 0.25)]
        assert scores.top_k(3, include_self=True) == [
            (0, 1.0), (2, 0.5), (1, 0.25)]

    def test_k_past_the_support_pads_lowest_zero_ids(self):
        from repro.core.queries import rank_top_k

        dense = np.zeros(8)
        dense[[3, 6]] = [0.5, 0.25]
        scores, dense = _scores_of(dense, 4)
        ranked = scores.top_k(6)
        assert ranked == [(3, 0.5), (6, 0.25), (0, 0.0), (1, 0.0), (2, 0.0),
                          (5, 0.0)]
        assert ranked == rank_top_k(dense, 4, 6)
        assert len(scores.top_k(100)) == 7       # never the source itself
        assert len(scores.top_k(100, include_self=True)) == 8

    def test_include_self_and_empty_support(self):
        from repro.core.queries import rank_top_k

        # A source no walk leaves: its only positive score is its own 1.0.
        scores, dense = _scores_of(np.zeros(4), 2)
        assert scores.top_k(2) == [(0, 0.0), (1, 0.0)]
        assert scores.top_k(2, include_self=True) == [(2, 1.0), (0, 0.0)]
        assert scores.top_k(9) == rank_top_k(dense, 2, 9)
        alone, _ = _scores_of(np.zeros(1), 0)
        assert alone.top_k(5) == []
        assert alone.top_k(5, include_self=True) == [(0, 1.0)]
