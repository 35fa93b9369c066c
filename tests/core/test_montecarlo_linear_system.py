"""Unit tests for Monte-Carlo estimators and linear-system assembly."""

import numpy as np
import pytest

from repro.config import SimRankParams
from repro.core import linear_system, montecarlo, walks
from repro.graph import generators


@pytest.fixture(scope="module")
def graph():
    return generators.copying_model_graph(70, out_degree=4, copy_prob=0.5, seed=4)


@pytest.fixture(scope="module")
def params():
    return SimRankParams(c=0.6, walk_steps=5, jacobi_iterations=3,
                         index_walkers=200, query_walkers=800, seed=3)


class TestWalkDistributions:
    def test_estimate_shape_and_normalisation(self, graph, params):
        dist = montecarlo.estimate_walk_distributions(graph, 3, params)
        assert dist.source == 3
        assert len(dist.per_step) == params.walk_steps + 1
        assert dist.survival(0) == pytest.approx(1.0)
        for step in range(params.walk_steps + 1):
            assert dist.survival(step) <= 1.0 + 1e-12

    def test_exact_matches_transition_power(self, graph, params):
        dist = montecarlo.exact_walk_distributions(graph, 3, params)
        transition = graph.transition_matrix()
        expected = np.zeros(graph.n_nodes)
        expected[3] = 1.0
        for step in range(params.walk_steps + 1):
            assert np.allclose(dist.dense(graph.n_nodes, step), expected, atol=1e-12)
            expected = transition @ expected

    def test_dense_conversion(self, graph, params):
        dist = montecarlo.estimate_walk_distributions(graph, 0, params, walkers=50)
        dense = dist.dense(graph.n_nodes, 0)
        assert dense[0] == pytest.approx(1.0)
        assert dense.sum() == pytest.approx(1.0)

    def test_distribution_error_decreases_with_walkers(self, graph, params):
        exact = montecarlo.exact_walk_distributions(graph, 2, params)
        few = montecarlo.estimate_walk_distributions(graph, 2, params, walkers=20)
        many = montecarlo.estimate_walk_distributions(graph, 2, params, walkers=5000)
        error_few = montecarlo.distribution_error(few, exact, graph.n_nodes)
        error_many = montecarlo.distribution_error(many, exact, graph.n_nodes)
        assert error_many < error_few

    def test_distribution_error_mismatched_steps_raises(self, graph, params):
        a = montecarlo.estimate_walk_distributions(graph, 2, params, walkers=10)
        b = montecarlo.estimate_walk_distributions(
            graph, 2, params.with_(walk_steps=3), walkers=10
        )
        with pytest.raises(ValueError):
            montecarlo.distribution_error(a, b, graph.n_nodes)

    def test_batch_entries_own_their_arrays(self, graph, params):
        """A cached entry must not pin the batch it was simulated in: one
        base per entry and array kind, shared by that entry's steps only."""
        batch = montecarlo.estimate_walk_distributions_batch(
            graph, [5, 9, 9, 30, 2], params)
        assert sorted(batch) == [2, 5, 9, 30]
        bases = {}
        for source, entry in batch.items():
            direct = montecarlo.estimate_walk_distributions(graph, source, params)
            assert entry.source == source and entry.walkers == direct.walkers
            for (nodes, values), (want_nodes, want_values) in zip(
                    entry.per_step, direct.per_step, strict=True):
                assert nodes.tobytes() == want_nodes.tobytes()
                assert values.tobytes() == want_values.tobytes()
                assert (nodes.dtype, values.dtype) == (np.int64, np.float64)
                for array in (nodes, values):
                    assert array.base is not None and array.base.base is None
                    assert array.base.flags.owndata
                    bases.setdefault(id(array.base), set()).add(source)
            resident = {id(a.base): a.base.nbytes
                        for pair in entry.per_step for a in pair}
            assert sum(resident.values()) == sum(
                a.nbytes for pair in entry.per_step for a in pair)
        assert all(len(owners) == 1 for owners in bases.values())
        assert len(bases) == 2 * len(batch)

    def test_reproducible_with_same_seed(self, graph, params):
        first = montecarlo.estimate_walk_distributions(graph, 4, params, walkers=100)
        second = montecarlo.estimate_walk_distributions(graph, 4, params, walkers=100)
        for step in range(params.walk_steps + 1):
            assert np.array_equal(first.per_step[step][0], second.per_step[step][0])
            assert np.allclose(first.per_step[step][1], second.per_step[step][1])


class TestSparseDot:
    def test_disjoint_supports(self):
        left = (np.array([0, 1]), np.array([0.5, 0.5]))
        right = (np.array([2, 3]), np.array([0.5, 0.5]))
        assert montecarlo.sparse_dot(left, right) == 0.0

    def test_overlapping_supports_with_weights(self):
        left = (np.array([1, 2, 5]), np.array([0.2, 0.3, 0.5]))
        right = (np.array([2, 5, 7]), np.array([0.4, 0.6, 1.0]))
        weights = np.ones(10)
        expected = 0.3 * 0.4 + 0.5 * 0.6
        assert montecarlo.sparse_dot(left, right, weights) == pytest.approx(expected)

    def test_empty_vector(self):
        empty = (np.array([], dtype=np.int64), np.array([]))
        other = (np.array([1]), np.array([1.0]))
        assert montecarlo.sparse_dot(empty, other) == 0.0


class TestSelfMeetingColumn:
    def test_star_graph_column(self):
        # Leaves of a star: P e_leaf = e_hub, P^2 e_leaf = 0.
        graph = generators.star_graph(3)
        params = SimRankParams(c=0.5, walk_steps=3, seed=1)
        dist = montecarlo.exact_walk_distributions(graph, 1, params)
        column = montecarlo.self_meeting_column(dist, decay=0.5)
        assert column[1] == pytest.approx(1.0)   # t=0 at the leaf itself
        assert column[0] == pytest.approx(0.5)   # t=1 at the hub, weight c
        assert len(column) == 2


class TestLinearSystem:
    def test_discount_factors(self):
        factors = linear_system.discount_factors(0.5, 3)
        assert factors.tolist() == [1.0, 0.5, 0.25, 0.125]

    def test_diagonal_entries_are_at_least_one(self, graph, params):
        system = linear_system.build_system(graph, params)
        assert (system.diagonal() >= 1.0 - 1e-9).all()

    def test_exact_system_diagonal_at_least_one(self, graph, params):
        system = linear_system.build_exact_system(graph, params)
        assert (system.diagonal() >= 1.0 - 1e-9).all()

    def test_monte_carlo_approaches_exact_system(self, graph, params):
        exact = linear_system.build_exact_system(graph, params).toarray()
        estimated = linear_system.build_system(
            graph, params, walkers=5000
        ).toarray()
        assert np.abs(exact - estimated).max() < 0.05

    def test_build_rows_subset(self, graph, params):
        rows, cols, values = linear_system.build_rows(graph, [2, 9], params)
        assert set(rows.tolist()) <= {2, 9}
        assert (values > 0).all()
        assert len(rows) == len(cols) == len(values)

    def test_build_rows_empty_sources(self, graph, params):
        rows, cols, values = linear_system.build_rows(graph, [], params)
        assert len(rows) == 0 and len(cols) == 0 and len(values) == 0

    def test_build_system_row_subset_leaves_other_rows_empty(self, graph, params):
        system = linear_system.build_system(graph, params, sources=[0, 1])
        row_sums = np.asarray(system.sum(axis=1)).ravel()
        assert row_sums[0] > 0 and row_sums[1] > 0
        assert np.allclose(row_sums[2:], 0.0)

    def test_streamed_rows_do_not_depend_on_the_block_size(self, graph, params):
        from unittest import mock

        sources = [69, 3, 3, 17] + list(range(40))
        reference = linear_system.build_rows_streamed(graph, sources, params)
        assert reference[0].tolist() == sorted(reference[0].tolist())
        assert set(reference[0].tolist()) == set(sources)
        draws_per_source = params.index_walkers * params.walk_steps
        for block in (1, 7, 256, len(sources) + 5):
            with mock.patch.object(walks, "_BLOCK_DRAWS", block * draws_per_source):
                blocked = linear_system.build_rows_streamed(graph, sources, params)
            for left, right in zip(reference, blocked):
                assert left.dtype == right.dtype
                assert left.tobytes() == right.tobytes()

    def test_streamed_rows_pinned(self, graph, params):
        """Triplets of the per-(source, step) loop this kernel replaced
        (SHA-256 of each array, generated at the commit before the packed
        kernel): same entries, same per-cell summation order."""
        import hashlib

        triplets = linear_system.build_rows_streamed(graph, range(70), params)
        assert [str(array.dtype) for array in triplets] == [
            "int64", "int64", "float64"]
        assert [hashlib.sha256(array.tobytes()).hexdigest() for array in triplets] == [
            "fa799d2a27bde4306d323de4ea4b14504deeb74e8b4daec6c18918340a3c85b1",
            "6da6ec1bc173c0ba1fd9876fc78a37c56a78d21617c4ff7fbec06e5fdf995a79",
            "5aa2183d355f68dcc15c47853f953481c60cbf08200a7485fcbd1deb79184e9f",
        ]

    def test_streamed_rows_empty_sources(self, graph, params):
        rows, cols, values = linear_system.build_rows_streamed(graph, [], params)
        assert len(rows) == len(cols) == len(values) == 0
        assert (rows.dtype, cols.dtype, values.dtype) == (np.int64, np.int64, np.float64)

    def test_zero_in_degree_node_row_is_identity(self, params):
        from repro.graph.digraph import DiGraph

        graph = DiGraph(3, [(0, 1), (1, 2)])  # node 0 has no in-links
        system = linear_system.build_exact_system(graph, params).toarray()
        assert system[0, 0] == pytest.approx(1.0)
        assert np.allclose(system[0, 1:], 0.0)

    def test_system_diagnostics(self, graph, params):
        system = linear_system.build_system(graph, params)
        info = linear_system.system_diagnostics(system)
        assert info["n_rows"] == graph.n_nodes
        assert info["nnz"] == system.nnz
        assert info["min_diagonal"] >= 1.0 - 1e-9
        assert 0.0 <= info["rows_diagonally_dominant_fraction"] <= 1.0


class TestVectorisedKernelsBitwise:
    """The vectorised serving kernels must be bitwise-equal to their
    historical per-entry reference implementations (same summation
    association, same element order) — not merely approximately equal."""

    @staticmethod
    def _reference_self_meeting_column(distributions, decay):
        """The historical dict-accumulation loop, kept as ground truth."""
        column = {}
        factor = 1.0
        for step in range(distributions.steps + 1):
            nodes, values = distributions.per_step[step]
            contributions = factor * values * values
            for node, contribution in zip(nodes.tolist(), contributions.tolist()):
                column[node] = column.get(node, 0.0) + contribution
            factor *= decay
        return column

    @staticmethod
    def _reference_combine_pair(dist_i, dist_j, weights, decay, steps):
        """The historical per-step intersect1d loop, kept as ground truth."""
        total = 0.0
        factor = 1.0
        for step in range(steps + 1):
            left_nodes, left_values = dist_i.per_step[step]
            right_nodes, right_values = dist_j.per_step[step]
            dot = 0.0
            if len(left_nodes) and len(right_nodes):
                common, left_idx, right_idx = np.intersect1d(
                    left_nodes, right_nodes, assume_unique=True,
                    return_indices=True,
                )
                if len(common):
                    products = left_values[left_idx] * right_values[right_idx]
                    products = products * weights[common]
                    dot = float(products.sum())
            total += factor * dot
            factor *= decay
        return float(total)

    def test_self_meeting_column_bitwise_equal(self, graph, params):
        for source in (0, 7, 23, 41):
            dist = montecarlo.estimate_walk_distributions(
                graph, source, params, walkers=150)
            fast = montecarlo.self_meeting_column(dist, decay=params.c)
            reference = self._reference_self_meeting_column(dist, decay=params.c)
            assert fast.keys() == reference.keys()
            for node, value in reference.items():
                assert fast[node] == value, f"node {node} diverged bitwise"

    def test_self_meeting_column_empty_distributions(self):
        dist = montecarlo.WalkDistributions(
            source=0, steps=2, walkers=10,
            per_step=[(np.empty(0, dtype=np.int64), np.empty(0))] * 3,
        )
        assert montecarlo.self_meeting_column(dist, decay=0.6) == {}

    def test_combine_pair_distributions_bitwise_equal(self, graph, params):
        weights = np.linspace(0.4, 1.0, graph.n_nodes)
        pairs = [(0, 1), (3, 17), (23, 24), (5, 5)]
        for node_i, node_j in pairs:
            dist_i = montecarlo.estimate_walk_distributions(
                graph, node_i, params, walkers=200)
            dist_j = montecarlo.estimate_walk_distributions(
                graph, node_j, params, walkers=200)
            fast = montecarlo.combine_pair_distributions(
                dist_i, dist_j, weights, params.c, params.walk_steps)
            reference = self._reference_combine_pair(
                dist_i, dist_j, weights, params.c, params.walk_steps)
            assert fast == reference, f"pair ({node_i}, {node_j}) diverged"

    def test_combine_pair_distributions_disjoint_and_dead(self):
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        dist_a = montecarlo.WalkDistributions(
            source=0, steps=1, walkers=1,
            per_step=[(np.array([0]), np.array([1.0])), empty],
        )
        dist_b = montecarlo.WalkDistributions(
            source=1, steps=1, walkers=1,
            per_step=[(np.array([1]), np.array([1.0])), empty],
        )
        weights = np.ones(4)
        assert montecarlo.combine_pair_distributions(
            dist_a, dist_b, weights, 0.6, 1) == 0.0

    def test_sparse_dot_matches_intersect1d_reference(self):
        rng = np.random.default_rng(7)
        weights = rng.random(50)
        for _ in range(20):
            left_nodes = np.unique(rng.integers(0, 50, size=rng.integers(0, 12)))
            right_nodes = np.unique(rng.integers(0, 50, size=rng.integers(0, 12)))
            left = (left_nodes, rng.random(len(left_nodes)))
            right = (right_nodes, rng.random(len(right_nodes)))
            expected = 0.0
            if len(left_nodes) and len(right_nodes):
                common, li, ri = np.intersect1d(
                    left_nodes, right_nodes, assume_unique=True,
                    return_indices=True)
                if len(common):
                    expected = float(
                        (left[1][li] * right[1][ri] * weights[common]).sum())
            assert montecarlo.sparse_dot(left, right, weights) == expected
