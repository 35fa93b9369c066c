"""Unit tests for Monte-Carlo estimators and linear-system assembly."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert len(dist.offsets) == params.walk_steps + 2 and dist.offsets[0] == 0
        assert dist.at(0)[1].sum() == pytest.approx(1.0)
        for step in range(params.walk_steps + 1):
            assert dist.at(step)[1].sum() <= 1.0 + 1e-12

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
        def l1_error(estimated):
            return sum(np.abs(estimated.dense(graph.n_nodes, step)
                              - exact.dense(graph.n_nodes, step)).sum()
                       for step in range(params.walk_steps + 1))

        assert l1_error(many) < l1_error(few)

    def test_batch_entries_own_their_arrays(self, graph, params):
        """A cached entry must not pin the batch it was simulated in: each
        of its three arrays owns exactly its own bytes, shared with no
        other entry, and every step matches the single-source oracle."""
        batch = montecarlo.estimate_walk_distributions_batch(
            graph, [5, 9, 9, 30, 2], params)
        assert sorted(batch) == [2, 5, 9, 30]
        bases = {}
        for source, entry in batch.items():
            direct = montecarlo.estimate_walk_distributions(graph, source, params)
            assert entry.source == source and entry.walkers == direct.walkers
            assert entry.offsets.tobytes() == direct.offsets.tobytes()
            for step in range(params.walk_steps + 1):
                for ours, theirs in zip(entry.at(step), direct.at(step)):
                    assert ours.tobytes() == theirs.tobytes()
            arrays = (entry.offsets, entry.nodes, entry.values)
            assert [a.dtype for a in arrays] == [np.int64, np.int64, np.float64]
            for array in arrays:
                base = array if array.base is None else array.base
                assert base.flags.owndata and base.nbytes == array.nbytes
                bases.setdefault(id(base), set()).add(source)
        assert all(len(owners) == 1 for owners in bases.values())
        assert len(bases) == 3 * len(batch)

    def test_steps_are_views_that_tile_the_record(self, graph, params):
        dist = montecarlo.estimate_walk_distributions_batch(
            graph, [11], params)[11]
        assert np.all(np.diff(dist.offsets) >= 0)
        assert dist.offsets[-1] == len(dist.nodes) == len(dist.values)
        for step in range(params.walk_steps + 1):
            nodes, values = dist.at(step)
            assert np.shares_memory(nodes, dist.nodes)
            assert np.shares_memory(values, dist.values)
            assert np.all(np.diff(nodes) > 0)
        assert sum(len(dist.at(step)[0])
                   for step in range(params.walk_steps + 1)) == len(dist.nodes)

    def test_record_round_trips_through_pickle(self, graph, params):
        """Pool workers return records pickled; the copy must be exact."""
        entry = montecarlo.estimate_walk_distributions_batch(
            graph, [6], params)[6]
        copy = pickle.loads(pickle.dumps(entry))
        assert (copy.source, copy.steps, copy.walkers) == (
            entry.source, entry.steps, entry.walkers)
        for name in ("offsets", "nodes", "values"):
            ours, theirs = getattr(copy, name), getattr(entry, name)
            assert (ours.dtype, ours.tobytes()) == (theirs.dtype, theirs.tobytes())

    def test_dead_walks_leave_later_steps_empty(self, params):
        from repro.graph.digraph import DiGraph

        graph = DiGraph(3, [(0, 1), (1, 2)])  # node 0 has no in-links
        batch = montecarlo.estimate_walk_distributions_batch(graph, [0], params)
        for dist in (batch[0],
                     montecarlo.estimate_walk_distributions(graph, 0, params),
                     montecarlo.exact_walk_distributions(graph, 0, params)):
            assert dist.offsets.tolist() == [0] + [1] * (params.walk_steps + 1)
            assert dist.nodes.tolist() == [0] and dist.values.tolist() == [1.0]
            assert dist.at(params.walk_steps)[1].sum() == 0.0

    def test_batch_of_no_sources_is_empty(self, graph, params):
        assert montecarlo.estimate_walk_distributions_batch(
            graph, [], params) == {}

    def test_reproducible_with_same_seed(self, graph, params):
        first = montecarlo.estimate_walk_distributions(graph, 4, params, walkers=100)
        second = montecarlo.estimate_walk_distributions(graph, 4, params, walkers=100)
        for step in range(params.walk_steps + 1):
            assert np.array_equal(first.at(step)[0], second.at(step)[0])
            assert np.allclose(first.at(step)[1], second.at(step)[1])


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
        reference = linear_system.build_rows(graph, sources, params)
        assert reference[0].tolist() == sorted(reference[0].tolist())
        assert set(reference[0].tolist()) == set(sources)
        draws_per_source = params.index_walkers * params.walk_steps
        for block in (1, 7, 256, len(sources) + 5):
            with mock.patch.object(walks, "_BLOCK_DRAWS", block * draws_per_source):
                blocked = linear_system.build_rows(graph, sources, params)
            for left, right in zip(reference, blocked):
                assert left.dtype == right.dtype
                assert left.tobytes() == right.tobytes()

    def test_streamed_rows_pinned(self, graph, params):
        """Triplets of the per-(source, step) loop this kernel replaced
        (SHA-256 of each array, generated at the commit before the packed
        kernel): same entries, same per-cell summation order."""
        import hashlib

        triplets = linear_system.build_rows(graph, range(70), params)
        assert [str(array.dtype) for array in triplets] == [
            "int64", "int64", "float64"]
        assert [hashlib.sha256(array.tobytes()).hexdigest() for array in triplets] == [
            "fa799d2a27bde4306d323de4ea4b14504deeb74e8b4daec6c18918340a3c85b1",
            "6da6ec1bc173c0ba1fd9876fc78a37c56a78d21617c4ff7fbec06e5fdf995a79",
            "5aa2183d355f68dcc15c47853f953481c60cbf08200a7485fcbd1deb79184e9f",
        ]

    def test_streamed_rows_empty_sources(self, graph, params):
        rows, cols, values = linear_system.build_rows(graph, [], params)
        assert len(rows) == len(cols) == len(values) == 0
        assert (rows.dtype, cols.dtype, values.dtype) == (np.int64, np.int64, np.float64)

    def test_zero_in_degree_node_row_is_identity(self, params):
        from repro.graph.digraph import DiGraph

        graph = DiGraph(3, [(0, 1), (1, 2)])  # node 0 has no in-links
        system = linear_system.build_exact_system(graph, params).toarray()
        assert system[0, 0] == pytest.approx(1.0)
        assert np.allclose(system[0, 1:], 0.0)


def _bits(value: float) -> bytes:
    """A float's exact bytes: ``0.0`` and ``-0.0`` differ, NaNs compare."""
    return np.float64(value).tobytes()


class TestVectorisedKernelsBitwise:
    """The vectorised serving kernels must be bitwise-equal to their
    historical per-entry reference implementations (same summation
    association, same element order) — not merely approximately equal."""

    @staticmethod
    def _reference_combine_pair(dist_i, dist_j, weights, decay, steps):
        """The historical per-step intersect1d loop, kept as ground truth."""
        total = 0.0
        factor = 1.0
        for step in range(steps + 1):
            left_nodes, left_values = dist_i.at(step)
            right_nodes, right_values = dist_j.at(step)
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
            assert _bits(fast) == _bits(reference), (
                f"pair ({node_i}, {node_j}) diverged")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_combine_pair_distributions_matches_reference_property(self, data):
        """Any two step-sparse distributions and any finite weights — with
        negative, zero and ``-0.0`` entries — combine to the per-step
        reference's bits, through empty steps and disjoint supports."""
        n_nodes = data.draw(st.integers(1, 24), label="n_nodes")
        steps = data.draw(st.integers(0, 6), label="steps")
        disjoint = data.draw(st.booleans(), label="disjoint")
        weights = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, -1.0, 5e-324, 2.5]),
                      st.floats(-1e3, 1e3)),
            min_size=n_nodes, max_size=n_nodes), label="weights"))
        decay = data.draw(st.floats(0.05, 0.95), label="decay")

        def distribution(source, parity):
            allowed = [node for node in range(n_nodes)
                       if not disjoint or node % 2 == parity]
            per_step = []
            for _step in range(steps + 1):
                nodes = sorted(data.draw(st.sets(st.sampled_from(allowed))
                                         if allowed else st.just(set())))
                values = data.draw(st.lists(
                    st.floats(1e-6, 1.0), min_size=len(nodes),
                    max_size=len(nodes)))
                per_step.append((np.array(nodes, dtype=np.int64),
                                 np.array(values, dtype=np.float64)))
            return montecarlo._from_steps(source, steps, 1, per_step)

        dist_i, dist_j = distribution(0, 0), distribution(1, 1)
        fast = montecarlo.combine_pair_distributions(
            dist_i, dist_j, weights, decay, steps)
        reference = self._reference_combine_pair(
            dist_i, dist_j, weights, decay, steps)
        assert _bits(fast) == _bits(reference)

    def test_combine_pair_distributions_disjoint_and_dead(self):
        def alone_then_dead(source):
            return montecarlo.WalkDistributions(
                source=source, steps=1, walkers=1,
                offsets=np.array([0, 1, 1]), nodes=np.array([source]),
                values=np.array([1.0]),
            )

        dist_a, dist_b = alone_then_dead(0), alone_then_dead(1)
        weights = np.ones(4)
        assert montecarlo.combine_pair_distributions(
            dist_a, dist_b, weights, 0.6, 1) == 0.0
