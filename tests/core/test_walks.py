"""Unit tests for the reverse random-walk engine."""

import numpy as np
import pytest

from repro.core import walks
from repro.graph import generators
from repro.graph.digraph import DiGraph


@pytest.fixture()
def rng():
    return walks.make_rng(42)


class TestStepWalkers:
    def test_walkers_move_to_in_neighbors(self, rng):
        graph = generators.cycle_graph(5)  # in-neighbour of v is v-1
        positions = np.array([0, 1, 2, 3, 4], dtype=np.int64)
        stepped = walks.step_walkers(graph, positions, rng)
        assert stepped.tolist() == [4, 0, 1, 2, 3]

    def test_walkers_die_at_zero_in_degree(self, rng):
        graph = DiGraph(3, [(0, 1), (1, 2)])  # node 0 has no in-neighbours
        positions = np.array([0, 0, 2], dtype=np.int64)
        stepped = walks.step_walkers(graph, positions, rng)
        assert stepped[0] == walks.DEAD
        assert stepped[1] == walks.DEAD
        assert stepped[2] == 1

    def test_dead_walkers_stay_dead(self, rng):
        graph = generators.cycle_graph(4)
        positions = np.array([walks.DEAD, 2], dtype=np.int64)
        stepped = walks.step_walkers(graph, positions, rng)
        assert stepped[0] == walks.DEAD
        assert stepped[1] == 1

    def test_all_dead_short_circuit(self, rng):
        graph = generators.cycle_graph(4)
        positions = np.full(5, walks.DEAD, dtype=np.int64)
        assert (walks.step_walkers(graph, positions, rng) == walks.DEAD).all()

    def test_step_respects_uniform_choice(self):
        # Node 2 has in-neighbours {0, 1}; both should be chosen roughly
        # equally often.
        graph = DiGraph(3, [(0, 2), (1, 2)])
        rng = walks.make_rng(3)
        positions = np.full(4000, 2, dtype=np.int64)
        stepped = walks.step_walkers(graph, positions, rng)
        counts = np.bincount(stepped, minlength=3)
        assert counts[0] + counts[1] == 4000
        assert abs(counts[0] - 2000) < 200


class TestMakeRng:
    def test_deterministic_streams(self):
        a = walks.make_rng(1, stream=5).integers(0, 1000, 10)
        b = walks.make_rng(1, stream=5).integers(0, 1000, 10)
        c = walks.make_rng(1, stream=6).integers(0, 1000, 10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_none_seed_gives_generator(self):
        assert walks.make_rng(None) is not None


class TestSingleSourceWalkCounts:
    def test_step_zero_is_source(self, rng):
        graph = generators.cycle_graph(6)
        counts = walks.single_source_walk_counts(graph, 3, walkers=50, steps=4, rng=rng)
        nodes, values = counts[0]
        assert nodes.tolist() == [3]
        assert values.tolist() == [50]

    def test_counts_conserved_on_cycle(self, rng):
        graph = generators.cycle_graph(6)
        counts = walks.single_source_walk_counts(graph, 0, walkers=30, steps=5, rng=rng)
        for _nodes, values in counts:
            assert values.sum() == 30

    def test_counts_decay_with_absorption(self, rng):
        graph = generators.star_graph(4)  # leaves have in-degree 1 (hub), hub has 0
        counts = walks.single_source_walk_counts(graph, 1, walkers=20, steps=3, rng=rng)
        assert counts[0][1].sum() == 20   # at leaf
        assert counts[1][1].sum() == 20   # all at hub
        assert counts[2][1].sum() == 0    # absorbed
        assert counts[3][1].sum() == 0
        assert len(counts) == 4

    def test_invalid_source_raises(self, rng):
        graph = generators.cycle_graph(4)
        from repro.errors import NodeNotFoundError

        with pytest.raises(NodeNotFoundError):
            walks.single_source_walk_counts(graph, 99, walkers=5, steps=2, rng=rng)


def _walk_counts_by_source(graph, sources, walkers, steps, seed):
    """The packed kernel's blocks as ``{source: per_step}`` with
    ``per_step[t]`` the ``(nodes, counts)`` pair of the single-source oracle."""
    return {
        source: [(packed.nodes[lo:hi], packed.counts[lo:hi])
                 for lo, hi in zip(bounds, bounds[1:])]
        for packed in walks.simulate_walks_packed(graph, sources, walkers, steps, seed)
        for source, bounds in zip(packed.sources.tolist(), packed.offsets.tolist())
    }


class TestSimulateWalksBatch:
    def test_bitwise_equal_to_single_source(self):
        graph = generators.copying_model_graph(100, out_degree=4, seed=5)
        sources = [3, 17, 41]
        batch = _walk_counts_by_source(graph, sources, walkers=40, steps=4, seed=9)
        for source in sources:
            direct = walks.single_source_walk_counts(
                graph, source, walkers=40, steps=4,
                rng=walks.make_rng(9, stream=source),
            )
            assert len(batch[source]) == len(direct) == 5
            for (batch_nodes, batch_counts), (nodes, counts) in zip(batch[source], direct):
                assert np.array_equal(batch_nodes, nodes)
                assert np.array_equal(batch_counts, counts)

    def test_bitwise_equal_with_absorption(self):
        # Sparse graph: most walkers die early, exercising the empty-tail path.
        graph = generators.erdos_renyi_graph(30, avg_degree=0.5, seed=3)
        batch = _walk_counts_by_source(graph, list(range(10)),
                                       walkers=15, steps=6, seed=2)
        for source in range(10):
            direct = walks.single_source_walk_counts(
                graph, source, walkers=15, steps=6,
                rng=walks.make_rng(2, stream=source),
            )
            for (batch_nodes, batch_counts), (nodes, counts) in zip(batch[source], direct):
                assert np.array_equal(batch_nodes, nodes)
                assert np.array_equal(batch_counts, counts)

    def test_duplicate_sources_collapsed(self):
        graph = generators.cycle_graph(8)
        batch = _walk_counts_by_source(graph, [2, 2, 5, 2], 10, 3, seed=1)
        assert sorted(batch) == [2, 5]

    def test_counts_conserved_on_cycle(self):
        graph = generators.cycle_graph(8)
        batch = _walk_counts_by_source(graph, [0, 4], 25, 5, seed=1)
        for source in (0, 4):
            for _nodes, counts in batch[source]:
                assert counts.sum() == 25

    def test_empty_sources(self):
        graph = generators.cycle_graph(4)
        assert list(walks.simulate_walks_packed(graph, [], 10, 3, seed=1)) == []

    def test_invalid_inputs_rejected(self):
        from repro.errors import NodeNotFoundError

        graph = generators.cycle_graph(4)
        with pytest.raises(NodeNotFoundError):
            walks.simulate_walks_packed(graph, [0, 99], 10, 3, seed=1)
        with pytest.raises(ValueError):
            walks.simulate_walks_packed(graph, [0], 0, 3, seed=1)


class TestSimulateWalksPacked:
    """The one batched kernel against the single-source oracle, bitwise."""

    @staticmethod
    def _assert_matches_oracle(graph, sources, walkers, steps, seed):
        blocks = list(walks.simulate_walks_packed(graph, sources, walkers, steps, seed))
        simulated = [source for packed in blocks for source in packed.sources.tolist()]
        assert simulated == sorted(set(sources))
        for packed in blocks:
            assert packed.offsets.shape == (len(packed.sources), steps + 2)
            for array in packed:
                assert array.dtype == np.int64
            # Source-major and gap-free: each row ends where the next begins.
            assert packed.offsets[0, 0] == 0
            assert packed.offsets[-1, -1] == len(packed.nodes)
            assert np.array_equal(packed.offsets[1:, 0], packed.offsets[:-1, -1])
            for k, source in enumerate(packed.sources.tolist()):
                direct = walks.single_source_walk_counts(
                    graph, source, walkers, steps, walks.make_rng(seed, stream=source))
                for t, (nodes, counts) in enumerate(direct):
                    lo, hi = packed.offsets[k, t], packed.offsets[k, t + 1]
                    assert packed.nodes[lo:hi].tobytes() == nodes.tobytes()
                    assert packed.counts[lo:hi].tobytes() == counts.tobytes()
                    assert nodes.dtype == counts.dtype == np.int64
        return blocks

    @pytest.mark.parametrize("walkers", [1, 2, 40])
    @pytest.mark.parametrize("sources", [
        [3], [41, 3, 17], [5, 5, 99, 0, 5], list(range(100)), [99, 98, 98, 2],
    ])
    def test_any_subset_order_and_repetition(self, sources, walkers):
        graph = generators.copying_model_graph(100, out_degree=4, seed=5)
        self._assert_matches_oracle(graph, sources, walkers, steps=6, seed=9)

    @pytest.mark.parametrize("walkers", [1, 15])
    def test_walkers_that_all_die_before_the_last_step(self, walkers):
        # 3 -> 2 -> 1 -> 0: a walker from node k is dead after k + 1 steps,
        # node 4 is isolated, so every source has an empty tail of its own
        # length and the live set shrinks to nothing mid-simulation.
        graph = DiGraph(5, [(0, 1), (1, 2), (2, 3)])
        self._assert_matches_oracle(graph, [4, 0, 3, 1, 2], walkers, steps=6, seed=2)
        (packed,) = walks.simulate_walks_packed(graph, [3, 4], walkers, 6, seed=2)
        assert np.diff(packed.offsets, axis=1).tolist() == [
            [1, 1, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0]]

    def test_sparse_random_graph_with_absorption(self):
        graph = generators.erdos_renyi_graph(30, avg_degree=0.5, seed=3)
        self._assert_matches_oracle(graph, list(range(30)), 15, steps=6, seed=2)

    def test_zero_steps(self):
        graph = generators.cycle_graph(4)
        self._assert_matches_oracle(graph, [2, 0], 5, steps=0, seed=1)

    @pytest.mark.parametrize("draws, per_block", [(1, 1), (15 * 6 * 7, 7), (1 << 18, 30)])
    def test_blocks_hold_a_bounded_number_of_draws(self, draws, per_block):
        from unittest import mock

        graph = generators.erdos_renyi_graph(30, avg_degree=2.0, seed=3)
        with mock.patch.object(walks, "_BLOCK_DRAWS", draws):
            blocks = self._assert_matches_oracle(
                graph, list(range(30)), 15, steps=6, seed=2)
        assert [len(packed.sources) for packed in blocks] == (
            [per_block] * (30 // per_block) + [30 % per_block] * (30 % per_block > 0))

    def test_first_out_of_range_source_is_reported(self):
        from repro.errors import NodeNotFoundError

        graph = generators.cycle_graph(4)
        for sources, offender in (([0, 99, 7], 7), ([2, -3, 99, -1], -3), ([4], 4)):
            with pytest.raises(NodeNotFoundError) as caught:
                walks.simulate_walks_packed(graph, sources, 10, 3, seed=1)
            assert caught.value.node == offender


class TestExactWalkDistributions:
    def test_matches_transition_powers(self):
        graph = generators.copying_model_graph(40, out_degree=4, seed=2)
        source = 7
        distributions = walks.exact_walk_distributions(graph, source, steps=3)
        transition = graph.transition_matrix()
        expected = np.zeros(graph.n_nodes)
        expected[source] = 1.0
        for step in range(4):
            assert np.allclose(distributions[step], expected)
            expected = transition @ expected

    def test_distributions_sum_to_at_most_one(self):
        graph = generators.preferential_attachment_graph(60, out_degree=3, seed=2)
        distributions = walks.exact_walk_distributions(graph, 10, steps=5)
        for vector in distributions:
            assert vector.sum() <= 1.0 + 1e-12

    def test_monte_carlo_converges_to_exact(self):
        graph = generators.copying_model_graph(50, out_degree=4, seed=9)
        source = 5
        exact = walks.exact_walk_distributions(graph, source, steps=3)
        rng = walks.make_rng(11)
        counts = walks.single_source_walk_counts(graph, source, walkers=20000, steps=3, rng=rng)
        for step in range(4):
            estimate = np.zeros(graph.n_nodes)
            nodes, values = counts[step]
            estimate[nodes] = values / 20000
            assert np.abs(estimate - exact[step]).max() < 0.02


class TestForwardReachableSet:
    """The vectorised CSR frontier sweep must match the set-based BFS."""

    @staticmethod
    def _reference(graph, seeds, steps):
        """The historical per-node BFS, kept as the ground truth."""
        frontier = {graph.check_node(node) for node in seeds}
        reachable = set(frontier)
        for _ in range(steps):
            next_frontier = set()
            for node in frontier:
                for successor in graph.out_neighbors(node):
                    successor = int(successor)
                    if successor not in reachable:
                        reachable.add(successor)
                        next_frontier.add(successor)
            if not next_frontier:
                break
            frontier = next_frontier
        return reachable

    def test_identical_to_reference_on_random_graphs(self):
        rng = np.random.default_rng(20150731)
        for _ in range(25):
            n_nodes = int(rng.integers(2, 60))
            n_edges = int(rng.integers(0, 5 * n_nodes))
            edges = [(int(u), int(v))
                     for u, v in rng.integers(0, n_nodes, size=(n_edges, 2))]
            graph = DiGraph(n_nodes, edges)
            n_seeds = int(rng.integers(1, min(n_nodes, 5) + 1))
            seeds = [int(s) for s in rng.integers(0, n_nodes, size=n_seeds)]
            steps = int(rng.integers(0, 6))
            result = walks.forward_reachable_set(graph, seeds, steps)
            assert result == self._reference(graph, seeds, steps)
            assert all(isinstance(node, int) for node in result)

    def test_zero_steps_returns_seeds(self):
        graph = generators.cycle_graph(5)
        assert walks.forward_reachable_set(graph, [1, 3], 0) == {1, 3}

    def test_empty_seeds(self):
        graph = generators.cycle_graph(4)
        assert walks.forward_reachable_set(graph, [], 3) == set()

    def test_saturates_on_cycle(self):
        graph = generators.cycle_graph(6)
        assert walks.forward_reachable_set(graph, [0], 10) == set(range(6))

    def test_dead_end_stops_early(self):
        graph = DiGraph(4, [(0, 1), (1, 2)])  # node 2 has no out-edges
        assert walks.forward_reachable_set(graph, [0], 99) == {0, 1, 2}

    def test_invalid_seed_raises(self):
        from repro.errors import NodeNotFoundError

        graph = generators.cycle_graph(4)
        with pytest.raises(NodeNotFoundError):
            walks.forward_reachable_set(graph, [7], 2)

    def test_zero_steps_dedups_and_validates(self):
        """steps=0 returns exactly the deduped, validated seed set."""
        from repro.errors import NodeNotFoundError

        graph = generators.cycle_graph(5)
        result = walks.forward_reachable_set(graph, [3, 1, 3, 1, 1], 0)
        assert result == {1, 3}
        assert all(isinstance(node, int) for node in result)
        # Validation must run even though no traversal happens.
        with pytest.raises(NodeNotFoundError):
            walks.forward_reachable_set(graph, [0, 9], 0)

    def test_negative_steps_behaves_like_zero(self):
        graph = generators.cycle_graph(5)
        assert walks.forward_reachable_set(graph, [2, 4], -3) == {2, 4}

    def test_numpy_integer_seeds(self):
        graph = generators.cycle_graph(5)
        seeds = np.array([0, 2], dtype=np.int64)
        assert walks.forward_reachable_set(graph, seeds, 1) == {0, 1, 2, 3}

    def test_visited_mask_tracks_grown_node_count(self):
        """The mask is sized from the graph *passed in* — the post-growth
        snapshot during an ``add_edges`` lineage step — so seeds and
        frontiers may legally name nodes beyond the old count."""
        old = DiGraph(3, [(0, 1), (1, 2)])
        grown = DiGraph(6, [(0, 1), (1, 2), (2, 4), (4, 5)])
        assert old.n_nodes < grown.n_nodes
        result = walks.forward_reachable_set(grown, [2, 5], 2)
        assert result == {2, 4, 5}
        assert result == self._reference(grown, [2, 5], 2)

    def test_zero_out_degree_frontier_terminates(self):
        graph = DiGraph(4, [(0, 1)])  # nodes 1-3 have no out-edges
        assert walks.forward_reachable_set(graph, [1, 2], 5) == {1, 2}
