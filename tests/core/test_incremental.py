"""Tests for incremental index maintenance.

The reference every update is held against is a from-scratch build on the
updated graph (the ``from_scratch`` fixture):
:func:`repro.core.linear_system.build_system` for the system and
:func:`repro.core.diagonal.build_diagonal_index` for the diagonal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimRankParams
from repro.core import linear_system
from repro.core.diagonal import build_diagonal_index
from repro.core.sharding import PHASES, ShardedIncrementalWalker
from repro.core.walks import forward_reachable_set
from repro.errors import ConfigurationError
from repro.graph import generators
from repro.graph.digraph import DiGraph


@pytest.fixture(scope="module")
def params():
    return SimRankParams(c=0.6, walk_steps=5, jacobi_iterations=6,
                         index_walkers=150, query_walkers=300, seed=11)


@pytest.fixture()
def graph():
    return generators.copying_model_graph(60, out_degree=4, seed=41)


class TestAffectedSources:
    """The affected set of an in-link change is the forward ball of its heads."""

    def test_chain_propagation(self):
        # 0 -> 1 -> 2 -> 3 -> 4; changing In(1) affects nodes reachable from 1.
        chain = DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert forward_reachable_set(chain, [1], steps=1) == {1, 2}
        assert forward_reachable_set(chain, [1], steps=3) == {1, 2, 3, 4}
        assert forward_reachable_set(chain, [4], steps=2) == {4}

    def test_multiple_heads(self):
        chain = DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert forward_reachable_set(chain, [0, 3], steps=1) == {0, 1, 3, 4}

    def test_cycle_saturates(self):
        cycle = generators.cycle_graph(4)
        assert forward_reachable_set(cycle, [0], steps=10) == {0, 1, 2, 3}

    def test_delegates_to_shared_bfs_helper(self, params):
        # The service invalidates its caches with the walker's affected set,
        # so that set must be exactly the shared BFS helper's ball around the
        # heads of the edges that are new — on the updated graph.
        graph = generators.copying_model_graph(40, out_degree=3, seed=9)
        walker = ShardedIncrementalWalker(graph, params=params)
        walker.build()
        present = tuple(int(x) for x in graph.edge_array()[0])
        for batch in [(1, 5)], [(2, 1), (3, 17), present], [(0, 40), (40, 7)]:
            heads = {v for u, v in batch if (u, v) != present}
            old_n = walker.graph.n_nodes
            result = walker.add_edges(batch)
            assert result.affected == forward_reachable_set(
                walker.graph, heads, params.walk_steps
            ) | set(range(old_n, walker.graph.n_nodes))


class TestIncrementalExact:
    """With exact systems, incremental updates must equal full rebuilds."""

    def test_matches_full_rebuild_after_edge_insertions(self, graph, params):
        # Enough Jacobi iterations that the incremental solve and the full
        # rebuild both converge to the same fixed point.
        converged = params.with_(jacobi_iterations=40)
        maintainer = ShardedIncrementalWalker(graph, params=converged, exact=True)
        maintainer.build()
        new_edges = [(0, 30), (5, 42), (17, 3)]
        result = maintainer.add_edges(new_edges)
        assert result.affected_rows >= 3

        merged = DiGraph(
            graph.n_nodes,
            np.vstack([graph.edge_array(), np.array(new_edges)]),
            name=graph.name,
        )
        # The spliced linear system must equal the one a full rebuild sees...
        full_system = linear_system.build_exact_system(merged, converged)
        assert abs(maintainer._system - full_system).max() < 1e-12
        # ... and therefore the solved diagonal matches the full rebuild.
        reference = build_diagonal_index(merged, converged, exact=True, solver="jacobi")
        assert np.allclose(maintainer.index.diagonal, reference.diagonal, atol=1e-6)
        assert maintainer.graph.n_edges == merged.n_edges

    def test_new_node_added(self, graph, params):
        maintainer = ShardedIncrementalWalker(graph, params=params, exact=True)
        maintainer.build()
        result = maintainer.add_edges([(2, graph.n_nodes)])  # brand-new node id
        assert result.new_nodes == 1
        assert maintainer.graph.n_nodes == graph.n_nodes + 1
        assert maintainer.index.diagonal.shape == (graph.n_nodes + 1,)

    def test_empty_update_is_noop(self, graph, params):
        maintainer = ShardedIncrementalWalker(graph, params=params, exact=True)
        maintainer.build()
        before = maintainer.index.diagonal.copy()
        assert maintainer.add_edges([]) is None
        assert np.array_equal(maintainer.index.diagonal, before)

    def test_readding_present_edges_is_noop(self, graph, params):
        """Edges the graph already has cost nothing and change nothing —
        not the graph, the system or the diagonal."""
        def build():
            walker = ShardedIncrementalWalker(graph, params=params)
            walker.build()
            return walker

        maintainer, untouched = build(), build()
        present = [tuple(int(x) for x in edge) for edge in graph.edge_array()[:2]]
        state = (maintainer.graph, maintainer.system, maintainer.index)
        assert maintainer.add_edges(present + present[:1]) is None
        assert (maintainer.graph, maintainer.system, maintainer.index) == state
        # A present edge riding along with a new one adds no head of its own
        # and the update after a no-op draws what it would have drawn anyway.
        mixed = maintainer.add_edges(present + [(0, 30)])
        alone = untouched.add_edges([(0, 30)])
        assert mixed.affected == alone.affected
        assert mixed.edges_added == alone.edges_added == 1
        assert np.array_equal(maintainer.index.diagonal, untouched.index.diagonal)


class TestIncrementalMonteCarlo:
    def test_update_close_to_full_rebuild(self, graph, params):
        maintainer = ShardedIncrementalWalker(graph, params=params)
        maintainer.build()
        new_edges = [(1, 20), (7, 33)]
        maintainer.add_edges(new_edges)
        merged = DiGraph(
            graph.n_nodes,
            np.vstack([graph.edge_array(), np.array(new_edges)]),
            name=graph.name,
        )
        reference = build_diagonal_index(merged, params)
        assert np.abs(maintainer.index.diagonal - reference.diagonal).mean() < 0.05

    def test_affected_fraction_small_for_local_change(self, params):
        # On a long path graph, an edge at the tail only affects a few rows.
        path_edges = [(i, i + 1) for i in range(199)]
        path = DiGraph(200, path_edges, name="path")
        maintainer = ShardedIncrementalWalker(path, params=params)
        maintainer.build()
        result = maintainer.add_edges([(100, 199)])
        assert result.affected_rows / maintainer.graph.n_nodes < 0.1

    def test_build_required_before_update(self, graph, params):
        maintainer = ShardedIncrementalWalker(graph, params=params)
        with pytest.raises(ConfigurationError):
            maintainer.add_edges([(0, 1)])

    def test_index_usable_for_queries_after_update(self, graph, params):
        from repro.core.queries import QueryEngine

        maintainer = ShardedIncrementalWalker(graph, params=params)
        maintainer.build()
        maintainer.add_edges([(3, 50)])
        engine = QueryEngine(maintainer.graph, maintainer.index, params)
        assert 0.0 <= engine.single_pair(3, 50) <= 1.0
        assert engine.single_pair(4, 4) == 1.0

    def test_build_info_records_update_kind(self, graph, params):
        maintainer = ShardedIncrementalWalker(graph, params=params)
        maintainer.build()
        assert maintainer.index.build_info.extras["update_kind"] == "full-build"
        maintainer.add_edges([(0, 10)])
        assert maintainer.index.build_info.extras["update_kind"] == "incremental-add-edges"
        assert maintainer.index.build_info.extras["affected_rows"] > 0

    def test_result_carries_affected_set(self, graph, params):
        maintainer = ShardedIncrementalWalker(graph, params=params)
        maintainer.build()
        result = maintainer.add_edges([(0, 10)])
        assert result.affected == frozenset(
            forward_reachable_set(maintainer.graph, [10], params.walk_steps)
        )
        assert maintainer.add_edges([]) is None


def _walker(graph, params, num_shards=1):
    walker = ShardedIncrementalWalker(graph, num_shards, params=params)
    walker.build()
    return walker


class TestBitwiseReproducibility:
    """Per-source streams + cold solves: updates == rebuilds, bitwise."""

    def test_update_bitwise_equal_to_rebuild(self, graph, params, from_scratch):
        maintainer = _walker(graph, params)
        new_edges = [(0, 30), (5, 42), (17, 3)]
        maintainer.add_edges(new_edges)
        merged = DiGraph(
            graph.n_nodes,
            np.vstack([graph.edge_array(), np.array(new_edges)]),
            name=graph.name,
        )
        reference = from_scratch(merged, params)
        assert np.array_equal(maintainer.index.diagonal, reference.index.diagonal)
        assert np.array_equal(maintainer.system.data, reference.system.data)
        assert np.array_equal(maintainer.system.indices, reference.system.indices)
        assert np.array_equal(maintainer.system.indptr, reference.system.indptr)

    def test_chained_updates_with_new_nodes_bitwise_equal(self, graph, params,
                                                          from_scratch):
        n = graph.n_nodes
        batches = [[(2, n)], [(7, 33), (n, 1), (7, 33)], [(n + 2, n + 2), (0, 30)]]
        merged = DiGraph(
            n + 3,
            np.vstack([graph.edge_array(),
                       np.array([edge for batch in batches for edge in batch])]),
            name=graph.name,
        )
        reference = from_scratch(merged, params)
        for num_shards in (1, 2, 5):
            maintainer = _walker(graph, params, num_shards)
            for batch in batches:
                maintainer.add_edges(batch)
            assert maintainer.graph == merged
            assert np.array_equal(maintainer.index.diagonal,
                                  reference.index.diagonal)
            # The spliced system is the canonical CSR a build produces — by
            # construction, not by a clean-up pass.
            ours, theirs = maintainer.system, reference.system
            assert ours.shape == theirs.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(ours, name),
                                      getattr(theirs, name)), name
            assert ours.has_sorted_indices
            assert np.count_nonzero(ours.data) == ours.nnz == len(ours.data)

    def test_summary_phases_partition_the_update(self, graph, params):
        maintainer = _walker(graph, params)
        result = maintainer.add_edges([(0, 30), (5, graph.n_nodes)])
        assert all(getattr(result, phase) >= 0.0 for phase in PHASES)
        assert sum(getattr(result, phase) for phase in PHASES) == pytest.approx(
            result.update_seconds)
        assert maintainer.add_edges([]) is None

    def test_attach_with_system_resumes_bitwise(self, graph, params):
        donor = _walker(graph, params)
        adopter = ShardedIncrementalWalker(graph, params=params)
        adopter.attach(donor.index, system=donor.system)
        new_edges = [(4, 19)]
        adopter.add_edges(new_edges)
        donor.add_edges(new_edges)
        assert np.array_equal(adopter.index.diagonal, donor.index.diagonal)

    def test_attach_canonicalises_a_foreign_system(self, graph, params):
        """Shuffled column order and explicit zeros in a caller-supplied
        system must not survive into the rows an update keeps."""
        from scipy import sparse

        donor = _walker(graph, params)
        canonical = donor.system
        rng = np.random.default_rng(4)
        indices, data = canonical.indices.copy(), canonical.data.copy()
        for lo, hi in zip(canonical.indptr, canonical.indptr[1:]):
            order = rng.permutation(hi - lo)
            indices[lo:hi], data[lo:hi] = indices[lo:hi][order], data[lo:hi][order]
        # One explicit zero appended to the last row, at a column it lacks.
        spare = np.setdiff1d(np.arange(graph.n_nodes), indices[canonical.indptr[-2]:])[0]
        indptr = canonical.indptr.copy()
        indptr[-1] += 1
        messy = sparse.csr_matrix(
            (np.append(data, 0.0), np.append(indices, spare), indptr),
            shape=canonical.shape)
        before = (messy.indices.copy(), messy.data.copy())
        adopter = ShardedIncrementalWalker(graph, params=params)
        adopter.attach(donor.index, system=messy)
        assert np.array_equal(messy.indices, before[0])  # caller's copy untouched
        assert np.array_equal(messy.data, before[1])
        new_edges = [(4, 19)]
        adopter.add_edges(new_edges)
        donor.add_edges(new_edges)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(adopter.system, name),
                                  getattr(donor.system, name)), name
        assert np.array_equal(adopter.index.diagonal, donor.index.diagonal)

    def test_attach_without_system_estimates_it(self, graph, params):
        donor = _walker(graph, params)
        adopter = ShardedIncrementalWalker(graph, params=params)
        adopter.attach(donor.index)
        assert adopter.system is not None
        assert np.array_equal(adopter.system.data, donor.system.data)

    def test_attach_validates_shapes(self, graph, params):
        donor = _walker(graph, params)
        other = generators.cycle_graph(7)
        adopter = ShardedIncrementalWalker(other, params=params)
        from repro.errors import CloudWalkerError

        with pytest.raises(CloudWalkerError):
            adopter.attach(donor.index)
        bad_system = donor.system[:10, :10]
        adopter_same_graph = ShardedIncrementalWalker(graph, params=params)
        with pytest.raises(ConfigurationError):
            adopter_same_graph.attach(donor.index, system=bad_system)


def _csr_row(system, row):
    lo, hi = system.indptr[row], system.indptr[row + 1]
    return system.indices[lo:hi].tobytes(), system.data[lo:hi].tobytes()


class TestSupportPrunedUpdates:
    """An update re-estimates only the affected rows whose stored support
    holds a head, plus the new nodes — and still lands on the from-scratch
    system, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pruned_updates_equal_from_scratch(self, data, from_scratch):
        n = data.draw(st.integers(2, 12), label="n_nodes")
        node = st.integers(0, n - 1)
        graph = DiGraph(n, data.draw(
            st.lists(st.tuples(node, node), max_size=3 * n), label="edges"))
        # Few walkers and short walks: supports stay small, so many ball
        # rows avoid the heads and some visit them only at step T.
        params = SimRankParams(
            c=0.6, walk_steps=data.draw(st.integers(1, 3), label="steps"),
            jacobi_iterations=3, query_walkers=10,
            index_walkers=data.draw(st.integers(1, 6), label="walkers"),
            seed=data.draw(st.integers(0, 2 ** 16), label="seed"))
        num_shards = data.draw(st.sampled_from([1, 2, 5]), label="K")
        walker = _walker(graph, params, num_shards)
        for _ in range(data.draw(st.integers(1, 3), label="batches")):
            current = walker.graph
            m = current.n_nodes
            # Present edges, heads with in-degree 0, and new-node heads and
            # tails (ids up to m + 2) all mix in one batch.
            any_node = st.integers(0, m + 2)
            kinds = [st.tuples(any_node, any_node)]
            present = [tuple(int(x) for x in edge) for edge in current.edge_array()]
            if present:
                kinds.append(st.sampled_from(present))
            unreached = np.flatnonzero(current.in_degrees() == 0).tolist()
            if unreached:
                kinds.append(st.tuples(any_node, st.sampled_from(unreached)))
            batch = data.draw(st.lists(st.one_of(kinds), min_size=1, max_size=5),
                              label="batch")
            result = walker.add_edges(batch)
            reference = from_scratch(walker.graph, params)
            for name in ("indptr", "indices", "data"):
                assert (getattr(walker.system, name).tobytes()
                        == getattr(reference.system, name).tobytes()), name
            assert (walker.index.diagonal.tobytes()
                    == reference.index.diagonal.tobytes())
            if result is not None:
                assert result.estimated_rows <= result.affected_rows
                assert result.estimated <= result.affected
                assert set(range(m, walker.graph.n_nodes)) <= result.estimated
                extras = walker.index.build_info.extras
                assert extras["estimated_rows"] == result.estimated_rows
                assert extras["affected_rows"] == result.affected_rows

    def test_ball_row_off_every_head_keeps_its_old_row(self, from_scratch):
        # In(3) = {1, 2} and In(1) = {0}: a single walker from 3 reaches the
        # head 0 only through 1, so some seed sends it through 2 instead —
        # row 3 is in the ball of 0 yet its walks never stood on 0.
        graph = DiGraph(5, [(0, 1), (1, 3), (2, 3), (4, 2)])
        for seed in range(50):
            params = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=4,
                                   index_walkers=1, query_walkers=10, seed=seed)
            walker = _walker(graph, params)
            if 0 not in walker.system.indices[
                    walker.system.indptr[3]:walker.system.indptr[4]]:
                break
        else:
            pytest.fail("no seed sent row 3's walker off the head")
        old_row = _csr_row(walker.system, 3)
        result = walker.add_edges([(4, 0)])
        assert 3 in result.affected
        assert 3 not in result.estimated and 0 in result.estimated
        assert _csr_row(walker.system, 3) == old_row
        reference = from_scratch(walker.graph, params)
        assert _csr_row(reference.system, 3) == old_row
        assert (walker.index.diagonal.tobytes()
                == reference.index.diagonal.tobytes())
