"""Property-based tests (hypothesis) for core data structures and invariants.

These complement the example-based unit tests by checking invariants over
randomly generated graphs and inputs:

* CSR graph construction is consistent with the edge list it was built from;
* the transition matrix is column-substochastic, and it and its transpose
  are the COO construction's bytes;
* SimRank estimates always live in [0, 1] with unit self-similarity;
* the indexing linear system is well-formed for any graph;
* the Jacobi solver converges on diagonally dominant systems;
* the engine's shuffle operations match their sequential equivalents;
* a batch's walk distributions are owned records equal to the
  single-source oracle, whatever the kernel's block size;
* the query service (batching + caching) is bitwise-equivalent to direct
  core calls for the same seed;
* every route to an index — the local estimator, the broadcasting model
  over any partitioning, the query service's build — gives the same bytes,
  and the one-off query engine answers as the service does;
* support score propagation is byte-for-byte the one-source dense
  recurrence, and ranking over the support is the dense ranking.
"""

from typing import List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.config import ServiceParams, SimRankParams
from repro.core import linear_system, montecarlo, queries, walks
from repro.core.diagonal import build_diagonal_index
from repro.core.jacobi import exact_solve, jacobi_solve
from repro.core.queries import QueryEngine
from repro.engine.context import ClusterContext
from repro.engine.executor import SerialBackend
from repro.graph.digraph import DiGraph
from repro.service import PairQuery, QueryService, SourceQuery

settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


def _serial_pool(workers: int):
    """Patch serial backends to split work as a pool of ``workers`` would.

    Their tasks still run back to back in process, so ``K`` and the serve
    workers shape the row tasks and the miss scatter as on a process pool,
    at serial cost.
    """
    return mock.patch.object(SerialBackend, "max_workers", workers)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def edge_lists(draw, max_nodes: int = 25, max_edges: int = 120) -> Tuple[int, List[Tuple[int, int]]]:
    n_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_nodes - 1),
                st.integers(min_value=0, max_value=n_nodes - 1),
            ),
            min_size=n_edges, max_size=n_edges,
        )
    )
    return n_nodes, edges


@st.composite
def graphs(draw, max_nodes: int = 25, max_edges: int = 120) -> DiGraph:
    n_nodes, edges = draw(edge_lists(max_nodes, max_edges))
    return DiGraph(n_nodes, edges)


# --------------------------------------------------------------------------- #
# Graph invariants
# --------------------------------------------------------------------------- #
class TestGraphProperties:
    @given(edge_lists())
    def test_degree_sums_equal_edge_count(self, data):
        n_nodes, edges = data
        graph = DiGraph(n_nodes, edges)
        assert graph.in_degrees().sum() == graph.n_edges
        assert graph.out_degrees().sum() == graph.n_edges
        assert graph.n_edges <= len(edges)

    @given(edge_lists())
    def test_every_input_edge_present(self, data):
        n_nodes, edges = data
        graph = DiGraph(n_nodes, edges)
        for src, dst in edges:
            assert graph.has_edge(src, dst)

    @given(graphs())
    def test_reverse_swaps_degrees(self, graph):
        reverse = graph.reverse()
        assert np.array_equal(reverse.in_degrees(), graph.out_degrees())
        assert np.array_equal(reverse.out_degrees(), graph.in_degrees())

    @given(graphs())
    def test_transition_matrix_column_substochastic(self, graph):
        transition = graph.transition_matrix()
        column_sums = np.asarray(transition.sum(axis=0)).ravel()
        assert (column_sums <= 1.0 + 1e-9).all()
        in_degrees = graph.in_degrees()
        assert np.allclose(column_sums[in_degrees > 0], 1.0)
        assert np.allclose(column_sums[in_degrees == 0], 0.0)

    @given(graphs())
    def test_transition_matrices_bitwise_equal_to_the_coo_build(self, graph):
        """``P`` from the out-CSR and ``P^T`` from the in-CSR are the bytes
        the COO construction and its transpose give: arrays, dtypes and
        the sorted flag."""
        n = graph.n_nodes
        in_deg = graph.in_degrees().astype(np.float64)
        cols = np.repeat(np.arange(n, dtype=np.int64), graph.in_degrees())
        with np.errstate(divide="ignore"):
            inverse = np.where(in_deg > 0, 1.0 / in_deg, 0.0)
        reference = sparse.csr_matrix(
            (inverse[cols], (graph.in_csr[1], cols)), shape=(n, n),
            dtype=np.float64)
        for ours, theirs in ((graph.transition_matrix(), reference),
                             (graph.transition_matrix_t(),
                              reference.T.tocsr())):
            assert ours.shape == theirs.shape
            assert ours.has_sorted_indices == theirs.has_sorted_indices
            for name in ("indptr", "indices", "data"):
                mine, other = getattr(ours, name), getattr(theirs, name)
                assert mine.dtype == other.dtype
                assert mine.tobytes() == other.tobytes()

    @given(st.integers(min_value=0, max_value=12), st.data())
    def test_with_edges_bitwise_equal_to_constructor_on_the_union(self, n_nodes, data):
        """Merging into the sorted adjacency gives the constructor's arrays:
        duplicates inside the batch, edges already present, self-loops, the
        empty batch and node growth (implied or requested) included."""
        node = st.integers(min_value=0, max_value=max(n_nodes - 1, 0))
        graph = DiGraph(n_nodes, data.draw(st.lists(
            st.tuples(node, node), max_size=40 if n_nodes else 0)))
        grown = n_nodes + data.draw(st.integers(min_value=0, max_value=4))
        endpoint = st.integers(min_value=0, max_value=max(grown - 1, 0))
        batch = data.draw(st.lists(
            st.tuples(endpoint, endpoint), max_size=15 if grown else 0))
        batch += data.draw(st.lists(st.sampled_from(batch), max_size=4)) if batch else []
        batch += data.draw(st.lists(
            st.sampled_from(list(graph.edges())), max_size=4)) if graph.n_edges else []
        explicit = data.draw(st.booleans())
        as_array = data.draw(st.booleans())

        merged = graph.with_edges(
            np.asarray(batch, dtype=np.int64).reshape(-1, 2) if as_array else batch,
            n_nodes=grown if explicit else None)
        expected_nodes = grown if explicit else max(
            [n_nodes] + [max(edge) + 1 for edge in batch])
        reference = DiGraph(expected_nodes, np.vstack(
            [graph.edge_array(), np.asarray(batch, dtype=np.int64).reshape(-1, 2)]))
        assert (merged.n_nodes, merged.n_edges) == (reference.n_nodes, reference.n_edges)
        for ours, theirs in zip(merged.resident_export()[1],
                                reference.resident_export()[1], strict=True):
            assert ours.dtype == theirs.dtype and ours.flags.c_contiguous
            assert ours.tobytes() == theirs.tobytes()
        # The receiver is immutable: merging never writes into its arrays.
        assert graph == DiGraph(n_nodes, list(graph.edges()))

    @given(graphs())
    def test_memory_accounting_non_negative(self, graph):
        assert graph.memory_bytes() > 0
        assert graph.edge_list_bytes() >= 0


# --------------------------------------------------------------------------- #
# Walk and linear-system invariants
# --------------------------------------------------------------------------- #
class TestWalkProperties:
    @given(graphs(), st.integers(min_value=0, max_value=24), st.integers(min_value=1, max_value=50))
    def test_walker_counts_never_exceed_start(self, graph, source, walkers):
        source = source % graph.n_nodes
        rng = walks.make_rng(3)
        counts = walks.single_source_walk_counts(graph, source, walkers, steps=4, rng=rng)
        for _nodes, values in counts:
            assert values.sum() <= walkers
        assert counts[0][1].sum() == walkers

    @given(graphs())
    def test_system_diagonal_at_least_one(self, graph):
        params = SimRankParams(c=0.6, walk_steps=3, index_walkers=20, seed=1)
        system = linear_system.build_system(graph, params)
        diagonal = system.diagonal()
        assert (diagonal >= 1.0 - 1e-9).all()
        # Every entry of A is a discounted squared probability, so <= 1/(1-c).
        if system.nnz:
            assert system.data.max() <= 1.0 / (1.0 - params.c) + 1e-9

    @given(graphs())
    def test_diagonal_index_in_unit_interval(self, graph):
        params = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=3,
                               index_walkers=20, query_walkers=50, seed=2)
        index = build_diagonal_index(graph, params)
        assert index.diagonal.shape == (graph.n_nodes,)
        assert (index.diagonal > 0.0).all() if graph.n_nodes else True
        assert (index.diagonal <= 1.0 + 1e-6).all() if graph.n_nodes else True


class TestQueryProperties:
    @given(graphs(max_nodes=15, max_edges=60), st.data())
    def test_similarity_scores_in_unit_interval(self, graph, data):
        params = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=3,
                               index_walkers=30, query_walkers=60, seed=4)
        index = build_diagonal_index(graph, params)
        engine = QueryEngine(graph, index, params)
        node_i = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1))
        node_j = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1))
        value = engine.single_pair(node_i, node_j)
        assert 0.0 <= value <= 1.0
        assert engine.single_pair(node_i, node_i) == 1.0
        scores = engine.single_source(node_i)
        assert scores.shape == (graph.n_nodes,)
        assert (scores >= 0.0).all() and (scores <= 1.0).all()
        assert scores[node_i] == 1.0


# --------------------------------------------------------------------------- #
# Block score propagation
# --------------------------------------------------------------------------- #
def _propagate_one_source_dense(node, distributions, transition_t, diagonal,
                                c, walk_steps):
    """The reference recurrence: one source, a dense vector per step and one
    sparse matvec per step (what ``propagate_scores`` was before it worked
    on blocks, and then on supports)."""
    n = transition_t.shape[0]
    decay_powers = c ** np.arange(walk_steps + 1)
    result = np.zeros(n, dtype=np.float64)
    for step in range(walk_steps, -1, -1):
        if step < walk_steps:
            result = transition_t @ result
        result += decay_powers[step] * (
            diagonal * distributions.dense(n, step))
    result[node] = 1.0
    np.clip(result, 0.0, 1.0, out=result)
    return result


class TestBlockPropagateProperties:
    @settings(max_examples=60)
    @given(graphs(max_nodes=20, max_edges=60), st.data())
    def test_block_columns_bytewise_equal_to_dense_single_source(self, graph,
                                                                 data):
        """Support propagation plus support ranking equal the dense
        recurrence plus the dense ranking, byte for byte, whichever columns
        take the dense fallback and whenever they move to it."""
        # Approximate serving shrinks (walkers, steps); sparse graphs give
        # sources whose walks die out, i.e. empty supports at later steps,
        # and cycles bring a walk back into its own source.
        params = SimRankParams(
            c=0.6, jacobi_iterations=1, index_walkers=1,
            walk_steps=data.draw(st.integers(min_value=1, max_value=6)),
            query_walkers=data.draw(st.integers(min_value=1, max_value=50)),
            seed=data.draw(st.integers(min_value=0, max_value=1_000)),
        )
        nodes = data.draw(st.lists(
            st.integers(min_value=0, max_value=graph.n_nodes - 1),
            min_size=1, max_size=13))           # any order, duplicates welcome
        exact = data.draw(st.booleans())
        # The diagonal of a real index can have any sign; zeros included.
        diagonal = np.random.default_rng(params.seed).uniform(
            -0.5, 1.5, graph.n_nodes).round(1)
        transition = graph.transition_matrix()
        transition_t = transition.T.tocsr()
        if exact:
            distributions = {node: montecarlo.exact_walk_distributions(
                graph, node, params) for node in set(nodes)}
        else:
            distributions = montecarlo.estimate_walk_distributions_batch(
                graph, sorted(set(nodes)), params)
        expected = {node: _propagate_one_source_dense(
            node, distributions[node], transition_t, diagonal,
            params.c, params.walk_steps) for node in set(nodes)}
        # All dense from the first step, the shipped fill, migration in
        # mid-run, and never dense.
        for fill in (0.0, queries.DENSE_FILL_FRACTION, 0.25, 1.0):
            with mock.patch.object(queries, "DENSE_FILL_FRACTION", fill):
                scored = queries.propagate_scores(
                    nodes, [distributions[node] for node in nodes],
                    transition, transition_t, diagonal, params.c,
                    params.walk_steps)
            assert len(scored) == len(nodes)
            for node, scores in zip(nodes, scored):
                dense = expected[node]
                assert scores.source == node
                assert scores.dense().tobytes() == dense.tobytes()
                assert np.array_equal(scores.nodes, np.flatnonzero(dense))
                for k in range(1, graph.n_nodes + 3):
                    for include_self in (False, True):
                        assert scores.top_k(k, include_self=include_self) == \
                            queries.rank_top_k(dense, node, k,
                                               include_self=include_self)


# --------------------------------------------------------------------------- #
# Service invariants
# --------------------------------------------------------------------------- #
class TestServiceProperties:
    @staticmethod
    def _params(seed: int) -> SimRankParams:
        return SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=3,
                             index_walkers=25, query_walkers=40, seed=seed)

    @given(graphs(max_nodes=14, max_edges=50), st.data())
    def test_batch_walks_bitwise_equal_to_single_source(self, graph, data):
        """Every step of the packed kernel — the per-source steps 0 and 1
        included, alone at T = 0 and T = 1 — equals the single-source
        oracle, dtypes too."""
        # Seeds of one to five 32-bit words: the kernel derives each
        # source's stream itself, and wide seeds take more hashing rounds.
        seed = data.draw(st.one_of(st.integers(min_value=0, max_value=10_000),
                                   st.integers(min_value=2**32, max_value=2**160 - 1)))
        steps = data.draw(st.integers(min_value=0, max_value=5))
        walkers = data.draw(st.integers(min_value=1, max_value=40))
        n_sources = data.draw(st.integers(min_value=1, max_value=min(4, graph.n_nodes)))
        sources = data.draw(
            st.lists(st.integers(min_value=0, max_value=graph.n_nodes - 1),
                     min_size=n_sources, max_size=n_sources)
        )
        # A source whose in-list has one node, and the graph's highest
        # in-degree: the two ends of the step-1 slot count.
        in_degrees = graph.in_degrees()
        sources += np.flatnonzero(in_degrees == 1)[:1].tolist()
        sources.append(int(np.argmax(in_degrees)))
        batch = {
            source: [(packed.nodes[lo:hi], packed.counts[lo:hi])
                     for lo, hi in zip(bounds, bounds[1:])]
            for packed in walks.simulate_walks_packed(
                graph, sources, walkers_per_source=walkers, steps=steps,
                seed=seed)
            for source, bounds in zip(packed.sources.tolist(),
                                      packed.offsets.tolist())
        }
        assert sorted(batch) == sorted(set(sources))
        for source in set(sources):
            direct = walks.single_source_walk_counts(
                graph, source, walkers=walkers, steps=steps,
                rng=walks.make_rng(seed, stream=source),
            )
            for (batch_nodes, batch_counts), (nodes, counts) in zip(
                    batch[source], direct, strict=True):
                assert batch_nodes.dtype == nodes.dtype == np.int64
                assert batch_counts.dtype == counts.dtype == np.int64
                assert np.array_equal(batch_nodes, nodes)
                assert np.array_equal(batch_counts, counts)

    @given(graphs(max_nodes=14, max_edges=50), st.data())
    def test_batch_entries_are_owned_records_equal_to_the_oracle(self, graph,
                                                                  data):
        """Every entry of a batch — any source multiset, walker count and
        kernel block size — equals the single-source oracle step by step,
        owns its three arrays (one base each, shared with no other entry),
        and is sized by the cache as exactly their bytes."""
        from repro.service.cache import _payload_bytes

        params = self._params(data.draw(st.integers(0, 10_000))).with_(
            query_walkers=data.draw(st.integers(min_value=1, max_value=60)))
        sources = data.draw(st.lists(
            st.integers(min_value=0, max_value=graph.n_nodes - 1), max_size=10))
        block = data.draw(st.sampled_from([1, 7, walks._BLOCK_DRAWS]))
        with mock.patch.object(walks, "_BLOCK_DRAWS", block):
            batch = montecarlo.estimate_walk_distributions_batch(
                graph, sources, params)
        assert sorted(batch) == sorted(set(sources))
        bases = set()
        for source, entry in batch.items():
            oracle = montecarlo.estimate_walk_distributions(graph, source, params)
            assert (entry.source, entry.steps, entry.walkers) == (
                oracle.source, oracle.steps, oracle.walkers)
            for step in range(params.walk_steps + 1):
                for ours, theirs in zip(entry.at(step), oracle.at(step), strict=True):
                    assert ours.dtype == theirs.dtype
                    assert ours.tobytes() == theirs.tobytes()
            arrays = (entry.offsets, entry.nodes, entry.values)
            for array in arrays:
                base = array if array.base is None else array.base
                assert base.base is None and base.flags.owndata
                assert base.nbytes == array.nbytes
                assert id(base) not in bases
                bases.add(id(base))
            assert _payload_bytes(entry) == sum(array.nbytes for array in arrays)

    @given(graphs(max_nodes=12, max_edges=45), st.data())
    def test_service_bitwise_equal_to_direct_core_calls(self, graph, data):
        seed = data.draw(st.integers(min_value=0, max_value=1_000))
        params = self._params(seed)
        index = build_diagonal_index(graph, params)
        engine = QueryEngine(graph, index, params)
        service = QueryService(graph, index, params,
                               ServiceParams(cache_capacity=8))
        node_i = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1))
        node_j = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1))
        pair, scores = service.run_batch([PairQuery(node_i, node_j),
                                          SourceQuery(node_i)])
        dist_i = montecarlo.estimate_walk_distributions(graph, node_i, params)
        if node_i == node_j:
            assert pair == 1.0
        else:
            dist_j = montecarlo.estimate_walk_distributions(graph, node_j, params)
            assert pair == engine.combine_pair(dist_i, dist_j)
        assert np.array_equal(scores,
                              engine.propagate_source(node_i, dist_i).dense())
        # Cached re-ask answers identically.
        assert service.single_pair(node_i, node_j) == pair
        assert np.array_equal(service.single_source(node_i), scores)

    @given(graphs(max_nodes=12, max_edges=45), st.data())
    def test_service_scores_stay_in_unit_interval(self, graph, data):
        params = self._params(seed=5)
        index = build_diagonal_index(graph, params)
        service = QueryService(graph, index, params)
        node_i = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1))
        node_j = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1))
        assert 0.0 <= service.single_pair(node_i, node_j) <= 1.0
        assert service.single_pair(node_i, node_i) == 1.0
        scores = service.single_source(node_i)
        assert scores.shape == (graph.n_nodes,)
        assert (scores >= 0.0).all() and (scores <= 1.0).all()
        assert scores[node_i] == 1.0


# --------------------------------------------------------------------------- #
# One random-stream discipline
# --------------------------------------------------------------------------- #
class TestOneStreamDiscipline:
    """Every Monte-Carlo walk from node ``s`` reads the ``(seed, s)`` stream,
    so each route to an index or an answer is the same computation."""

    @given(graphs(max_nodes=12, max_edges=40), st.integers(0, 3),
           st.integers(min_value=0, max_value=2**32 - 1), st.data())
    def test_every_route_gives_the_same_bytes(self, drawn, isolated, seed, data):
        from repro.config import ExecutionOptions
        from repro.core.cloudwalker import CloudWalker
        from repro.core.diagonal import DiagonalEstimator
        from repro.service import TopKQuery

        # Extra nodes with no edges at all: isolated, and dead ends for
        # every reverse walk that starts there.
        graph = DiGraph(drawn.n_nodes + isolated, drawn.edge_array())
        params = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=3,
                               index_walkers=15, query_walkers=30, seed=seed)
        estimator = DiagonalEstimator(graph, params)
        system = estimator.build_system()
        diagonal = build_diagonal_index(graph, params).diagonal
        service = QueryService.build(graph, params)
        served = service._walker.system
        for name in ("indptr", "indices", "data"):
            assert getattr(system, name).tobytes() == getattr(served, name).tobytes()
        assert service.index.diagonal.tobytes() == diagonal.tobytes()
        for num_partitions in range(1, 5):
            walker = CloudWalker(graph, params, mode="broadcasting",
                                 context=ClusterContext(ExecutionOptions(
                                     num_partitions=num_partitions)))
            assert walker.build_index().diagonal.tobytes() == diagonal.tobytes()
            walker.shutdown()

        engine = QueryEngine(graph, service.index, params)
        node = st.integers(min_value=0, max_value=graph.n_nodes - 1)
        node_i, node_j = data.draw(node), data.draw(node)
        k = data.draw(st.integers(min_value=1, max_value=graph.n_nodes))
        pair, scores, ranking = service.run_batch(
            [PairQuery(node_i, node_j), SourceQuery(node_i), TopKQuery(node_i, k)])
        # Asked twice: the engine keeps no state between queries.
        for _ in range(2):
            assert np.float64(engine.single_pair(node_i, node_j)).tobytes() == \
                np.float64(pair).tobytes()
            assert engine.single_source(node_i).tobytes() == scores.tobytes()
            assert engine.top_k(node_i, k) == ranking
        service.close()


# --------------------------------------------------------------------------- #
# Solver invariants
# --------------------------------------------------------------------------- #
class TestSolverProperties:
    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=1000))
    def test_jacobi_converges_on_diagonally_dominant_systems(self, size, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.random((size, size)) * (0.5 / size)
        np.fill_diagonal(matrix, 1.0 + rng.random(size))
        system = sparse.csr_matrix(matrix)
        rhs = rng.random(size) + 0.1
        expected = exact_solve(system, rhs).x
        result = jacobi_solve(system, rhs, iterations=60)
        assert np.allclose(result.x, expected, atol=1e-6)


# --------------------------------------------------------------------------- #
# Engine invariants
# --------------------------------------------------------------------------- #
class TestEngineProperties:
    @given(
        st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                           st.integers(min_value=-50, max_value=50)),
                 max_size=60),
        st.integers(min_value=1, max_value=6),
    )
    def test_reduce_by_key_matches_sequential_aggregation(self, pairs, partitions):
        with ClusterContext() as ctx:
            result = dict(
                ctx.parallelize(pairs, partitions)
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
        expected = {}
        for key, value in pairs:
            expected[key] = expected.get(key, 0) + value
        assert result == expected

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=60),
           st.integers(min_value=1, max_value=5))
    def test_distinct_matches_set(self, values, partitions):
        with ClusterContext() as ctx:
            result = (ctx.parallelize(values, partitions).map(lambda x: (x, None))
                      .reduce_by_key(lambda a, b: a).map(lambda pair: pair[0]).collect())
        assert sorted(result) == sorted(set(values))

    @given(
        st.lists(st.tuples(st.integers(min_value=0, max_value=6), st.integers()), max_size=40),
        st.lists(st.tuples(st.integers(min_value=0, max_value=6), st.integers()), max_size=40),
        st.integers(min_value=1, max_value=5),
    )
    def test_cogroup_matches_sequential_grouping(self, left, right, partitions):
        with ClusterContext() as ctx:
            result = dict(
                ctx.parallelize(left, 3).cogroup(ctx.parallelize(right, 2), partitions)
                .collect()
            )
        keys = {key for key, _value in left + right}
        assert set(result) == keys
        for key in keys:
            assert sorted(result[key][0]) == sorted(v for k, v in left if k == key)
            assert sorted(result[key][1]) == sorted(v for k, v in right if k == key)


# --------------------------------------------------------------------------- #
# Live-update invariants
# --------------------------------------------------------------------------- #
class TestLiveUpdateProperties:
    """Service updates: exact invalidation sets, strictly increasing versions."""

    @staticmethod
    def _params(seed: int) -> SimRankParams:
        return SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                             index_walkers=15, query_walkers=40, seed=seed)

    @given(graphs(max_nodes=15, max_edges=50), st.data())
    def test_invalidation_set_is_exactly_the_affected_ball(self, graph, data):
        from repro.core.walks import forward_reachable_set

        params = self._params(seed=data.draw(st.integers(0, 500)))
        service = QueryService.build(graph, params)
        # Warm every source so the invalidation set is fully observable.
        service.run_batch([SourceQuery(node) for node in graph.nodes()])

        n_edges = data.draw(st.integers(min_value=1, max_value=4))
        new_edges = data.draw(st.lists(
            st.tuples(st.integers(0, graph.n_nodes),   # n_nodes = one new node
                      st.integers(0, graph.n_nodes)),
            min_size=n_edges, max_size=n_edges,
        ))
        old_nodes = set(graph.nodes())
        # Edges the graph already contains are no-ops and filtered out.
        fresh = {(u, v) for u, v in new_edges
                 if not (u in old_nodes and v in old_nodes and graph.has_edge(u, v))}
        result = service.add_edges(new_edges)

        if not fresh:
            assert result is None
            assert service.index_version == 1
            return
        heads = {v for _u, v in fresh}
        new_nodes = {node for edge in fresh for node in edge} - old_nodes
        expected = forward_reachable_set(
            service.graph, heads, params.walk_steps
        ) | new_nodes
        assert result.affected == frozenset(expected)

        # Exactly the affected entries were dropped from the cache.
        for node in old_nodes:
            assert (node in service.cache) == (node not in result.affected)
        assert service.stats()["cache_invalidations"] == \
            len(result.affected & old_nodes)

    @given(graphs(max_nodes=12, max_edges=40), st.data())
    def test_versions_strictly_increase_and_tag_batches(self, graph, data):
        params = self._params(seed=9)
        service = QueryService.build(graph, params)
        versions = [service.run_batch([SourceQuery(0)]).index_version]
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            head = data.draw(st.integers(0, graph.n_nodes - 1))
            tail = data.draw(st.integers(0, graph.n_nodes - 1))
            applied = service.add_edges([(tail, head)])
            tagged = service.run_batch([SourceQuery(head)]).index_version
            if applied is None:
                assert tagged == versions[-1]  # no-op: version unchanged
            else:
                assert tagged == versions[-1] + 1
                versions.append(tagged)
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)
        assert versions[0] == 1 and versions[-1] == service.index_version


# --------------------------------------------------------------------------- #
# Score-entry invariants
# --------------------------------------------------------------------------- #
class TestScoreEntryProperties:
    """Score cache entries never change an answer or a version.

    A caching service and a ``cache_capacity=0`` twin are driven through
    the same random interleaving of query batches, live updates, snapshot
    saves and a snapshot restart; the twin recomputes every answer
    through the plain pipeline, so any stale or misfiled score entry (or
    memoised ranking) shows up as a difference.
    """

    @staticmethod
    def _params(seed: int) -> SimRankParams:
        return SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                             index_walkers=15, query_walkers=40, seed=seed)

    @staticmethod
    def _build(num_shards, graph, params, capacity):
        from repro.config import ShardingParams

        service_params = ServiceParams(cache_capacity=capacity)
        if num_shards is None:
            return QueryService.build(graph, params, service_params)
        return QueryService.build(
            graph, params, service_params,
            sharding=ShardingParams(num_shards=num_shards))

    @staticmethod
    def _restart(service, directory):
        """Snapshot ``service`` into ``directory`` and cold-start from it."""
        service.flush_updates()
        service.save_snapshot(directory)
        restarted = QueryService.from_snapshot(
            service.graph, directory, service_params=service.service_params)
        service.close()
        return restarted

    @staticmethod
    def _batch(data, n_nodes):
        """Top-k and source traffic on the same few sources: it repeats
        ``(source, k)``, varies ``k`` on one source (past ``n`` too), mixes
        in pair queries, and asks again for the scores of sources the batch
        already named, so source queries repeat within and across
        batches."""
        from repro.service import TopKQuery

        node = st.integers(0, min(n_nodes - 1, 3))
        query = st.one_of(
            st.builds(TopKQuery, node, st.sampled_from([1, 3, n_nodes + 5])),
            st.builds(PairQuery, node, node),
            st.builds(SourceQuery, node),
        )
        queries = data.draw(st.lists(query, min_size=1, max_size=6))
        repeated = data.draw(st.lists(st.sampled_from(queries), max_size=3))
        return queries + [SourceQuery(query.source) for query in repeated]

    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    @settings(max_examples=10)
    @given(graph=graphs(max_nodes=12, max_edges=40), data=st.data())
    def test_snapshot_save_keeps_the_cache(self, tmp_path_factory, num_shards,
                                           graph, data):
        """Batches, updates and snapshot saves, interleaved: answers stay
        byte-equal to an uncached twin, and a save keeps every entry — the
        batch before it replays without simulating a source."""
        params = self._params(seed=data.draw(st.integers(0, 500)))
        cached = self._build(num_shards, graph, params, capacity=64)
        plain = self._build(num_shards, graph, params, capacity=0)
        queries = self._batch(data, graph.n_nodes)
        for _ in range(data.draw(st.integers(2, 6))):
            operation = data.draw(st.sampled_from(["batch", "add", "save"]))
            n_nodes = cached.graph.n_nodes
            if operation == "add":
                edges = data.draw(st.lists(
                    st.tuples(st.integers(0, n_nodes), st.integers(0, n_nodes)),
                    min_size=1, max_size=3))
                for service in (plain, cached):
                    service.add_edges(edges)
                continue
            if operation == "batch":
                queries = self._batch(data, n_nodes)
            TestShardingProperties._assert_equal(plain.run_batch(queries),
                                                 cached.run_batch(queries))
            if operation == "save":
                before = cached.stats()
                versions = [service.save_snapshot(
                    tmp_path_factory.mktemp("save"))[0]
                    for service in (plain, cached)]
                assert versions[0] == versions[1] == cached.index_version
                after = cached.stats()
                for key in ("cache_size", "cache_score_entries"):
                    assert after[key] == before[key]
                TestShardingProperties._assert_equal(plain.run_batch(queries),
                                                     cached.run_batch(queries))
                assert (cached.stats()["sources_simulated"]
                        == before["sources_simulated"])
            assert cached.index_version == plain.index_version
        plain.close()
        cached.close()

    @pytest.mark.parametrize("num_shards", [None, 1, 4])
    @settings(max_examples=15)
    @given(graph=graphs(max_nodes=10, max_edges=30), data=st.data())
    def test_answers_equal_an_uncached_twin(self, tmp_path_factory, num_shards,
                                            graph, data):
        params = self._params(seed=data.draw(st.integers(0, 500)))
        # One operating point per service: the walker count is drawn once.
        params = params.with_(query_walkers=data.draw(
            st.sampled_from([params.query_walkers, 25])))
        cached = self._build(num_shards, graph, params, capacity=64)
        plain = self._build(num_shards, graph, params, capacity=0)
        operations = ["batch", "batch", "batch", "add", "defer", "readd",
                      "restart"]
        for _ in range(data.draw(st.integers(3, 8))):
            operation = data.draw(st.sampled_from(operations))
            n_nodes = cached.graph.n_nodes
            if operation == "batch":
                queries = self._batch(data, n_nodes)
                TestShardingProperties._assert_equal(
                    plain.run_batch(queries), cached.run_batch(queries))
            elif operation in ("add", "defer"):
                edges = data.draw(st.lists(
                    st.tuples(st.integers(0, n_nodes), st.integers(0, n_nodes)),
                    min_size=1, max_size=3))
                for service in (plain, cached):
                    service.add_edges(edges, defer=operation == "defer")
            elif operation == "readd":
                # Present edges only: a graph no-op, so no version bump and
                # every score entry must survive (and still be right).
                present = [tuple(edge) for edge in
                           cached.graph.edge_array()[:2].tolist()]
                entries = cached.stats()["cache_score_entries"]
                pending = cached.pending_updates
                for service in (plain, cached):
                    assert service.add_edges(present) is None or pending
                if not pending:
                    assert cached.stats()["cache_score_entries"] == entries
            else:
                plain = self._restart(plain, tmp_path_factory.mktemp("plain"))
                cached = self._restart(cached, tmp_path_factory.mktemp("cached"))
            assert cached.index_version == plain.index_version
        queries = self._batch(data, cached.graph.n_nodes)
        TestShardingProperties._assert_equal(plain.run_batch(queries),
                                             cached.run_batch(queries))
        assert plain.stats()["cache_size"] == 0
        assert plain.stats()["cache_score_entries"] == 0
        plain.close()
        cached.close()


# --------------------------------------------------------------------------- #
# Sharding invariants
# --------------------------------------------------------------------------- #
class TestShardingProperties:
    """Sharded serving: bitwise equivalence to the single-shard path.

    The contract under test (see ``docs/sharding.md``): for any graph and
    any shard count, every pair / source / top-k answer of the
    sharded service — before *and* after live edge insertions — is
    bitwise-identical to the single-shard service's.
    """

    @staticmethod
    def _params(seed: int) -> SimRankParams:
        return SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                             index_walkers=15, query_walkers=40, seed=seed)

    @staticmethod
    def _queries(draw_node, n_queries: int):
        from repro.service import PairQuery, TopKQuery

        queries = []
        for _ in range(n_queries):
            queries.append(PairQuery(draw_node(), draw_node()))
            queries.append(SourceQuery(draw_node()))
            queries.append(TopKQuery(draw_node(), k=4))
        return queries

    @staticmethod
    def _assert_equal(reference, answers):
        assert answers.index_version == reference.index_version
        for left, right in zip(reference, answers):
            if isinstance(left, float):
                assert left == right
            elif isinstance(left, list):
                assert left == right
            else:
                assert np.array_equal(left, right)

    @given(graphs(max_nodes=14, max_edges=50), st.data())
    def test_sharded_answers_bitwise_equal_single_shard(self, graph, data):
        from repro.config import ShardingParams

        params = self._params(seed=data.draw(st.integers(0, 500)))
        num_shards = data.draw(st.sampled_from([1, 2, 5]))
        draw_node = lambda: data.draw(  # noqa: E731
            st.integers(min_value=0, max_value=graph.n_nodes - 1))
        queries = self._queries(draw_node, n_queries=2)

        single = QueryService.build(graph, params)
        with _serial_pool(8):
            sharded = QueryService.build(
                graph, params,
                sharding=ShardingParams(num_shards=num_shards),
            )
        self._assert_equal(single.run_batch(queries), sharded.run_batch(queries))
        # Second pass runs from the cache; still identical.
        self._assert_equal(single.run_batch(queries), sharded.run_batch(queries))

        # Live edge insertions (possibly growing the graph by one node,
        # possibly duplicating existing edges) keep the equivalence.
        n_edges = data.draw(st.integers(min_value=1, max_value=3))
        new_edges = data.draw(st.lists(
            st.tuples(st.integers(0, graph.n_nodes),
                      st.integers(0, graph.n_nodes)),
            min_size=n_edges, max_size=n_edges,
        ))
        single_result = single.add_edges(new_edges)
        with _serial_pool(8):
            sharded_result = sharded.add_edges(new_edges)
        assert (single_result is None) == (sharded_result is None)
        if single_result is not None:
            assert sharded_result.affected == single_result.affected
        self._assert_equal(single.run_batch(queries), sharded.run_batch(queries))

    @given(graphs(max_nodes=14, max_edges=50), st.data())
    def test_update_sequence_leaves_the_system_a_fresh_build_has(self, graph, data):
        """Any run of ``add_edges`` calls (growing the graph, repeating
        edges) splices to the byte-identical canonical CSR and diagonal of a
        from-scratch build on the final graph, for any shard count."""
        from repro.core.sharding import ShardedIncrementalWalker

        params = self._params(seed=data.draw(st.integers(0, 500)))
        num_shards = data.draw(st.sampled_from([1, 2, 5]))

        def built(on_graph):
            walker = ShardedIncrementalWalker(
                on_graph, num_shards, params=params)
            walker.build()
            return walker

        with _serial_pool(8):
            walker = built(graph)
            for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                top = walker.graph.n_nodes + 1  # up to two new nodes per call
                walker.add_edges(data.draw(st.lists(
                    st.tuples(st.integers(0, top), st.integers(0, top)),
                    min_size=1, max_size=4)))
        reference = built(DiGraph(walker.graph.n_nodes, walker.graph.edge_array()))
        assert walker.graph == reference.graph
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(walker.system, name),
                                  getattr(reference.system, name)), name
        assert walker.system.has_sorted_indices
        assert np.count_nonzero(walker.system.data) == len(walker.system.data)
        assert walker.index.diagonal.tobytes() == reference.index.diagonal.tobytes()


    @given(graphs(max_nodes=14, max_edges=50), st.data())
    def test_update_tasks_partition_the_estimated_rows(self, graph, data):
        """Whatever the graph, K, worker count and edge batch, an update's
        row tasks are ``sorted(estimated)[k::S]``, ``S = min(K, workers)``,
        with empty tasks dropped: every estimated row lands in exactly one
        task, sizes differing by at most one."""
        from repro.core import sharding
        from repro.core.sharding import ShardedIncrementalWalker

        params = self._params(seed=data.draw(st.integers(0, 500)))
        num_shards = data.draw(st.sampled_from([1, 2, 3, 5, 8]))
        workers = data.draw(st.sampled_from([1, 2, 8]))
        stride = min(num_shards, workers)
        walker = ShardedIncrementalWalker(graph, num_shards, params=params)
        walker.build()
        runs = []
        real = sharding.run_shard_tasks

        def recording(backend, tasks):
            runs.append([list(tasks[task].args[1]) for task in sorted(tasks)])
            return real(backend, tasks)

        top = graph.n_nodes + 1
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, top), st.integers(0, top)),
            min_size=1, max_size=4))
        with mock.patch.object(sharding, "run_shard_tasks", recording), \
                _serial_pool(workers):
            result = walker.add_edges(edges)
        if result is None or not result.estimated:
            assert runs == []
            return
        rows = sorted(result.estimated)
        [tasks] = runs
        assert tasks == [rows[k::stride]
                         for k in range(min(stride, len(rows)))]
        assert sorted(row for task in tasks for row in task) == rows
        sizes = [len(task) for task in tasks]
        assert max(sizes) - min(sizes) <= 1


# --------------------------------------------------------------------------- #
# Snapshot round trips
# --------------------------------------------------------------------------- #
class TestSnapshotRoundTripProperties:
    """A lineage version restores the writer exactly: after any run of
    edge batches at any shard count, each saved as it happens,
    ``from_snapshot`` at any shard count gives the writer's system and
    diagonal byte for byte (dtypes included), its version and answers.
    """

    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    @settings(max_examples=10)
    @given(graph=graphs(max_nodes=14, max_edges=50), data=st.data())
    def test_from_snapshot_restores_the_writer_bitwise(
            self, tmp_path_factory, num_shards, graph, data):
        from repro.config import ShardingParams
        from repro.service import TopKQuery

        params = TestShardingProperties._params(
            seed=data.draw(st.integers(0, 500)))
        directory = tmp_path_factory.mktemp("lineage")
        with _serial_pool(8):
            writer = QueryService.build(
                graph, params, ServiceParams(cache_capacity=0),
                sharding=ShardingParams(num_shards=num_shards))
            for _ in range(data.draw(st.integers(1, 4))):
                top = writer.graph.n_nodes      # may grow the graph by one node
                writer.add_edges(data.draw(st.lists(
                    st.tuples(st.integers(0, top), st.integers(0, top)),
                    min_size=1, max_size=3)))
                writer.save_snapshot(directory)
                queries = [TopKQuery(node, k=4)
                           for node in range(min(writer.graph.n_nodes, 3))]
                restart = ShardingParams(
                    num_shards=data.draw(st.sampled_from([1, 2, 5])))
                with QueryService.from_snapshot(
                        writer.graph, directory, sharding=restart,
                        service_params=ServiceParams(cache_capacity=0)) as restored:
                    for name in ("indptr", "indices", "data"):
                        ours = getattr(restored._walker.system, name)
                        theirs = getattr(writer._walker.system, name)
                        assert ours.dtype == theirs.dtype, name
                        assert ours.tobytes() == theirs.tobytes(), name
                    assert restored.index.diagonal.tobytes() == \
                        writer.index.diagonal.tobytes()
                    assert restored.index_version == writer.index_version
                    TestShardingProperties._assert_equal(
                        writer.run_batch(queries), restored.run_batch(queries))
            writer.close()


# --------------------------------------------------------------------------- #
# Where the misses are walked
# --------------------------------------------------------------------------- #
class TestScatterGrainProperties:
    """Where a batch's misses are walked never changes an answer.

    The same drawn run of batches and edge insertions is replayed on the
    ``serial`` backend (always inline) and on a serial backend that splits
    work like a pool of two to four workers (:func:`_serial_pool`) at three
    grains: one walker-step (every batch of two or more misses crosses to
    the pool), the default :data:`repro.service.sharded.SCATTER_GRAIN`,
    and a grain no batch reaches (every batch inline).  Every answer must
    be byte-equal to the serial replay's.
    """

    GRAINS = (1, None, 10 ** 15)    # None: the module default

    @staticmethod
    def _draw_batch(data, n_nodes):
        from repro.service import TopKQuery

        node = st.integers(0, n_nodes - 1)
        query = st.one_of(st.builds(PairQuery, node, node),
                          st.builds(SourceQuery, node),
                          st.builds(TopKQuery, node, st.integers(1, 5)))
        queries = data.draw(st.lists(query, min_size=1, max_size=8))
        # Duplicate sources within the batch, as traffic repeats them.
        return queries + data.draw(st.lists(st.sampled_from(queries),
                                            max_size=4))

    @staticmethod
    def _replay(graph, params, steps, backend, workers, grain):
        import repro.service.sharded as sharded

        grain = sharded.SCATTER_GRAIN if grain is None else grain
        replies = []
        with mock.patch.object(sharded, "SCATTER_GRAIN", grain), \
                _serial_pool(workers), \
                QueryService.build(graph, params, ServiceParams(
                    serve_backend=backend, serve_workers=workers)) as service:
            for kind, payload in steps:
                if kind == "add":
                    service.add_edges(payload)
                else:
                    replies.append(service.run_batch(payload))
            return replies, service.stats()["scatter_hops"]

    @staticmethod
    def _assert_byte_equal(reference, replies):
        assert len(replies) == len(reference)
        for expected, got in zip(reference, replies):
            assert got.index_version == expected.index_version
            assert len(got) == len(expected)
            for left, right in zip(expected, got):
                if isinstance(left, np.ndarray):
                    assert left.dtype == right.dtype
                    assert left.tobytes() == right.tobytes()
                else:   # repr round-trips a float exactly
                    assert repr(left) == repr(right)

    @settings(max_examples=12)
    @given(graph=graphs(max_nodes=14, max_edges=40), data=st.data())
    def test_answers_byte_equal_across_grains_and_backends(self, graph, data):
        params = TestShardingProperties._params(
            seed=data.draw(st.integers(0, 500)))
        # One operating point per service: the walker count is drawn once.
        params = params.with_(query_walkers=data.draw(
            st.sampled_from([params.query_walkers, 25, 300])))
        workers = data.draw(st.integers(2, 4))
        node = st.integers(0, graph.n_nodes - 1)
        steps = []
        for _ in range(data.draw(st.integers(1, 4))):
            if steps and data.draw(st.booleans()):
                steps.append(("add", data.draw(st.lists(
                    st.tuples(node, node), min_size=1, max_size=3))))
            steps.append(("batch", self._draw_batch(data, graph.n_nodes)))
        reference, hops = self._replay(graph, params, steps, "serial", 1,
                                       None)
        assert hops == 0
        for grain in self.GRAINS:
            replies, hops = self._replay(graph, params, steps, "serial",
                                         workers, grain)
            self._assert_byte_equal(reference, replies)
            if grain == self.GRAINS[-1]:
                assert hops == 0
