"""Tests for the sharded index build/maintenance machinery.

The load-bearing claims pinned here:

* a build split into ``K`` row tasks gathers a linear system — and
  therefore solves a diagonal — bitwise-identical to the one-task build,
  for every ``K`` and backend;
* incremental updates through the walker splice to the exact same system
  and diagonal as a from-scratch build on the updated graph;
* ``K`` only splits the sorted rows into ``S = min(K, workers)`` strided
  tasks (``rows[k::S]``): one on the serial backend.

Tests of the ``K``-way split run on :class:`_SerialPool`, a serial backend
that declares many workers, so ``K`` alone sets the task count while the
tasks still run back to back in process.
"""

import numpy as np
import pytest
from scipy import sparse

import repro.core.sharding as sharding_module
from repro.config import ShardingParams, SimRankParams
from repro.core.sharding import (
    ShardedIncrementalWalker,
    _choose_rows,
    build_sharded_index,
    estimate_shard_rows,
    gather_shard_rows,
)
from repro.core.walks import forward_reachable_set
from repro.engine.executor import ProcessBackend, SerialBackend
from repro.errors import ConfigurationError
from repro.graph import generators


class _SerialPool(SerialBackend):
    """A serial backend that splits work as a pool of ``max_workers``."""

    def __init__(self, max_workers: int = 256) -> None:
        super().__init__()
        self.max_workers = max_workers


@pytest.fixture(scope="module")
def params():
    return SimRankParams(c=0.6, walk_steps=5, jacobi_iterations=3,
                         index_walkers=40, query_walkers=200, seed=11)


@pytest.fixture(scope="module")
def graph():
    return generators.copying_model_graph(90, out_degree=4, seed=7)


@pytest.fixture(scope="module")
def reference(graph, params, from_scratch):
    """The from-scratch build the sharded walker must match bitwise."""
    return from_scratch(graph, params)


class TestTaskSplit:
    """``K`` caps the task count: the sorted rows go out as ``rows[k::S]``,
    ``S = min(K, workers)``."""

    @staticmethod
    def _record_tasks(monkeypatch):
        """Record the row list of every task the walker scatters."""
        runs = []
        real = sharding_module.run_shard_tasks

        def recording(backend, tasks):
            runs.append([tasks[task].args[1] for task in sorted(tasks)])
            return real(backend, tasks)

        monkeypatch.setattr(sharding_module, "run_shard_tasks", recording)
        return runs

    @pytest.mark.parametrize("num_tasks", [1, 2, 3, 4, 5, 8, 89, 90, 200])
    def test_build_tasks_are_strided_and_balanced(self, graph, params,
                                                  monkeypatch, num_tasks):
        runs = self._record_tasks(monkeypatch)
        walker = ShardedIncrementalWalker(graph, num_tasks, params=params,
                                          backend=_SerialPool())
        walker.build()
        rows = list(range(graph.n_nodes))
        [tasks] = runs
        assert tasks == [rows[k::num_tasks]
                         for k in range(min(num_tasks, graph.n_nodes))]
        sizes = [len(task) for task in tasks]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(walker.shard_build_seconds) == list(range(len(tasks)))

    @pytest.mark.parametrize("num_tasks", [1, 2, 8])
    def test_one_row_update_runs_one_task(self, graph, params, monkeypatch,
                                          num_tasks):
        walker = ShardedIncrementalWalker(graph, num_tasks, params=params,
                                          backend=_SerialPool())
        walker.build()
        runs = self._record_tasks(monkeypatch)
        # A new sink node: its ball is itself, so one row re-estimates.
        result = walker.add_edges([(3, graph.n_nodes)])
        assert result.estimated == frozenset({graph.n_nodes})
        assert runs == [[[graph.n_nodes]]]
        assert list(walker.shard_build_seconds) == [0]

    @pytest.mark.parametrize("num_tasks", [1, 2, 3, 8])
    def test_update_tasks_are_strided_over_the_estimated_rows(
            self, graph, params, monkeypatch, num_tasks):
        walker = ShardedIncrementalWalker(graph, num_tasks, params=params,
                                          backend=_SerialPool())
        walker.build()
        runs = self._record_tasks(monkeypatch)
        result = walker.add_edges([(0, 30), (2, 95)])
        rows = sorted(result.estimated)
        [tasks] = runs
        assert tasks == [rows[k::num_tasks]
                         for k in range(min(num_tasks, len(rows)))]
        assert len(tasks) == len(walker.shard_build_seconds)

    @pytest.mark.parametrize("workers,num_tasks", [
        (1, 1), (1, 4), (1, 90), (3, 2), (3, 8), (3, 200)])
    def test_tasks_are_capped_at_the_backends_workers(
            self, graph, params, reference, monkeypatch, workers, num_tasks):
        """More tasks than workers buy no concurrency, so a build runs
        ``min(K, workers)`` of them: on the serial backend (one worker)
        one task for any ``K``, and the same index."""
        runs = self._record_tasks(monkeypatch)
        backend = SerialBackend() if workers == 1 else _SerialPool(workers)
        walker = ShardedIncrementalWalker(graph, num_tasks, params=params,
                                          backend=backend)
        walker.build()
        stride = min(num_tasks, workers)
        rows = list(range(graph.n_nodes))
        assert runs == [[rows[k::stride] for k in range(stride)]]
        assert len(walker.shard_build_seconds) == stride
        assert walker.index.diagonal.tobytes() == \
            reference.index.diagonal.tobytes()

    @pytest.mark.parametrize("num_tasks", [0, -1])
    def test_invalid_task_count(self, graph, params, num_tasks):
        with pytest.raises(ConfigurationError, match="num_tasks"):
            ShardedIncrementalWalker(graph, num_tasks, params=params)
        with pytest.raises(ConfigurationError):
            ShardingParams(num_shards=num_tasks)


class TestShardedBuild:
    # 90 and 120 reach and pass the graph's 90 rows: one row per task.
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5, 6, 7, 8, 90, 120])
    def test_build_bitwise_identical(self, graph, params, reference,
                                     num_shards):
        walker = ShardedIncrementalWalker(graph, num_shards, params=params,
                                          backend=_SerialPool())
        index = walker.build()
        assert np.array_equal(index.diagonal, reference.index.diagonal)
        assert (walker.system - reference.system).nnz == 0
        assert len(walker.shard_build_seconds) == min(num_shards,
                                                      graph.n_nodes)

    def test_process_backend_identical(self, graph, params, reference):
        # A process pool too, its workers materialising the graph from
        # shared memory: K = 4 on two workers runs two tasks.
        with ProcessBackend(max_workers=2) as backend:
            walker = ShardedIncrementalWalker(
                graph, 4, params=params, backend=backend,
            )
            index = walker.build()
        assert sorted(walker.shard_build_seconds) == [0, 1]
        assert np.array_equal(index.diagonal, reference.index.diagonal)
        assert (walker.system - reference.system).nnz == 0

    def test_gather_matches_monolithic_estimation(self, graph, params):
        handle = SerialBackend().ensure_resident("graph", graph)
        rows = list(range(graph.n_nodes))
        triplets = [estimate_shard_rows(handle, rows[task::3], params)
                    for task in range(3)]
        gathered = gather_shard_rows(triplets, graph.n_nodes)
        from repro.core import linear_system
        rows, cols, values = linear_system.build_rows(
            graph, range(graph.n_nodes), params
        )
        full = sparse.csr_matrix((values, (rows, cols)),
                                 shape=(graph.n_nodes, graph.n_nodes))
        assert (gathered - full).nnz == 0

    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("exact", [False, True])
    def test_built_system_is_the_gathered_csr(self, graph, params, num_shards,
                                              exact):
        """``build()`` keeps the gathered CSR as it is: canonical, and
        byte-equal (arrays and dtypes) to gathering the same rows."""
        from repro.core import linear_system

        walker = ShardedIncrementalWalker(graph, num_shards, params=params,
                                          exact=exact, backend=_SerialPool())
        walker.build()
        if exact:
            exact_system = linear_system.build_exact_system(graph, params).tocoo()
            triplets = [(exact_system.row, exact_system.col, exact_system.data)]
        else:
            handle = SerialBackend().ensure_resident("graph", graph)
            rows = list(range(graph.n_nodes))
            triplets = [
                estimate_shard_rows(handle, rows[task::num_shards], params)
                for task in range(num_shards)
            ]
        expected = gather_shard_rows(triplets, graph.n_nodes)
        assert walker.system.has_canonical_format
        for name in ("indptr", "indices", "data"):
            ours, theirs = getattr(walker.system, name), getattr(expected, name)
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()

    def test_shard_build_timings_recorded(self, graph, params):
        walker = ShardedIncrementalWalker(graph, 3, params=params,
                                          backend=_SerialPool())
        walker.build()
        assert sorted(walker.shard_build_seconds) == [0, 1, 2]
        assert all(seconds >= 0.0 for seconds in walker.shard_build_seconds.values())

    def test_build_sharded_index_convenience(self, graph, params, reference):
        index, walker = build_sharded_index(
            graph, ShardingParams(num_shards=4), params=params
        )
        assert np.array_equal(index.diagonal, reference.index.diagonal)
        assert walker.num_tasks == 4


class TestShardedUpdates:
    @pytest.mark.parametrize("num_shards", [2, 4, 1, 3, 8])
    def test_add_edges_bitwise_identical(self, graph, params, num_shards,
                                         from_scratch):
        edges = [(0, 30), (2, 95), (95, 1)]  # includes node growth
        walker = ShardedIncrementalWalker(graph, num_shards, params=params,
                                          backend=_SerialPool())
        walker.build()
        result = walker.add_edges(edges)

        merged = graph.with_edges(edges)
        single = from_scratch(merged, params)
        assert result.affected == frozenset(forward_reachable_set(
            merged, {30, 95, 1}, params.walk_steps)) | {90, 91, 92, 93, 94, 95}
        assert np.array_equal(walker.index.diagonal, single.index.diagonal)
        assert (walker.system - single.system).nnz == 0
        # The re-estimated rows went out as at most K tasks.
        assert len(walker.shard_build_seconds) == min(num_shards,
                                                      result.estimated_rows)

    def test_attach_at_another_task_count_adopts_the_system_as_is(
            self, graph, params):
        # A walker at another task count takes over the maintained system
        # and index themselves (no re-estimation, no copy, no slicing), and
        # its updates are the original walker's bit for bit: K splits row
        # tasks, it does not shape the system.
        walker = ShardedIncrementalWalker(graph, 3, params=params,
                                          backend=_SerialPool())
        walker.build()
        walker.add_edges([(0, 30), (2, 95)])
        other = ShardedIncrementalWalker(walker.graph, 5, params=params,
                                         backend=_SerialPool())
        other.attach(walker.index, system=walker.system)
        assert other.system is walker.system
        assert other.index is walker.index
        walker.add_edges([(5, 40)])
        other.add_edges([(5, 40)])
        assert (other.system - walker.system).nnz == 0
        assert np.array_equal(other.index.diagonal, walker.index.diagonal)

    def test_add_edges_before_build_raises(self, graph, params):
        walker = ShardedIncrementalWalker(graph, 2, params=params)
        with pytest.raises(ConfigurationError, match="before add_edges"):
            walker.add_edges([(0, 1)])


class TestChooseRows:
    """The update splice: whole rows from one operand or the other."""

    def test_matches_a_dense_row_select(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            n = int(rng.integers(0, 10))
            # Either operand may have fewer rows (the pre-growth system):
            # rows past its end count as empty.
            operands = [sparse.random(int(rng.integers(0, n + 1)), n,
                                      density=0.4, format="csr",
                                      random_state=2 * trial + side)
                        for side in (0, 1)]
            dense = []
            for operand in operands:
                padded = np.zeros((n, n))
                padded[:operand.shape[0]] = operand.toarray()
                dense.append(padded)
            mask = rng.random(n) < rng.random()
            chosen = _choose_rows(mask, *operands)
            assert chosen.shape == (n, n)
            assert np.array_equal(chosen.toarray(),
                                  np.where(mask[:, None], *dense))
            assert chosen.has_sorted_indices
            assert np.count_nonzero(chosen.data) == chosen.nnz
