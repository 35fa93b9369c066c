"""Sharded index construction and maintenance.

The paper's whole point is SimRank at cluster scale: the indexing linear
system is estimated row-by-row across workers, the solve is a scatter-gather
Jacobi iteration, and the online phase serves from the gathered result.
This module reproduces that shape for the offline phase:

* :class:`ShardedIncrementalWalker` — the one index maintainer — splits
  the sorted rows it estimates into ``S = min(K, workers)`` strided tasks
  (``rows[k::S]``, ``K = 1`` by default) and runs them through an
  :mod:`engine executor <repro.engine.executor>` backend: concurrently on
  a process pool, and as one task on ``serial``, where splitting buys no
  concurrency and pays per-task kernel setup;
* the tasks' row sets are *gathered* into one linear system and solved
  with ``L`` cold-started Jacobi sweeps;
* an edge insertion re-runs the same computation on the affected rows
  only, and reports what it did as a :class:`MutationResult`.

Determinism is inherited, not re-proven: every row is estimated from its own
``(seed, source)`` random stream (:func:`repro.core.linear_system.
build_rows`), so the gathered system — and therefore the solved
diagonal — is **bitwise-identical** to a from-scratch
:func:`repro.core.diagonal.build_diagonal_index` for any ``K`` and any
executor backend.  The same argument covers incremental updates: only the
rows an edge insertion can change re-estimate, and the spliced system is
bitwise-equal to a from-scratch build on the updated graph (see
``docs/sharding.md`` for the full proof sketch).

Example
-------
>>> from repro.config import SimRankParams
>>> from repro.graph import generators
>>> from repro.core.sharding import ShardedIncrementalWalker
>>> graph = generators.copying_model_graph(80, out_degree=4, seed=3)
>>> walker = ShardedIncrementalWalker(
...     graph, num_tasks=4, params=SimRankParams.fast_defaults())
>>> index = walker.build()
>>> index.n_nodes
80
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar,
)

import numpy as np
from scipy import sparse

from repro.config import ShardingParams, SimRankParams
from repro.core import linear_system, walks
from repro.core.index import BuildInfo, DiagonalIndex
from repro.core.jacobi import jacobi_solve, relative_residual
from repro.engine.executor import (
    ExecutorBackend,
    ResidentHandle,
    SerialBackend,
    make_backend,
    resolve_resident,
)
from repro.errors import ConfigurationError
from repro.graph import frontier
from repro.graph.digraph import DiGraph

Triplets = Tuple[np.ndarray, np.ndarray, np.ndarray]

T = TypeVar("T")


def _timed_task(task: Callable[[], T]) -> Tuple[T, float]:
    """Run one task and measure its wall-clock (module-level: picklable)."""
    start = time.perf_counter()
    return task(), time.perf_counter() - start


def run_shard_tasks(
    backend: ExecutorBackend, tasks: Dict[int, Callable[[], T]]
) -> Dict[int, Tuple[T, float]]:
    """Scatter tasks through ``backend``; gather with timings.

    This is the one fan-out primitive shared by the offline and online
    phases: :class:`ShardedIncrementalWalker` runs its row-estimation tasks
    through it at build/update time, and
    :func:`repro.service.sharded.simulate_misses` runs a batch's cache-miss
    walk simulation through it at query time.  ``tasks`` maps
    task id to a zero-argument callable; tasks are submitted in ascending
    id order (so a serial backend reproduces the historical sequential
    loop exactly) and each result is returned as ``(value, seconds)`` —
    the per-task wall-clock the spine benchmark's tracer
    (``benchmarks/spine/spans.py``) reads as worker seconds.

    For the ``processes`` backend every task must be picklable: build each
    from module-level functions via :func:`functools.partial`, as
    :func:`estimate_shard_rows` and the service's scatter payloads do.
    """
    shard_ids = sorted(tasks)
    outcomes = backend.run(
        [partial(_timed_task, tasks[shard]) for shard in shard_ids]
    )
    return dict(zip(shard_ids, outcomes))


def estimate_shard_rows(
    handle: ResidentHandle, nodes: Sequence[int], params: SimRankParams
) -> Triplets:
    """Estimate one task's rows of the indexing system ``A x = 1``.

    This is the unit of distributed work: a worker holding the graph and the
    task's node list produces their COO triplets, independently of every
    other task (per-source random streams).  Module-level so the
    ``processes`` executor backend can pickle it.

    The task ships the graph's :class:`~repro.engine.executor.
    ResidentHandle` plus its node list — O(nodes) bytes,
    independent of graph size: a plain reference on ``serial``, and on
    ``processes`` the worker materialises the graph once per
    residency epoch from shared memory
    (:func:`repro.engine.executor.resolve_resident`).  The restored graph's
    CSR arrays are byte-for-byte the registering process's, so the rows do
    not depend on where the task ran.
    """
    return linear_system.build_rows(
        resolve_resident(handle), list(nodes), params)


def gather_shard_rows(
    shard_triplets: Sequence[Triplets], n_nodes: int
) -> sparse.csr_matrix:
    """Gather the tasks' row triplets into one CSR system matrix.

    Tasks own disjoint row sets, so the gather is a pure concatenation —
    no summation across tasks — and the resulting matrix is
    bitwise-identical to estimating all rows in one call (each row's values
    depend only on its own ``(seed, source)`` stream).  A single task's
    triplets (one row, or K = 1) are used as they are, without a
    concatenated copy.
    """
    if not shard_triplets:
        return sparse.csr_matrix((n_nodes, n_nodes), dtype=np.float64)
    rows, cols, values = (
        parts[0] if len(parts) == 1 else np.concatenate(parts)
        for parts in zip(*shard_triplets)
    )
    return sparse.csr_matrix(
        (values, (rows, cols)), shape=(n_nodes, n_nodes), dtype=np.float64
    )


PHASES = ("graph_seconds", "routing_seconds", "rows_seconds",
          "splice_seconds", "solve_seconds")
"""The :class:`MutationResult` fields that partition its ``update_seconds``
(back-to-back stopwatch readings of :meth:`ShardedIncrementalWalker.
add_edges`, in this order)."""


@dataclass(frozen=True)
class MutationResult:
    """Outcome of one applied (possibly batched) edge insertion.

    Attributes
    ----------
    edges_added:
        Number of *new* edges the update inserted (edges the graph already
        had, and duplicates within the batch, are dropped first).
    new_nodes:
        Nodes the update introduced (edge endpoints beyond the old
        ``n_nodes``).
    affected:
        The affected-source set: every node whose walk distributions — and
        therefore cached entries and index row — may have changed (the
        forward ball of radius ``T`` around the new edges' heads).  New
        nodes are included.  It drives cache invalidation.
    estimated:
        The index rows the update actually re-estimated: the affected rows
        whose stored support contains a head of a new edge, plus every new
        node — a subset of ``affected``
        (:meth:`ShardedIncrementalWalker.add_edges` says why the other
        affected rows are already exact).
    update_seconds:
        Wall-clock cost of the incremental re-index.
    routing_seconds:
        The slice of ``update_seconds`` spent computing the affected set
        (:func:`repro.core.walks.forward_reachable_set`) and the rows to
        re-estimate.
    graph_seconds, rows_seconds, splice_seconds, solve_seconds:
        The other phases — merging the edges into the graph, re-estimating
        the ``estimated`` rows, splicing them into the linear system, the
        Jacobi re-solve.  With ``routing_seconds`` they add up to
        ``update_seconds`` (:data:`PHASES`).
    """

    edges_added: int
    new_nodes: int
    affected: frozenset
    estimated: frozenset
    update_seconds: float
    routing_seconds: float
    graph_seconds: float
    rows_seconds: float
    splice_seconds: float
    solve_seconds: float

    @property
    def affected_rows(self) -> int:
        """Size of the affected set (the rows whose caches were dropped)."""
        return len(self.affected)

    @property
    def estimated_rows(self) -> int:
        """Number of index rows the update re-estimated."""
        return len(self.estimated)


def _choose_rows(mask: np.ndarray, when_true: sparse.csr_matrix,
                 when_false: sparse.csr_matrix) -> sparse.csr_matrix:
    """Row ``i`` of ``when_true`` where ``mask[i]``, of ``when_false`` elsewhere.

    Assembled directly from the operands' ``indptr/indices/data``: each
    maximal run of rows taken from one operand is one contiguous slice of
    its arrays, copied whole, so the cost is a copy per run — not a gather
    over every non-zero.  Whole rows are copied in order, so two canonical
    CSR operands (sorted column indices, no explicit zeros) give a
    canonical result.  The result is square with ``len(mask)`` rows; an
    operand with fewer rows (the system before the graph grew) counts as
    empty from there on.
    """
    n = len(mask)
    true_counts, false_counts = np.zeros((2, n), dtype=np.int64)
    true_counts[:when_true.shape[0]] = np.diff(when_true.indptr)
    false_counts[:when_false.shape[0]] = np.diff(when_false.indptr)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(mask, true_counts, false_counts), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=when_true.indices.dtype)
    data = np.empty(indptr[-1], dtype=np.float64)
    # Maximal runs [lo, hi) of equal mask values.
    lo = np.flatnonzero(np.diff(mask.astype(np.int8), prepend=np.int8(-1)))
    hi = np.append(lo, n)[1:]
    for operand, runs in ((when_true, mask[lo]), (when_false, ~mask[lo])):
        first, last = (np.minimum(bound[runs], operand.shape[0])
                       for bound in (lo, hi))
        for begin, end, at in zip(operand.indptr[first].tolist(),
                                  operand.indptr[last].tolist(),
                                  indptr[first].tolist()):
            indices[at:at + end - begin] = operand.indices[begin:end]
            data[at:at + end - begin] = operand.data[begin:end]
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


class ShardedIncrementalWalker:
    """The index maintainer: builds a CloudWalker index in row tasks and
    keeps it current across edge insertions.

    The offline phase is one computation — estimate each row of ``A`` from
    that node's own walks, then run ``L`` Jacobi sweeps from ``1 - c`` —
    and an update re-runs it on the rows it can change only:

    1. keep the assembled linear system ``A`` from the last build;
    2. on :meth:`add_edges`, compute the affected source set by a bounded
       forward BFS from the new edges' heads (an insertion ``u -> v`` only
       changes the reverse walks of nodes ``v`` reaches within ``T`` steps);
    3. re-estimate only the affected rows whose stored support holds a
       head, plus the new nodes: :meth:`_build_rows` splits them into at
       most ``min(num_tasks, backend.max_workers)`` strided
       :func:`estimate_shard_rows` tasks and runs them through the
       executor backend;
    4. splice them into ``A`` and re-solve from the cold start a build uses.

    Every row reads its own ``(seed, source)`` random stream
    (:func:`repro.core.linear_system.build_rows`), so the maintained system
    and diagonal are **bitwise-identical** to a from-scratch
    :func:`repro.core.diagonal.build_diagonal_index` on the current graph,
    for any ``K`` and backend (``docs/sharding.md``).

    Parameters
    ----------
    graph:
        Initial graph (replaced by updates; read the current one from
        :attr:`graph`).
    num_tasks:
        ``K``: the most row tasks one build or update runs (default 1).
        With ``S = min(K, backend.max_workers)`` the sorted rows go out as
        ``rows[k::S]``, empty tasks dropped, so the tasks differ in row
        count by at most one; on ``serial`` that is one task.
    params:
        Algorithmic parameters, shared by the build and all updates.
    exact:
        Use exact walk distributions instead of Monte-Carlo (small graphs;
        the exact system is built in one pass, not sharded, and makes
        updates exactly equal to exact rebuilds, which tests exploit).
    backend:
        Executor backend running the row tasks (default serial).
        The graph is registered on the backend's resident registry before
        each fan-out (see :meth:`repro.engine.executor.ExecutorBackend.
        ensure_resident`) and tasks ship its handle: ``processes`` workers
        materialise it once per epoch from shared memory.  Identity-keyed:
        a live update's new graph starts a new residency epoch
        automatically.

    Attributes
    ----------
    shard_build_seconds:
        Wall-clock of each task of the most recent row estimation, indexed
        by task id (the ``index`` CLI reports the slowest).
    """

    shard_build_seconds: Dict[int, float]

    def __init__(
        self,
        graph: DiGraph,
        num_tasks: int = 1,
        params: Optional[SimRankParams] = None,
        exact: bool = False,
        backend: Optional[ExecutorBackend] = None,
    ) -> None:
        if num_tasks < 1:
            raise ConfigurationError(f"num_tasks must be >= 1, got {num_tasks}")
        self.graph = graph
        self.num_tasks = int(num_tasks)
        self.params = params or SimRankParams.paper_defaults()
        self.exact = exact
        self.backend = backend or SerialBackend()
        self._system: Optional[sparse.csr_matrix] = None
        self.index: Optional[DiagonalIndex] = None
        self.shard_build_seconds: Dict[int, float] = {}

    # ------------------------------------------------------------------ #
    def build(self) -> DiagonalIndex:
        """Initial full build (also callable to force a rebuild)."""
        start = time.perf_counter()
        self._system = self._build_rows(self.graph, np.arange(self.graph.n_nodes))
        self.index = self._solve(self.graph, self._system,
                                 seconds_so_far=time.perf_counter() - start,
                                 update_kind="full-build",
                                 affected=self.graph.n_nodes,
                                 estimated=self.graph.n_nodes)
        return self.index

    def attach(self, index: DiagonalIndex,
               system: Optional[sparse.csr_matrix] = None) -> None:
        """Adopt an existing index (and optionally its linear system).

        Lets a maintainer take over an index that was built elsewhere — a
        cold-started query service, or a snapshot reloaded from disk — so
        :meth:`add_edges` can update it incrementally.  If ``system`` is not
        given (the index file does not carry it), the linear system for the
        *current* graph is estimated now; this one-time cost is comparable
        to a rebuild, which is exactly why snapshots persist the system
        alongside the diagonal (see
        :meth:`repro.core.index.SnapshotStore.save_snapshot`).
        """
        index.validate_for(self.graph)
        if system is not None:
            if system.shape != (self.graph.n_nodes, self.graph.n_nodes):
                raise ConfigurationError(
                    f"system has shape {system.shape} but the graph has "
                    f"{self.graph.n_nodes} nodes"
                )
            system = system.tocsr()
            if not system.has_canonical_format or (
                    np.count_nonzero(system.data) < system.nnz):
                # add_edges copies kept rows verbatim, so they must already
                # be the canonical CSR a build produces (on a copy: the
                # caller's matrix is not ours to reorder).
                system = system.copy()
                system.sum_duplicates()
                system.eliminate_zeros()
            self._system = system
        else:
            self._system = self._build_rows(self.graph,
                                            np.arange(self.graph.n_nodes))
        self.index = index

    @property
    def system(self) -> Optional[sparse.csr_matrix]:
        """The maintained linear system ``A`` (None before build/attach)."""
        return self._system

    def _build_rows(self, graph: DiGraph,
                    sources: np.ndarray) -> sparse.csr_matrix:
        """Estimate the ascending ``sources`` rows in at most
        ``min(num_tasks, backend.max_workers)`` strided tasks through the
        executor backend."""
        if self.exact:
            # The exact system is assembled from one sparse matrix power
            # sweep — there is nothing row-independent to fan out.
            mask = np.zeros(graph.n_nodes, dtype=bool)
            mask[sources] = True
            return _choose_rows(mask, linear_system.build_exact_system(
                graph, self.params), sparse.csr_matrix((0, 0)))
        if not len(sources):
            return gather_shard_rows([], graph.n_nodes)
        # Register (or re-register after an update: `graph` is a new
        # object, hence a new epoch) so each task ships a handle plus its
        # node list instead of the whole graph.
        handle = self.backend.ensure_resident("graph", graph)
        rows: List[int] = sources.tolist()
        stride = min(self.num_tasks, self.backend.max_workers)
        tasks = {
            task: partial(estimate_shard_rows, handle, rows[task::stride],
                          self.params)
            for task in range(min(stride, len(rows)))
        }
        outcomes = run_shard_tasks(self.backend, tasks)
        self.shard_build_seconds = {
            task: seconds for task, (_triplets, seconds) in outcomes.items()}
        return gather_shard_rows(
            [outcomes[task][0] for task in sorted(outcomes)], graph.n_nodes
        )

    def _solve(self, graph: DiGraph, system: sparse.csr_matrix,
               seconds_so_far: float, update_kind: str,
               affected: int, estimated: int) -> DiagonalIndex:
        rhs = np.ones(graph.n_nodes, dtype=np.float64)
        start = time.perf_counter()
        if graph.n_nodes == 0:
            x = np.zeros(0, dtype=np.float64)
            residual = float("nan")
        else:
            # Only the last residual is reported, so it is computed once
            # rather than after every sweep (none after zero sweeps).
            x = jacobi_solve(
                system, rhs, iterations=self.params.jacobi_iterations,
                initial=np.full(graph.n_nodes, 1.0 - self.params.c),
                track_residuals=False,
            ).x
            residual = (relative_residual(system, x, rhs)
                        if self.params.jacobi_iterations else float("inf"))
        solve_seconds = time.perf_counter() - start
        build_info = BuildInfo(
            execution_model="incremental",
            monte_carlo_seconds=seconds_so_far,
            solve_seconds=solve_seconds,
            total_seconds=seconds_so_far + solve_seconds,
            jacobi_residual=residual,
            system_nnz=int(system.nnz),
            extras={"update_kind": update_kind, "affected_rows": affected,
                    "estimated_rows": estimated},
        )
        return DiagonalIndex(
            diagonal=x, params=self.params, graph_name=graph.name,
            n_nodes=graph.n_nodes, n_edges=graph.n_edges, build_info=build_info,
        )

    # ------------------------------------------------------------------ #
    def add_edges(self, new_edges: Sequence[Tuple[int, int]]
                  ) -> Optional[MutationResult]:
        """Insert edges and update the index incrementally.

        Returns the :class:`MutationResult` — the affected source set
        (which the query service turns into its cache-invalidation set),
        the rows actually re-estimated and the update cost by phase; the
        new graph and index are available as :attr:`graph` / :attr:`index`.
        Edges the graph already has are ignored, and a batch with no new
        edge returns None without touching anything.

        Of the affected ball only the rows whose walks stood on a head
        re-estimate, plus every new node; the rest keep their old rows
        byte for byte, and those are exactly the rows a from-scratch build
        on the new graph estimates:

        * :meth:`DiGraph.with_edges` changes only the heads' in-lists;
        * a row's walks read one uniform per *moving* walker per step from
          the row's own ``(seed, source)`` stream, so a row none of whose
          walkers stood on a head at a step ``< T`` replays the same
          trajectories — and the same draws — on the new graph;
        * a row's stored support is the union of the nodes its walks
          visited at steps ``0..T``: every stored value is at least
          ``c^T / W^2 > 0``, so no visit is missing.  The test also sees
          step-``T`` visits, which only makes it conservative.

        The same holds for the exact system, whose rows depend on the same
        in-lists.  The re-estimated rows go out as at most
        ``min(num_tasks, backend.max_workers)`` tasks, so a one-row update
        runs one task.
        """
        if self.index is None or self._system is None:
            raise ConfigurationError("call build() or attach() before add_edges()")
        # Only edges the graph does not have yet change anything: heads of
        # re-inserted edges must not widen the ball, and an all-present
        # batch must leave graph, system, index and random streams alone.
        old_n = self.graph.n_nodes
        fresh = list(dict.fromkeys(
            (u, v) for u, v in ((int(u), int(v)) for u, v in new_edges)
            if not (0 <= u < old_n and 0 <= v < old_n and self.graph.has_edge(u, v))
        ))
        if not fresh:
            return None

        start = time.perf_counter()
        new_graph = self.graph.with_edges(fresh)
        new_n = new_graph.n_nodes

        routing_start = time.perf_counter()
        heads = {v for _u, v in fresh}
        affected = walks.forward_reachable_set(
            new_graph, heads, self.params.walk_steps)
        affected.update(range(old_n, new_n))
        estimated = self._rows_to_estimate(affected, heads, old_n, new_n)
        rows_start = time.perf_counter()

        fresh_rows = self._build_rows(new_graph, estimated)
        splice_start = time.perf_counter()

        # Splice: re-estimated rows (every new node among them) from the
        # fresh estimate, all others from the old system.  Both are
        # canonical CSR, so the result is too — the arrays a from-scratch
        # build produces, which keeps the solver's summation order, and
        # hence the solved diagonal, bitwise reproducible.
        replaced = np.zeros(new_n, dtype=bool)
        replaced[estimated] = True
        system = _choose_rows(replaced, fresh_rows, self._system)

        # Cold start, exactly like build(): same guess -> same iterates.
        solve_start = time.perf_counter()
        index = self._solve(
            new_graph, system, seconds_so_far=solve_start - start,
            update_kind="incremental-add-edges", affected=len(affected),
            estimated=len(estimated),
        )
        end = time.perf_counter()
        edges_added = new_graph.n_edges - self.graph.n_edges
        self.graph, self._system, self.index = new_graph, system, index
        return MutationResult(
            edges_added=edges_added,
            new_nodes=new_n - old_n,
            affected=frozenset(affected),
            estimated=frozenset(estimated.tolist()),
            update_seconds=end - start,
            graph_seconds=routing_start - start,
            routing_seconds=rows_start - routing_start,
            rows_seconds=splice_start - rows_start,
            splice_seconds=solve_start - splice_start,
            solve_seconds=end - solve_start,
        )

    def _rows_to_estimate(self, affected: Set[int], heads: Set[int],
                          old_n: int, new_n: int) -> np.ndarray:
        """The rows :meth:`add_edges` re-estimates, ascending: the affected
        old rows whose stored support holds an old head, then the new nodes.
        """
        ball = np.fromiter(affected, dtype=np.int64, count=len(affected))
        rows = np.sort(ball[ball < old_n])
        # One gather of the rows' stored columns, tagged with their row.
        positions, lengths = frontier.row_slots(self._system.indptr, rows)
        owner = np.repeat(np.arange(len(rows)), lengths)
        old_heads = np.fromiter((v for v in heads if v < old_n), dtype=np.int64)
        hit = np.unique(owner[np.isin(self._system.indices[positions],
                                      old_heads)])
        return np.concatenate([rows[hit], np.arange(old_n, new_n)])

    def __repr__(self) -> str:
        return (
            f"ShardedIncrementalWalker(n_nodes={self.graph.n_nodes}, "
            f"num_tasks={self.num_tasks}, backend={self.backend!r})"
        )


def build_sharded_index(
    graph: DiGraph,
    sharding: ShardingParams,
    params: Optional[SimRankParams] = None,
) -> Tuple[DiagonalIndex, ShardedIncrementalWalker]:
    """Build a CloudWalker index with a sharded, concurrent offline phase.

    Returns ``(index, walker)``; the index is bitwise-identical to a
    single-task build with the same ``params``, and the walker retains the
    linear system (and per-task timings) for incremental updates or
    snapshotting.  This is the call behind ``python -m repro index
    --shards K``.
    """
    walker = ShardedIncrementalWalker(
        graph, sharding.num_shards, params=params,
        backend=make_backend(sharding.backend, max_workers=sharding.max_workers),
    )
    index = walker.build()
    return index, walker
