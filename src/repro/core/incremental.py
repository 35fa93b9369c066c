"""Incremental index maintenance under edge insertions.

The paper builds its index for a static snapshot; rebuilding from scratch
after every graph change would waste most of the Monte-Carlo work, because an
edge insertion ``u -> v`` only changes the reverse-walk distributions of the
nodes that can reach the walk through ``v`` — i.e. the nodes reachable from
``v`` along at most ``T`` forward edges.  This module implements that
observation as an incremental maintainer (a natural extension of the paper's
system; listed as such in ``docs/DESIGN.md``):

1. keep the assembled linear system ``A`` from the last build;
2. on ``add_edges``, compute the affected source set by a bounded forward
   BFS from the new edges' heads;
3. re-estimate only the affected rows of ``A`` (Monte-Carlo, same budget as
   the original build);
4. re-solve from the same cold-start guess a fresh build uses.

Every row is estimated from its own ``(seed, source)`` random stream
(:func:`repro.core.linear_system.build_rows`), so the updated index is
*bitwise-identical* to one built from scratch on the updated graph — by
this class or by :func:`repro.core.diagonal.build_diagonal_index` — see
``docs/architecture.md`` for the full versioning contract.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.config import SimRankParams
from repro.core import linear_system, walks
from repro.core.index import BuildInfo, DiagonalIndex
from repro.core.jacobi import jacobi_solve
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph


PHASES = ("graph_seconds", "routing_seconds", "rows_seconds",
          "splice_seconds", "solve_seconds")
"""Keys of :meth:`IncrementalCloudWalker.add_edges`'s summary that partition
its ``update_seconds`` (back-to-back stopwatch readings, in this order)."""


def _choose_rows(mask: np.ndarray, when_true: sparse.csr_matrix,
                 when_false: sparse.csr_matrix) -> sparse.csr_matrix:
    """Row ``i`` of ``when_true`` where ``mask[i]``, of ``when_false`` elsewhere.

    Assembled directly from the operands' ``indptr/indices/data`` — whole
    rows are copied in order, so two canonical CSR operands (sorted column
    indices, no explicit zeros) give a canonical result.  The result is
    square with ``len(mask)`` rows; an operand with fewer rows (the system
    before the graph grew) counts as empty from there on.
    """
    n = len(mask)
    true_counts, false_counts = np.zeros((2, n), dtype=np.int64)
    true_counts[:when_true.shape[0]] = np.diff(when_true.indptr)
    false_counts[:when_false.shape[0]] = np.diff(when_false.indptr)
    counts = np.where(mask, true_counts, false_counts)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    from_true = np.repeat(mask, counts)
    take_true = np.repeat(mask, true_counts)
    take_false = np.repeat(~mask, false_counts)
    indices = np.empty(indptr[-1], dtype=when_true.indices.dtype)
    data = np.empty(indptr[-1], dtype=np.float64)
    indices[from_true] = when_true.indices[take_true]
    indices[~from_true] = when_false.indices[take_false]
    data[from_true] = when_true.data[take_true]
    data[~from_true] = when_false.data[take_false]
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


class IncrementalCloudWalker:
    """Maintains a CloudWalker index across edge insertions.

    Parameters
    ----------
    graph:
        Initial graph.
    params:
        Algorithmic parameters (shared by the initial build and all updates).
    exact:
        Use exact walk distributions instead of Monte-Carlo (small graphs;
        makes incremental results exactly equal to full rebuilds, which the
        tests exploit).

    Rows are estimated from per-source random streams and every solve
    cold-starts from ``1 - c``, so an update leaves exactly the index a
    full rebuild on the updated graph would produce.
    """

    def __init__(self, graph: DiGraph, params: Optional[SimRankParams] = None,
                 exact: bool = False) -> None:
        self.graph = graph
        self.params = params or SimRankParams.paper_defaults()
        self.exact = exact
        self._system: Optional[sparse.csr_matrix] = None
        self.index: Optional[DiagonalIndex] = None

    # ------------------------------------------------------------------ #
    def build(self) -> DiagonalIndex:
        """Initial full build (also callable to force a rebuild)."""
        start = time.perf_counter()
        self._system = self._build_rows(self.graph, range(self.graph.n_nodes))
        self.index = self._solve(self.graph, self._system,
                                 seconds_so_far=time.perf_counter() - start,
                                 update_kind="full-build", affected=self.graph.n_nodes)
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
            self._system = self._build_rows(
                self.graph, range(self.graph.n_nodes)
            ).tocsr()
        self.index = index

    @property
    def system(self) -> Optional[sparse.csr_matrix]:
        """The maintained linear system ``A`` (None before build/attach)."""
        return self._system

    def _build_rows(self, graph: DiGraph, sources: Iterable[int]) -> sparse.csr_matrix:
        sources = list(sources)
        if self.exact:
            full = linear_system.build_exact_system(graph, self.params)
            mask = np.zeros(graph.n_nodes, dtype=bool)
            mask[sources] = True
            return _choose_rows(mask, full, sparse.csr_matrix((0, 0)))
        return linear_system.build_system(graph, self.params, sources)

    def _solve(self, graph: DiGraph, system: sparse.csr_matrix,
               seconds_so_far: float, update_kind: str,
               affected: int) -> DiagonalIndex:
        rhs = np.ones(graph.n_nodes, dtype=np.float64)
        start = time.perf_counter()
        if graph.n_nodes == 0:
            x = np.zeros(0, dtype=np.float64)
            residual = float("nan")
        else:
            solution = jacobi_solve(
                system, rhs, iterations=self.params.jacobi_iterations,
                initial=np.full(graph.n_nodes, 1.0 - self.params.c),
            )
            x = solution.x
            residual = solution.final_residual
        solve_seconds = time.perf_counter() - start
        build_info = BuildInfo(
            execution_model="incremental",
            monte_carlo_seconds=seconds_so_far,
            solve_seconds=solve_seconds,
            total_seconds=seconds_so_far + solve_seconds,
            jacobi_residual=residual,
            system_nnz=int(system.nnz),
            extras={"update_kind": update_kind, "affected_rows": affected},
        )
        return DiagonalIndex(
            diagonal=x, params=self.params, graph_name=graph.name,
            n_nodes=graph.n_nodes, n_edges=graph.n_edges, build_info=build_info,
        )

    # ------------------------------------------------------------------ #
    def add_edges(self, new_edges: Sequence[Tuple[int, int]]) -> Dict[str, object]:
        """Insert edges and update the index incrementally.

        Returns a summary dict with the number of affected rows, the
        affected source set itself (``"affected"``, which the query service
        turns into its cache-invalidation set) and the update cost; the new
        graph and index are available as :attr:`graph` / :attr:`index`.
        Edges the graph already has are ignored, and a batch with no new
        edge returns the zero-cost summary without touching anything.
        """
        if self.index is None or self._system is None:
            raise ConfigurationError("call build() or attach() before add_edges()")
        # Only edges the graph does not have yet change anything: heads of
        # re-inserted edges must not widen the ball, and an all-present
        # batch must leave graph, system, index and random streams alone.
        old_n = self.graph.n_nodes
        edges = [(int(u), int(v)) for u, v in new_edges]
        fresh = [
            (u, v) for u, v in edges
            if not (0 <= u < old_n and 0 <= v < old_n and self.graph.has_edge(u, v))
        ]
        if not fresh:
            return {"affected_rows": 0, "new_nodes": 0, "affected": frozenset(),
                    **dict.fromkeys(("update_seconds",) + PHASES, 0.0)}

        start = time.perf_counter()
        new_graph = self.graph.with_edges(fresh)
        new_n = new_graph.n_nodes

        routing_start = time.perf_counter()
        affected = walks.forward_reachable_set(
            new_graph, {v for _u, v in fresh}, self.params.walk_steps)
        affected.update(range(old_n, new_n))
        rows_start = time.perf_counter()

        # Re-estimate the affected rows on the new graph.
        affected_ids = sorted(affected)
        fresh_rows = self._build_rows(new_graph, affected_ids)
        splice_start = time.perf_counter()

        # Splice: affected rows (every new node among them) from the fresh
        # estimate, all others from the old system.  Both are canonical CSR,
        # so the result is too — the arrays a from-scratch build produces,
        # which keeps the solver's summation order, and hence the solved
        # diagonal, bitwise reproducible.
        is_affected = np.zeros(new_n, dtype=bool)
        is_affected[affected_ids] = True
        self._system = _choose_rows(is_affected, fresh_rows, self._system)

        # Cold start, exactly like build(): same guess -> same iterates.
        solve_start = time.perf_counter()
        self.graph = new_graph
        self.index = self._solve(
            new_graph, self._system,
            seconds_so_far=solve_start - start,
            update_kind="incremental-add-edges", affected=len(affected),
        )
        end = time.perf_counter()
        return {
            "affected_rows": len(affected),
            "affected_fraction": len(affected) / max(new_n, 1),
            "affected": frozenset(affected),
            "new_nodes": new_n - old_n,
            "update_seconds": end - start,
            "graph_seconds": routing_start - start,
            "routing_seconds": rows_start - routing_start,
            "rows_seconds": splice_start - rows_start,
            "splice_seconds": solve_start - splice_start,
            "solve_seconds": end - solve_start,
        }

    # ------------------------------------------------------------------ #
    def full_rebuild(self) -> DiagonalIndex:
        """Rebuild from scratch on the current graph (for cost comparisons)."""
        return self.build()
