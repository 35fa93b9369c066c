"""Offline indexing: estimate the diagonal correction vector.

This module is the *algorithmic* implementation of CloudWalker's offline
phase (estimate the rows of ``A`` by Monte-Carlo, then run ``L`` Jacobi
iterations on ``A x = 1``), independent of how the work is distributed —
``CloudWalker``'s default single-machine path.  Every row reads its own
``(seed, node)`` random stream (:func:`repro.core.linear_system.build_rows`),
so the index is byte-equal to the one the broadcasting execution model
(:mod:`repro.core.broadcast_impl`, any number of partitions), the index
maintainer (:class:`repro.core.sharding.ShardedIncrementalWalker`, any
shard count, after any sequence of updates) and the query service
produce.  The RDD model (:mod:`repro.core.rdd_impl`) is the one exception:
its walk spreads collapsed walker counts with per-``(step, node)``
multinomial draws, so it matches up to Monte-Carlo noise only.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
from scipy import sparse

from repro.config import SimRankParams
from repro.core import linear_system
from repro.core.index import BuildInfo, DiagonalIndex
from repro.core.jacobi import SolveResult, exact_solve, gauss_seidel_solve, jacobi_solve
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph


class DiagonalEstimator:
    """Builds a :class:`DiagonalIndex` on a single machine.

    Parameters
    ----------
    graph:
        The input graph.
    params:
        Algorithmic parameters (walk steps, walker counts, Jacobi iterations).
    exact:
        When true, use exact walk distributions instead of Monte-Carlo (only
        feasible on small graphs; used by tests and the convergence figure).
    solver:
        ``"jacobi"`` (paper default), ``"gauss-seidel"`` or ``"exact"`` —
        exposed for the solver ablation.
    """

    _SOLVERS = ("jacobi", "gauss-seidel", "exact")

    def __init__(
        self,
        graph: DiGraph,
        params: Optional[SimRankParams] = None,
        exact: bool = False,
        solver: str = "jacobi",
    ) -> None:
        if solver not in self._SOLVERS:
            raise ConfigurationError(
                f"solver must be one of {self._SOLVERS}, got {solver!r}"
            )
        self.graph = graph
        self.params = params or SimRankParams.paper_defaults()
        self.exact = exact
        self.solver = solver

    # ------------------------------------------------------------------ #
    def build_system(self) -> sparse.csr_matrix:
        """Assemble the linear system ``A`` (Monte-Carlo or exact)."""
        if self.exact:
            return linear_system.build_exact_system(self.graph, self.params)
        return linear_system.build_system(self.graph, self.params)

    def solve(self, system: sparse.csr_matrix) -> SolveResult:
        """Solve ``A x = 1`` with the configured solver."""
        rhs = np.ones(self.graph.n_nodes, dtype=np.float64)
        initial = np.full(self.graph.n_nodes, 1.0 - self.params.c, dtype=np.float64)
        if self.solver == "jacobi":
            return jacobi_solve(
                system, rhs, iterations=self.params.jacobi_iterations, initial=initial
            )
        if self.solver == "gauss-seidel":
            return gauss_seidel_solve(
                system, rhs, iterations=self.params.jacobi_iterations, initial=initial
            )
        return exact_solve(system, rhs)

    def build(self) -> DiagonalIndex:
        """Run the full offline phase and return the index."""
        start = time.perf_counter()
        system = self.build_system()
        monte_carlo_seconds = time.perf_counter() - start

        solve_start = time.perf_counter()
        if self.graph.n_nodes == 0:
            solution = SolveResult(
                x=np.zeros(0, dtype=np.float64), iterations=0, method=self.solver
            )
        else:
            solution = self.solve(system)
        solve_seconds = time.perf_counter() - solve_start

        build_info = BuildInfo(
            execution_model="exact-local" if self.exact else "local",
            monte_carlo_seconds=monte_carlo_seconds,
            solve_seconds=solve_seconds,
            total_seconds=monte_carlo_seconds + solve_seconds,
            jacobi_residual=solution.final_residual,
            system_nnz=int(system.nnz),
            extras={"solver": self.solver},
        )
        return DiagonalIndex(
            diagonal=solution.x,
            params=self.params,
            graph_name=self.graph.name,
            n_nodes=self.graph.n_nodes,
            n_edges=self.graph.n_edges,
            build_info=build_info,
        )


def build_diagonal_index(
    graph: DiGraph,
    params: Optional[SimRankParams] = None,
    exact: bool = False,
    solver: str = "jacobi",
) -> DiagonalIndex:
    """Convenience wrapper around :class:`DiagonalEstimator`."""
    return DiagonalEstimator(graph, params=params, exact=exact, solver=solver).build()


def exact_diagonal(graph: DiGraph, params: Optional[SimRankParams] = None) -> np.ndarray:
    """Ground-truth diagonal: exact system, direct solve.

    Only feasible for small graphs; the convergence benchmark uses it as the
    reference the Monte-Carlo + Jacobi estimates are compared against.
    """
    params = params or SimRankParams.paper_defaults()
    estimator = DiagonalEstimator(graph, params=params, exact=True, solver="exact")
    return estimator.build().diagonal
