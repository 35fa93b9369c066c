"""LIN: linearized SimRank with exact (non-Monte-Carlo) computation.

LIN (Maehara et al.) uses the same decomposition CloudWalker builds on —
``S = c P^T S P + D`` — but computes everything deterministically:

* the diagonal correction is obtained by assembling the linear system from
  *exact* walk distributions and solving it with a stationary iterative
  method, and
* queries are answered by ``T`` exact sparse matrix-vector products instead
  of Monte-Carlo walks.

Exact assembly touches every entry of ``P^t e_i`` for every node, so the
preprocessing cost grows much faster than CloudWalker's Monte-Carlo
estimation — which is the gap the paper's comparison table shows (LIN
preprocessing is 10-15x slower on twitter-2010/uk-union and absent for
clue-web).  This implementation enforces an explicit ``max_nodes`` guard and
raises :class:`CapacityExceededError` beyond it, which the comparison
benchmark turns into the table's "-" cells.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.config import SimRankParams
from repro.core import linear_system
from repro.core.jacobi import gauss_seidel_solve
from repro.errors import CapacityExceededError, IndexNotBuiltError
from repro.graph.digraph import DiGraph


class LinSimRank:
    """Exact linearized SimRank baseline.

    Parameters
    ----------
    graph:
        Input graph.
    params:
        SimRank parameters; ``index_walkers`` / ``query_walkers`` are ignored
        (LIN is deterministic), the rest (c, T, solver iterations) apply.
    max_nodes:
        Feasibility guard for the exact preprocessing (the assembled system
        stores up to ``n`` dense-ish rows).
    solver_iterations:
        Iterations of the Gauss-Seidel solve used for the diagonal.
    """

    def __init__(
        self,
        graph: DiGraph,
        params: Optional[SimRankParams] = None,
        max_nodes: int = 5_000,
        solver_iterations: int = 10,
    ) -> None:
        self.graph = graph
        self.params = params or SimRankParams.paper_defaults()
        self.max_nodes = int(max_nodes)
        self.solver_iterations = int(solver_iterations)
        self.diagonal: Optional[np.ndarray] = None
        self.build_seconds: float = 0.0
        self._transition = None
        self._transition_t = None

    # ------------------------------------------------------------------ #
    def build(self) -> "LinSimRank":
        """Exact preprocessing: assemble the system and solve for ``D``."""
        if self.graph.n_nodes > self.max_nodes:
            # The exact system needs O(n * support(P^t e_i)) work and memory;
            # refuse rather than thrash (mirrors LIN's absence on clue-web).
            raise CapacityExceededError(
                float(self.graph.n_nodes), float(self.max_nodes),
                "LIN exact preprocessing (node count)",
            )
        start = time.perf_counter()
        system = linear_system.build_exact_system(self.graph, self.params)
        rhs = np.ones(self.graph.n_nodes, dtype=np.float64)
        initial = np.full(self.graph.n_nodes, 1.0 - self.params.c)
        solution = gauss_seidel_solve(
            system, rhs, iterations=self.solver_iterations, initial=initial
        )
        self.diagonal = solution.x
        self.build_seconds = time.perf_counter() - start
        return self

    @property
    def is_built(self) -> bool:
        return self.diagonal is not None

    def _require_built(self) -> np.ndarray:
        if self.diagonal is None:
            raise IndexNotBuiltError("LIN query")
        return self.diagonal

    def _get_transition(self):
        if self._transition is None:
            self._transition = self.graph.transition_matrix()
            self._transition_t = self.graph.transition_matrix_t()
        return self._transition, self._transition_t

    # ------------------------------------------------------------------ #
    # Queries (exact, O(T * |E|) each)
    # ------------------------------------------------------------------ #
    def single_pair(self, node_i: int, node_j: int) -> float:
        """Exact linearized ``s(i, j)`` via iterated sparse matvecs."""
        diagonal = self._require_built()
        node_i = self.graph.check_node(node_i)
        node_j = self.graph.check_node(node_j)
        if node_i == node_j:
            return 1.0
        transition, _ = self._get_transition()
        n = self.graph.n_nodes
        u = np.zeros(n)
        w = np.zeros(n)
        u[node_i] = 1.0
        w[node_j] = 1.0
        total = 0.0
        decay = 1.0
        for step in range(self.params.walk_steps + 1):
            total += decay * float((u * w * diagonal).sum())
            if step < self.params.walk_steps:
                u = transition @ u
                w = transition @ w
                decay *= self.params.c
        return float(min(total, 1.0))

    def single_source(self, node: int) -> np.ndarray:
        """Exact linearized ``s(node, ·)`` via forward + backward matvecs."""
        diagonal = self._require_built()
        node = self.graph.check_node(node)
        transition, transition_t = self._get_transition()
        n = self.graph.n_nodes
        # Forward pass: v_t = P^t e_node.
        forward: List[np.ndarray] = []
        vector = np.zeros(n)
        vector[node] = 1.0
        for _ in range(self.params.walk_steps + 1):
            forward.append(vector)
            vector = transition @ vector
        # Backward pass (reverse Horner): r <- P^T r + c^t (D v_t).
        decay_powers = self.params.c ** np.arange(self.params.walk_steps + 1)
        result = np.zeros(n)
        for step in range(self.params.walk_steps, -1, -1):
            if step < self.params.walk_steps:
                result = transition_t @ result
            result += decay_powers[step] * (diagonal * forward[step])
        result[node] = 1.0
        np.clip(result, 0.0, 1.0, out=result)
        return result

    def top_k(self, node: int, k: int = 10) -> List[Tuple[int, float]]:
        """Top-k most similar nodes under LIN."""
        scores = self.single_source(node).copy()
        scores[node] = -np.inf
        k = min(k, self.graph.n_nodes)
        candidates = np.argpartition(-scores, kth=k - 1)[:k]
        ranked = candidates[np.argsort(-scores[candidates], kind="stable")]
        return [(int(c), float(scores[c])) for c in ranked if np.isfinite(scores[c])]
