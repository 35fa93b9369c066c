"""Online SimRank queries: MCSP, MCSS and MCAP.

Given the diagonal index ``x`` (see :mod:`repro.core.diagonal`), linearized
SimRank is::

    s(i, j) = sum_{t=0}^{T} c^t  (P^t e_i)^T  D  (P^t e_j)

The three query types from the paper:

``MCSP`` (single pair)
    Estimate ``P^t e_i`` and ``P^t e_j`` with ``R'`` Monte-Carlo walkers each
    and combine them step by step — O(T · R') per query, independent of the
    graph size.
``MCSS`` (single source)
    Estimate ``P^t e_i`` by Monte-Carlo, then push each step's weighted
    distribution back out through ``(P^T)^t`` — O(T² · R' · log d̄).
``MCAP`` (all pairs)
    MCSS repeated for every node — O(n · T² · R' · log d̄).

Each query also has an exact (non-Monte-Carlo) counterpart used by tests and
accuracy experiments.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.config import SimRankParams
from repro.core import montecarlo
from repro.core.index import DiagonalIndex
from repro.graph.digraph import DiGraph


def _select_top_k(candidates: np.ndarray, values: np.ndarray,
                  k: int) -> List[Tuple[int, float]]:
    """Top-``k`` of ``(candidates, values)`` under the canonical total order.

    The order is *score descending, node id ascending* — a total order, so
    the result is a pure function of the (node, score) set.  That property
    is what makes sharded serving exact: ranking a score vector in one
    piece, or ranking disjoint candidate slices and merging them, must
    produce the same list (see :func:`merge_top_k`).  Non-finite scores
    (the ``-inf`` used to mask the source itself) are dropped.
    """
    finite = np.isfinite(values)
    candidates, values = candidates[finite], values[finite]
    if k <= 0 or len(candidates) == 0:
        return []
    if len(candidates) > k:
        # Cheap pre-filter: keep everything scoring at least the k-th best
        # value (ties at the boundary included), then order canonically.
        threshold = values[np.argpartition(-values, kth=k - 1)[k - 1]]
        keep = values >= threshold
        candidates, values = candidates[keep], values[keep]
    order = np.lexsort((candidates, -values))[:k]
    return [(int(candidates[i]), float(values[i])) for i in order]


def rank_top_k(scores: np.ndarray, node: int, k: int,
               include_self: bool = False) -> List[Tuple[int, float]]:
    """Rank a single-source score vector into a top-``k`` list.

    Parameters
    ----------
    scores:
        Dense score vector (one entry per node), e.g. the output of
        :meth:`QueryEngine.propagate_source`.
    node:
        The source node; excluded from the ranking unless ``include_self``.
    k:
        Maximum length of the returned list (capped at ``len(scores)``).
    include_self:
        Keep the source itself (score 1.0) in the ranking.

    Returns ``[(node_id, score), ...]`` ordered by score descending with
    node-id-ascending tie-breaking — a canonical total order shared by
    :meth:`QueryEngine.top_k`, the query service, and the sharded service's
    scatter-gather merge (:func:`rank_top_k_within` + :func:`merge_top_k`),
    so all paths rank bitwise-identically.
    """
    return rank_top_k_within(
        scores, node, np.arange(len(scores)), k, include_self=include_self
    )


def rank_top_k_within(scores: np.ndarray, node: int,
                      candidates: np.ndarray, k: int,
                      include_self: bool = False) -> List[Tuple[int, float]]:
    """Rank only ``candidates`` (a subset of node ids) of a score vector.

    This is one shard's half of the scatter-gather top-k: the shard ranks
    the candidate nodes it owns, and :func:`merge_top_k` combines the
    per-shard lists.  Because the ranking order is total,
    ``merge_top_k([rank_top_k_within(scores, node, part, k) for part in
    partition_of_all_nodes], k)`` equals ``rank_top_k(scores, node, k)``
    exactly — the equivalence the sharded service's tests pin down.

    Arguments match :func:`rank_top_k`; ``candidates`` is an array of node
    ids (need not be sorted, must be a subset of ``range(len(scores))``).
    Returns at most ``min(k, len(scores))`` entries.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    # scores[candidates] is already a fresh gather, so the ranking may
    # scribble on it directly (copy=False) — one allocation, not two.
    return rank_top_k_entries(
        candidates, scores[candidates], node, min(k, len(scores)),
        include_self=include_self, copy=False,
    )


def rank_top_k_entries(candidates: np.ndarray, values: np.ndarray,
                       node: int, k: int,
                       include_self: bool = False,
                       copy: bool = True) -> List[Tuple[int, float]]:
    """Rank explicit ``(candidates, values)`` pairs into a top-``k`` list.

    The payload-light form of :func:`rank_top_k_within`: the caller has
    already gathered the candidates' scores, so a scatter task ships
    ``O(candidates)`` floats instead of the full score vector — this is
    what the sharded service's per-shard ranking tasks close over.  Same
    canonical order, same result: ``rank_top_k_within(scores, node, part,
    k)`` equals ``rank_top_k_entries(part, scores[part], node, min(k,
    len(scores)))`` exactly.

    ``copy=False`` lets a caller that owns ``values`` (a fresh gather, a
    task's unpickled payload) skip the defensive copy; the array may then
    be modified in place (the source is masked to ``-inf``).
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if copy:
        values = values.copy()
    if not include_self:
        values[candidates == node] = -np.inf
    return _select_top_k(candidates, values, k)


#: Widest dense block :func:`propagate_scores` pushes through one sparse
#: product.  Per-source time halves by ~8 columns and flattens after; 16
#: keeps a block of a 10k-node graph (1.3 MB) inside the L2 cache.
PROPAGATE_BLOCK_WIDTH = 16


def propagate_scores(nodes: Sequence[int],
                     distributions: Sequence[montecarlo.WalkDistributions],
                     transition_t: sparse.csr_matrix, diagonal: np.ndarray,
                     c: float, walk_steps: int) -> List[np.ndarray]:
    """Combine walk distributions into single-source scores, a block at a time.

    The reverse-Horner recurrence ``r <- P^T r + c^t (x ∘ P^t e_i)``
    evaluated from ``t = T`` down to 0, for up to
    :data:`PROPAGATE_BLOCK_WIDTH` sources at once: their vectors are the
    columns of one dense ``n × B`` block, so the ``T`` sparse products are
    shared (``transition_t @ block``) and each step's weighted distribution
    is scatter-added into its own column.  SciPy accumulates every row of a
    sparse × dense-block product in the same order as a sparse matvec, and
    adding the zeros outside a step's support changes nothing, so each
    column is bitwise the vector a one-source call produces — for any block
    width, column order or repetition of ``nodes`` (pinned by
    ``tests/test_properties.py`` against the dense per-source loop).

    Returns one score vector per entry of ``nodes``.  The vectors are
    column *views* into the shared blocks: rank them and drop them, or
    ``.copy()`` the ones that must outlive the call — a kept view pins its
    whole block.  Stateless: :meth:`QueryEngine.propagate_source` supplies
    the engine's transition and diagonal, and the property test drives
    this function directly.
    """
    n = transition_t.shape[0]
    decay_powers = c ** np.arange(walk_steps + 1)
    vectors: List[np.ndarray] = []
    for start in range(0, len(nodes), PROPAGATE_BLOCK_WIDTH):
        block_nodes = nodes[start:start + PROPAGATE_BLOCK_WIDTH]
        block_distributions = distributions[start:start + PROPAGATE_BLOCK_WIDTH]
        block = np.zeros((n, len(block_nodes)), dtype=np.float64)
        for step in range(walk_steps, -1, -1):
            if step < walk_steps:
                block = transition_t @ block
            for column, source_distributions in enumerate(block_distributions):
                support, values = source_distributions.at(step)
                block[support, column] += decay_powers[step] * (
                    diagonal[support] * values
                )
        block[block_nodes, np.arange(len(block_nodes))] = 1.0
        # Truncation and Monte-Carlo noise can push scores slightly past 1.
        np.clip(block, 0.0, 1.0, out=block)
        vectors.extend(block[:, column] for column in range(len(block_nodes)))
    return vectors


def merge_top_k(partials: Sequence[List[Tuple[int, float]]],
                k: int) -> List[Tuple[int, float]]:
    """Merge per-shard top-``k`` lists into the exact global top-``k``.

    ``partials`` are lists produced by :func:`rank_top_k_within` over
    *disjoint* candidate sets.  The merge is exact (not approximate)
    because every global top-``k`` entry is necessarily inside its owning
    shard's local top-``k``: fewer than ``k`` candidates beat it globally,
    so fewer than ``k`` beat it in its own shard.  Returns at most ``k``
    entries in the canonical order of :func:`rank_top_k`.
    """
    entries = [entry for part in partials for entry in part]
    if not entries:
        return []
    nodes = np.array([node for node, _score in entries], dtype=np.int64)
    values = np.array([score for _node, score in entries], dtype=np.float64)
    return _select_top_k(nodes, values, k)


class QueryEngine:
    """Answers SimRank queries against a graph + diagonal index.

    The engine caches the sparse transition matrix ``P`` (needed by MCSS for
    the reverse propagation) so repeated queries do not rebuild it.  Walks
    come from the query services' kernel
    (:func:`repro.core.montecarlo.estimate_walk_distributions_batch`), where
    every source reads its own ``(seed, source)`` stream, so a query asked
    here, asked again, or asked through a query service gets the same answer.
    """

    def __init__(self, graph: DiGraph, index: DiagonalIndex,
                 params: Optional[SimRankParams] = None) -> None:
        index.validate_for(graph)
        self.graph = graph
        self.index = index
        self.params = params or index.params
        self._transition: Optional[sparse.csr_matrix] = None
        self._transition_t: Optional[sparse.csr_matrix] = None

    # ------------------------------------------------------------------ #
    # Cached linear-algebra views
    # ------------------------------------------------------------------ #
    @property
    def transition(self) -> sparse.csr_matrix:
        """The in-link transition matrix ``P`` (built lazily, cached)."""
        if self._transition is None:
            self._transition = self.graph.transition_matrix()
        return self._transition

    @property
    def transition_t(self) -> sparse.csr_matrix:
        """``P^T`` in CSR form (cached separately for fast matvecs)."""
        if self._transition_t is None:
            self._transition_t = self.transition.T.tocsr()
        return self._transition_t

    # ------------------------------------------------------------------ #
    # Single-pair queries
    # ------------------------------------------------------------------ #
    def single_pair(self, node_i: int, node_j: int,
                    walkers: Optional[int] = None) -> float:
        """MCSP: Monte-Carlo estimate of ``s(i, j)``."""
        node_i = self.graph.check_node(node_i)
        node_j = self.graph.check_node(node_j)
        if node_i == node_j:
            return 1.0
        distributions = montecarlo.estimate_walk_distributions_batch(
            self.graph, [node_i, node_j], self.params, walkers=walkers)
        return self.combine_pair(distributions[node_i], distributions[node_j])

    def exact_single_pair(self, node_i: int, node_j: int) -> float:
        """Exact linearized ``s(i, j)`` (no Monte-Carlo), for validation."""
        node_i = self.graph.check_node(node_i)
        node_j = self.graph.check_node(node_j)
        if node_i == node_j:
            return 1.0
        dist_i = montecarlo.exact_walk_distributions(self.graph, node_i, self.params)
        dist_j = montecarlo.exact_walk_distributions(self.graph, node_j, self.params)
        return self.combine_pair(dist_i, dist_j)

    def combine_pair(self, dist_i: montecarlo.WalkDistributions,
                     dist_j: montecarlo.WalkDistributions) -> float:
        """Score a pair from two walk distributions (shared with the service).

        Delegates to :func:`repro.core.montecarlo.combine_pair_distributions`,
        which batches all steps over preallocated buffers.
        """
        total = montecarlo.combine_pair_distributions(
            dist_i, dist_j, self.index.diagonal,
            self.params.c, self.params.walk_steps,
        )
        return float(min(total, 1.0))

    # ------------------------------------------------------------------ #
    # Single-source queries
    # ------------------------------------------------------------------ #
    def single_source(self, node: int, walkers: Optional[int] = None) -> np.ndarray:
        """MCSS: Monte-Carlo estimate of ``s(node, ·)`` as a dense vector."""
        node = self.graph.check_node(node)
        distributions = montecarlo.estimate_walk_distributions_batch(
            self.graph, [node], self.params, walkers=walkers)[node]
        return self.propagate_source(node, distributions)

    def exact_single_source(self, node: int) -> np.ndarray:
        """Exact linearized single-source scores, for validation."""
        node = self.graph.check_node(node)
        distributions = montecarlo.exact_walk_distributions(self.graph, node, self.params)
        return self.propagate_source(node, distributions)

    def propagate_source(
        self,
        node: Union[int, Sequence[int]],
        distributions: Union[montecarlo.WalkDistributions,
                             Sequence[montecarlo.WalkDistributions]],
    ) -> Union[np.ndarray, List[np.ndarray]]:
        """Combine walk distributions into single-source scores.

        Uses the reverse-Horner recurrence
        ``r <- P^T r + c^t (x ∘ P^t e_i)`` evaluated from ``t = T`` down to 0,
        which needs only ``T`` sparse products (:func:`propagate_scores`
        holds the arithmetic).

        With one ``node`` and its distributions, returns that source's score
        vector.  With a sequence of nodes and the matching sequence of
        distributions — how the query services score a whole batch — the
        sources share the sparse products block by block and a list of
        vectors comes back, each bitwise what the one-node call returns
        but a view into a shared block (see :func:`propagate_scores`).
        """
        single = isinstance(node, (int, np.integer))
        vectors = propagate_scores(
            [node] if single else node,
            [distributions] if single else distributions,
            self.transition_t, self.index.diagonal,
            self.params.c, self.params.walk_steps,
        )
        return vectors[0] if single else vectors

    def top_k(self, node: int, k: int = 10, walkers: Optional[int] = None,
              include_self: bool = False) -> List[Tuple[int, float]]:
        """Top-``k`` most similar nodes to ``node`` by MCSS scores."""
        scores = self.single_source(node, walkers=walkers)
        return rank_top_k(scores, node, k, include_self=include_self)

    # ------------------------------------------------------------------ #
    # All-pairs queries
    # ------------------------------------------------------------------ #
    def all_pairs(self, walkers: Optional[int] = None,
                  nodes: Optional[List[int]] = None) -> np.ndarray:
        """MCAP: full similarity matrix via repeated MCSS (dense n x n).

        ``nodes`` restricts the rows that are computed (useful for sampling
        large graphs); other rows are zero.
        """
        n = self.graph.n_nodes
        matrix = np.zeros((n, n), dtype=np.float64)
        for node in (nodes if nodes is not None else range(n)):
            matrix[node] = self.single_source(node, walkers=walkers)
        return matrix

    def iter_all_pairs(self, walkers: Optional[int] = None
                       ) -> Iterator[Tuple[int, np.ndarray]]:
        """Memory-light MCAP: yield ``(node, scores)`` one source at a time."""
        for node in range(self.graph.n_nodes):
            yield node, self.single_source(node, walkers=walkers)

    # ------------------------------------------------------------------ #
    def query_cost_summary(self) -> Dict[str, float]:
        """Predicted per-query costs from the paper's complexity bounds."""
        stats_avg_degree = (
            self.graph.n_edges / self.graph.n_nodes if self.graph.n_nodes else 0.0
        )
        log_degree = float(np.log(max(stats_avg_degree, np.e)))
        walkers = self.params.query_walkers
        steps = self.params.walk_steps
        return {
            "mcsp_operations": float(steps * walkers),
            "mcss_operations": float(steps * steps * walkers * log_degree),
            "mcap_operations": float(
                self.graph.n_nodes * steps * steps * walkers * log_degree
            ),
        }
