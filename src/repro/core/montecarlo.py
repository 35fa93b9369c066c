"""Monte-Carlo estimation of reverse-walk distributions.

The quantities CloudWalker needs — the columns ``a_i`` of the indexing
linear system and the walk distributions used by the online queries — are all
functions of ``P^t e_i``, the distribution of a ``t``-step reverse walk from
node ``i``.  This module wraps the raw walk simulation of
:mod:`repro.core.walks` into the estimators the rest of the pipeline uses,
and provides the exact (non-Monte-Carlo) counterparts for tests/ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import SimRankParams
from repro.core import walks
from repro.graph.digraph import DiGraph

SparseVector = Tuple[np.ndarray, np.ndarray]
"""A sparse vector as ``(node_ids, values)`` arrays."""


@dataclass
class WalkDistributions:
    """Estimated distributions ``P^t e_source`` for ``t = 0..steps``.

    Attributes
    ----------
    source:
        The start node.
    steps:
        Number of walk steps ``T``.
    walkers:
        Number of Monte-Carlo walkers used (0 means the distributions are
        exact).
    per_step:
        ``per_step[t]`` is a sparse vector ``(nodes, probabilities)``.
    """

    source: int
    steps: int
    walkers: int
    per_step: List[SparseVector]

    def dense(self, n_nodes: int, step: int) -> np.ndarray:
        """Return the distribution at ``step`` as a dense vector."""
        vector = np.zeros(n_nodes, dtype=np.float64)
        nodes, values = self.per_step[step]
        vector[nodes] = values
        return vector

    def survival(self, step: int) -> float:
        """Total surviving probability mass at ``step`` (walk absorption)."""
        _nodes, values = self.per_step[step]
        return float(values.sum())


def estimate_walk_distributions(
    graph: DiGraph,
    source: int,
    params: SimRankParams,
    rng: Optional[np.random.Generator] = None,
    walkers: Optional[int] = None,
) -> WalkDistributions:
    """Monte-Carlo estimate of ``P^t e_source`` for ``t = 0..T``.

    Uses ``walkers`` random walkers (default ``params.query_walkers``), each
    taking ``params.walk_steps`` reverse steps.
    """
    walkers_count = walkers if walkers is not None else params.query_walkers
    rng = rng if rng is not None else walks.make_rng(params.seed, stream=source)
    counts = walks.single_source_walk_counts(
        graph, source, walkers_count, params.walk_steps, rng
    )
    per_step: List[SparseVector] = [
        (nodes, count.astype(np.float64) / walkers_count) for nodes, count in counts
    ]
    return WalkDistributions(
        source=int(source), steps=params.walk_steps, walkers=walkers_count,
        per_step=per_step,
    )


def estimate_walk_distributions_batch(
    graph: DiGraph,
    sources: List[int],
    params: SimRankParams,
    walkers: Optional[int] = None,
) -> Dict[int, WalkDistributions]:
    """Monte-Carlo estimates for many sources in one vectorised simulation.

    Each source's result is bitwise-identical to
    :func:`estimate_walk_distributions` called with its default ``rng`` (the
    ``(params.seed, source)`` stream), so batching — and any cache built on
    top of it — can never change a query answer.  Duplicate sources are
    simulated once.
    """
    walkers_count = walkers if walkers is not None else params.query_walkers
    result: Dict[int, WalkDistributions] = {}
    for packed in walks.simulate_walks_packed(
            graph, sources, walkers_count, params.walk_steps, params.seed):
        for source, bounds in zip(packed.sources.tolist(), packed.offsets.tolist()):
            # One copy of the source's slice, per-step views into that: a
            # cached entry must not pin the whole block's buffers.
            nodes = packed.nodes[bounds[0]:bounds[-1]].copy()
            values = (packed.counts[bounds[0]:bounds[-1]].astype(np.float64)
                      / walkers_count)
            local = [bound - bounds[0] for bound in bounds]
            result[source] = WalkDistributions(
                source=source,
                steps=params.walk_steps,
                walkers=walkers_count,
                per_step=[(nodes[lo:hi], values[lo:hi])
                          for lo, hi in zip(local, local[1:])],
            )
    return result


def exact_walk_distributions(
    graph: DiGraph, source: int, params: SimRankParams
) -> WalkDistributions:
    """Exact ``P^t e_source`` (sparse form), for tests and ablations."""
    dense_vectors = walks.exact_walk_distributions(graph, source, params.walk_steps)
    per_step: List[SparseVector] = []
    for vector in dense_vectors:
        nodes = np.flatnonzero(vector)
        per_step.append((nodes.astype(np.int64), vector[nodes]))
    return WalkDistributions(
        source=int(source), steps=params.walk_steps, walkers=0, per_step=per_step
    )


def distribution_error(estimated: WalkDistributions, exact: WalkDistributions,
                       n_nodes: int) -> float:
    """Mean L1 distance between estimated and exact per-step distributions.

    Used by the ablation that relates the number of walkers ``R`` to the
    quality of the estimated linear system.
    """
    if estimated.steps != exact.steps:
        raise ValueError("distributions cover different numbers of steps")
    total = 0.0
    for step in range(estimated.steps + 1):
        difference = estimated.dense(n_nodes, step) - exact.dense(n_nodes, step)
        total += float(np.abs(difference).sum())
    return total / (estimated.steps + 1)


def _sorted_intersection(
    left_nodes: np.ndarray, right_nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of the common support of two sorted-unique node arrays.

    Returns ``(left_idx, right_idx)`` such that
    ``left_nodes[left_idx] == right_nodes[right_idx]``, ascending in node
    id — the exact index pairs ``np.intersect1d(..., assume_unique=True,
    return_indices=True)`` produces, computed with one ``searchsorted``
    instead of intersect1d's concatenate-and-sort (which reallocates both
    supports on every call).  This is the inner loop of pair scoring.
    """
    positions = np.searchsorted(right_nodes, left_nodes)
    clipped = np.minimum(positions, len(right_nodes) - 1)
    matched = right_nodes[clipped] == left_nodes
    return np.flatnonzero(matched), positions[matched]


def sparse_dot(left: SparseVector, right: SparseVector,
               weights: Optional[np.ndarray] = None) -> float:
    """Compute ``sum_u left[u] * right[u] * weights[u]`` for sparse vectors."""
    left_nodes, left_values = left
    right_nodes, right_values = right
    if len(left_nodes) == 0 or len(right_nodes) == 0:
        return 0.0
    # Both node arrays are sorted and unique (np.unique output).
    left_idx, right_idx = _sorted_intersection(left_nodes, right_nodes)
    if len(left_idx) == 0:
        return 0.0
    products = left_values[left_idx] * right_values[right_idx]
    if weights is not None:
        products = products * weights[left_nodes[left_idx]]
    return float(products.sum())


def combine_pair_distributions(
    dist_i: WalkDistributions,
    dist_j: WalkDistributions,
    weights: np.ndarray,
    decay: float,
    steps: int,
) -> float:
    """Score one pair from two walk distributions over all steps at once.

    Computes ``sum_t c^t sum_u (P^t e_i)[u] (P^t e_j)[u] weights[u]`` —
    the MCSP combine — batching the per-step work over preallocated
    buffers: the step supports are intersected with one ``searchsorted``
    each (no intersect1d concatenate-and-sort), and the gathered values,
    products and weights reuse two scratch buffers sized once to the
    largest step support.  Bitwise-identical to the historical per-step
    ``sparse_dot`` loop: each step's products are formed in the same
    ascending-node order, summed with the same ``np.sum``, and accumulated
    in the same step order.
    """
    max_support = 0
    for step in range(steps + 1):
        max_support = max(max_support, len(dist_i.per_step[step][0]))
    scratch_a = np.empty(max_support, dtype=np.float64)
    scratch_b = np.empty(max_support, dtype=np.float64)
    total = 0.0
    factor = 1.0
    for step in range(steps + 1):
        left_nodes, left_values = dist_i.per_step[step]
        right_nodes, right_values = dist_j.per_step[step]
        if len(left_nodes) and len(right_nodes):
            left_idx, right_idx = _sorted_intersection(left_nodes, right_nodes)
            count = len(left_idx)
            if count:
                products = np.multiply(
                    np.take(left_values, left_idx, out=scratch_a[:count]),
                    np.take(right_values, right_idx, out=scratch_b[:count]),
                    out=scratch_a[:count],
                )
                step_weights = np.take(
                    weights, left_nodes[left_idx], out=scratch_b[:count]
                )
                products = np.multiply(products, step_weights,
                                       out=scratch_a[:count])
                total += factor * float(products.sum())
        factor *= decay
    return float(total)


def self_meeting_column(distributions: WalkDistributions, decay: float) -> Dict[int, float]:
    """Column ``a_i`` of the indexing system from one node's distributions.

    ``a_i[u] = sum_t c^t (P^t e_i)[u]^2`` — the probability-weighted chance
    that two independent reverse walks from ``i`` are both at ``u`` after
    ``t`` steps, discounted by ``c^t``.  Vectorised: all steps' supports
    are concatenated once and the per-node sums are formed with one
    ``np.bincount``, which accumulates strictly in input order — the same
    left-to-right association as the historical per-entry dict
    accumulation, so the result is bitwise-identical (``np.add.reduceat``
    would not be: its segment reduction associates differently).
    """
    node_chunks: List[np.ndarray] = []
    value_chunks: List[np.ndarray] = []
    factor = 1.0
    for step in range(distributions.steps + 1):
        nodes, values = distributions.per_step[step]
        if len(nodes):
            node_chunks.append(nodes)
            value_chunks.append(factor * values * values)
        factor *= decay
    if not node_chunks:
        return {}
    all_nodes = np.concatenate(node_chunks)
    all_values = np.concatenate(value_chunks)
    # bincount over the inverse index keeps memory O(support) even for
    # huge node ids; accumulation stays in input order either way.
    unique_nodes, inverse = np.unique(all_nodes, return_inverse=True)
    sums = np.bincount(inverse, weights=all_values)
    return dict(zip(unique_nodes.tolist(), sums.tolist()))
