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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimRankParams
from repro.core import walks
from repro.graph.digraph import DiGraph

SparseVector = Tuple[np.ndarray, np.ndarray]
"""A sparse vector as ``(node_ids, values)`` arrays."""


@dataclass
class WalkDistributions:
    """Estimated distributions ``P^t e_source`` for ``t = 0..steps``.

    One flat record, the layout :func:`repro.core.walks.simulate_walks_packed`
    emits for a source: step ``t``'s sparse vector is ``nodes[lo:hi],
    values[lo:hi]`` with ``lo, hi = offsets[t], offsets[t + 1]`` (see
    :meth:`at`).  The entry owns its three arrays, so a cached entry pins
    nothing else.

    Attributes
    ----------
    source:
        The start node.
    steps:
        Number of walk steps ``T``.
    walkers:
        Number of Monte-Carlo walkers used (0 means the distributions are
        exact).
    offsets:
        ``T + 2`` int64 step boundaries into ``nodes`` / ``values``,
        starting at 0.
    nodes:
        The steps' supports (int64), each sorted ascending.
    values:
        The matching probabilities (float64).
    """

    source: int
    steps: int
    walkers: int
    offsets: np.ndarray
    nodes: np.ndarray
    values: np.ndarray

    def at(self, step: int) -> SparseVector:
        """Step ``step``'s sparse vector ``(nodes, values)``, as views."""
        lo, hi = self.offsets[step], self.offsets[step + 1]
        return self.nodes[lo:hi], self.values[lo:hi]

    def dense(self, n_nodes: int, step: int) -> np.ndarray:
        """Return the distribution at ``step`` as a dense vector."""
        vector = np.zeros(n_nodes, dtype=np.float64)
        nodes, values = self.at(step)
        vector[nodes] = values
        return vector


def _from_steps(source: int, steps: int, walkers: int,
                per_step: List[SparseVector]) -> WalkDistributions:
    """Pack ``T + 1`` per-step ``(nodes, values)`` pairs into one record."""
    offsets = np.zeros(steps + 2, dtype=np.int64)
    np.cumsum([len(nodes) for nodes, _values in per_step], out=offsets[1:])
    return WalkDistributions(
        source=int(source), steps=steps, walkers=walkers, offsets=offsets,
        nodes=np.concatenate([nodes for nodes, _values in per_step]),
        values=np.concatenate([values for _nodes, values in per_step]),
    )


def estimate_walk_distributions(
    graph: DiGraph,
    source: int,
    params: SimRankParams,
    rng: Optional[np.random.Generator] = None,
    walkers: Optional[int] = None,
) -> WalkDistributions:
    """Monte-Carlo estimate of ``P^t e_source`` for ``t = 0..T``.

    Uses ``walkers`` random walkers (default ``params.query_walkers``), each
    taking ``params.walk_steps`` reverse steps.  This one-source loop is the
    reference the tests hold :func:`estimate_walk_distributions_batch` — the
    estimator every query path uses — to, byte for byte, on the default
    ``(params.seed, source)`` stream.
    """
    walkers_count = walkers if walkers is not None else params.query_walkers
    rng = rng if rng is not None else walks.make_rng(params.seed, stream=source)
    counts = walks.single_source_walk_counts(
        graph, source, walkers_count, params.walk_steps, rng
    )
    return _from_steps(source, params.walk_steps, walkers_count, [
        (nodes, count.astype(np.float64) / walkers_count) for nodes, count in counts
    ])


def estimate_walk_distributions_batch(
    graph: DiGraph,
    sources: Sequence[int],
    params: SimRankParams,
    walkers: Optional[int] = None,
) -> Dict[int, WalkDistributions]:
    """Monte-Carlo estimates for many sources in one vectorised simulation.

    Each source's result is bitwise-identical to
    :func:`estimate_walk_distributions` called with its default ``rng`` (the
    ``(params.seed, source)`` stream), so batching — and any cache built on
    top of it — can never change a query answer.  The kernel reads those
    streams without building them one by one: it derives a block's PCG64
    states at once and draws, step by step, only what live walkers use
    (:func:`repro.core.walks.simulate_walks_packed`).  Duplicate sources
    are simulated once.
    """
    walkers_count = walkers if walkers is not None else params.query_walkers
    result: Dict[int, WalkDistributions] = {}
    for packed in walks.simulate_walks_packed(
            graph, sources, walkers_count, params.walk_steps, params.seed):
        for source, bounds in zip(packed.sources.tolist(), packed.offsets):
            # One copy per array: a cached entry must not pin the block.
            lo, hi = bounds[0], bounds[-1]
            result[source] = WalkDistributions(
                source=source,
                steps=params.walk_steps,
                walkers=walkers_count,
                offsets=bounds - lo,
                nodes=packed.nodes[lo:hi].copy(),
                values=packed.counts[lo:hi].astype(np.float64) / walkers_count,
            )
    return result


def exact_walk_distributions(
    graph: DiGraph, source: int, params: SimRankParams
) -> WalkDistributions:
    """Exact ``P^t e_source`` (sparse form), for tests and ablations."""
    per_step: List[SparseVector] = []
    for vector in walks.exact_walk_distributions(graph, source, params.walk_steps):
        nodes = np.flatnonzero(vector)
        per_step.append((nodes, vector[nodes]))
    return _from_steps(source, params.walk_steps, 0, per_step)


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


def _step_keys(dist: WalkDistributions, steps: int,
               n_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Steps ``0..steps`` of ``dist`` as one ascending ``step · n + node`` key run."""
    end = dist.offsets[steps + 1]
    sizes = np.diff(dist.offsets[:steps + 2])
    keys = np.repeat(np.arange(steps + 1, dtype=np.int64) * n_nodes, sizes)
    keys += dist.nodes[:end]
    return keys, dist.values[:end]


def combine_pair_distributions(
    dist_i: WalkDistributions,
    dist_j: WalkDistributions,
    weights: np.ndarray,
    decay: float,
    steps: int,
) -> float:
    """Score one pair from two walk distributions over all steps at once.

    Computes ``sum_t c^t sum_u (P^t e_i)[u] (P^t e_j)[u] weights[u]`` —
    the MCSP combine — in one pass: both supports are keyed ``step · n +
    node`` (``n = len(weights)``), ascending, so one ``searchsorted``
    intersects every step at once, and the products and weights are
    gathered for all common keys together.  Bitwise-identical to a
    per-step ``np.intersect1d`` dot-product loop: each step's products are
    formed in the same ascending-node order, each step's slice is summed
    with the same ``np.sum``, and the sums are accumulated in the same
    step order.  A step with no common node adds ``+0.0`` there, which
    leaves a total started at ``+0.0`` unchanged, so it is skipped.
    """
    n_nodes = len(weights)
    left_keys, left_values = _step_keys(dist_i, steps, n_nodes)
    right_keys, right_values = _step_keys(dist_j, steps, n_nodes)
    if not len(left_keys) or not len(right_keys):
        return 0.0
    left_idx, right_idx = _sorted_intersection(left_keys, right_keys)
    if not len(left_idx):
        return 0.0
    step_of, nodes = np.divmod(left_keys[left_idx], n_nodes)
    products = left_values[left_idx] * right_values[right_idx]
    products *= weights[nodes]
    bounds = np.searchsorted(step_of, np.arange(steps + 2)).tolist()
    total = 0.0
    factor = 1.0
    for step in range(steps + 1):
        lo, hi = bounds[step], bounds[step + 1]
        if hi > lo:
            total += factor * float(products[lo:hi].sum())
        factor *= decay
    return float(total)
