"""Naive Jeh & Widom SimRank by power iteration.

This is the textbook O(n²)-memory algorithm the paper's introduction calls
out as unscalable; it serves two purposes here:

* it is the *ground truth* every other method is validated against, and
* the comparison benchmark (table T5) uses its cost to illustrate why the
  paper needed a different approach.

The iteration is ``S_{k+1} = c · P^T S_k P`` with the diagonal reset to 1
after every step (``S_0 = I``).  On convergence this is exactly the SimRank
fixed point — and exactly what ``networkx.simrank_similarity`` computes,
which the unit tests exploit as an independent cross-check.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph


def naive_simrank(
    graph: DiGraph,
    c: float = 0.6,
    iterations: int = 20,
    tolerance: Optional[float] = 1e-6,
) -> np.ndarray:
    """Full SimRank matrix by power iteration (dense; small graphs only).

    Parameters
    ----------
    graph:
        Input graph.
    c:
        Decay factor in (0, 1).
    iterations:
        Maximum number of iterations.
    tolerance:
        Stop early when the max entry change drops below this (``None``
        disables early stopping).

    Returns
    -------
    numpy.ndarray
        The ``n x n`` similarity matrix.
    """
    if not 0.0 < c < 1.0:
        raise ConfigurationError(f"decay factor c must be in (0, 1), got {c}")
    if iterations < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
    n = graph.n_nodes
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    transition = graph.transition_matrix()
    similarity = np.eye(n, dtype=np.float64)
    for _ in range(iterations):
        updated = c * (transition.T @ similarity @ transition)
        np.fill_diagonal(updated, 1.0)
        delta = float(np.abs(updated - similarity).max())
        similarity = updated
        if tolerance is not None and delta < tolerance:
            break
    return similarity


def naive_simrank_pair(
    graph: DiGraph, node_i: int, node_j: int, c: float = 0.6, iterations: int = 20
) -> float:
    """Single-pair SimRank via the naive algorithm.

    The naive method cannot compute one pair without (effectively) computing
    the whole matrix — the "not allow querying similarities individually"
    limitation the paper lists; this helper exists so benchmarks can charge
    the baseline its true per-query cost.
    """
    node_i = graph.check_node(node_i)
    node_j = graph.check_node(node_j)
    return float(naive_simrank(graph, c=c, iterations=iterations)[node_i, node_j])
