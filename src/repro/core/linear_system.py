"""Assembly of the CloudWalker indexing linear system ``A x = 1``.

The SimRank linearization ``S = sum_t c^t (P^T)^t D P^t`` together with the
constraint ``diag(S) = 1`` ("self-similarity is 1.0") yields, for every node
``i``::

    sum_u  [ sum_t c^t ((P^t e_i)_u)^2 ]  x_u  =  1

i.e. a linear system ``A x = 1`` whose row ``i`` is the vector
``a_i = sum_t c^t (P^t e_i) ∘ (P^t e_i)``.  CloudWalker estimates the rows by
Monte-Carlo simulation, fully independently per node — this is the part the
paper parallelises across the cluster.  :func:`build_rows` is the one row
estimator: every row reads its own ``(seed, node)`` random stream, so every
execution model, shard count and update path gathers the same rows, and
:func:`build_system` assembles them into the matrix.

:func:`build_exact_system` computes the same matrix from the exact walk
distributions; it is used for unit tests, small-graph ablations and the LIN
baseline.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.config import SimRankParams
from repro.core import walks
from repro.graph.digraph import DiGraph


def discount_factors(decay: float, steps: int) -> np.ndarray:
    """Return ``[c^0, c^1, ..., c^steps]``."""
    return decay ** np.arange(steps + 1, dtype=np.float64)


def build_rows(
    graph: DiGraph,
    sources: Sequence[int],
    params: SimRankParams,
    walkers: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of the rows ``a_i`` for ``i`` in ``sources``.

    Returns COO-style arrays ``(row_ids, col_ids, values)`` where ``row_ids``
    holds actual node ids (not positions within ``sources``), sorted by
    ``(row, col)``; ``walkers`` defaults to ``params.index_walkers``.

    Row ``a_i`` is estimated from walks driven by the ``(params.seed, i)``
    stream of :func:`repro.core.walks.simulate_walks_packed`, so the
    estimate of one row is bitwise-independent of which *other* rows are
    estimated in the same call.  That independence is what makes every
    route to an index give the same bytes: a build split over shards or
    broadcast partitions gathers the rows a single call produces, and
    re-estimating only the changed rows after an edge insertion yields the
    system a from-scratch build on the updated graph has (see
    :class:`repro.core.sharding.ShardedIncrementalWalker`).

    Rows are assembled a kernel block of ascending ids at a time, so memory
    stays bounded by the block, and for the same reason the block size
    cannot change a value.
    """
    walkers_count = walkers if walkers is not None else params.index_walkers
    steps = params.walk_steps
    factors = discount_factors(params.c, steps)
    # Seeded with typed empties so zero sources still concatenate.
    blocks = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
               np.empty(0, dtype=np.float64))]
    for packed in walks.simulate_walks_packed(
            graph, sources, walkers_count, steps, params.seed):
        lengths = np.diff(packed.offsets, axis=1)
        rows = np.repeat(packed.sources, lengths.sum(axis=1))
        step_of_entry = np.repeat(
            np.tile(np.arange(steps + 1), len(packed.sources)), lengths.ravel()
        )
        probabilities = packed.counts.astype(np.float64) / walkers_count
        values = factors[step_of_entry] * probabilities * probabilities
        blocks.append(_merge_duplicate_entries(
            rows, packed.nodes, values, graph.n_nodes))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _merge_duplicate_entries(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n_nodes: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the entries of each ``(row, col)`` cell (one per step it was seen).

    The stable sort keeps each cell's contributions in step order, so the
    per-cell summation order — and therefore the floating-point result — is
    a function of one row's own entries only, never of which other rows
    were estimated alongside it.
    """
    keys = rows * np.int64(n_nodes) + cols
    order = np.argsort(keys, kind="stable")
    keys, rows, cols, values = keys[order], rows[order], cols[order], values[order]
    # Each run of equal (sorted, non-negative) keys is one cell; its first
    # entry starts it.
    run_starts = np.flatnonzero(np.diff(keys, prepend=-1))
    summed = np.add.reduceat(values, run_starts)
    return rows[run_starts], cols[run_starts], summed


def build_system(
    graph: DiGraph,
    params: SimRankParams,
    sources: Optional[Iterable[int]] = None,
    walkers: Optional[int] = None,
) -> sparse.csr_matrix:
    """Monte-Carlo estimate of the system matrix ``A`` (canonical CSR, n x n).

    ``sources`` restricts the rows that are estimated (other rows are left
    empty); by default every node's row is built.
    """
    if sources is None:
        sources = range(graph.n_nodes)
    rows, cols, values = build_rows(graph, list(sources), params, walkers=walkers)
    return sparse.csr_matrix(
        (values, (rows, cols)), shape=(graph.n_nodes, graph.n_nodes), dtype=np.float64
    )


def build_exact_system(graph: DiGraph, params: SimRankParams) -> sparse.csr_matrix:
    """Exact system matrix from true walk distributions (no Monte-Carlo).

    Cost is O(n * T * |E|); suitable for the small graphs used in tests and
    for the LIN baseline.
    """
    transition = graph.transition_matrix()
    factors = discount_factors(params.c, params.walk_steps)
    # Current = P^t, built column-block-wise to stay sparse.
    current = sparse.identity(graph.n_nodes, format="csr", dtype=np.float64)
    system = sparse.csr_matrix((graph.n_nodes, graph.n_nodes), dtype=np.float64)
    for step in range(params.walk_steps + 1):
        squared = current.copy()
        squared.data = squared.data ** 2
        # Row i of A gets (P^t e_i)_u^2 = (P^t)[u, i]^2  ->  transpose.
        system = system + factors[step] * squared.T.tocsr()
        if step < params.walk_steps:
            current = transition @ current
            current.eliminate_zeros()
    system.sum_duplicates()
    return system.tocsr()
