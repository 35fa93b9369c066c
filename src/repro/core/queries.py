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
    :func:`propagate_scores` pushes only the support each step reaches, so
    a top-k costs what its walks touch, not what the graph holds.
``MCAP`` (all pairs)
    MCSS repeated for every node — O(n · T² · R' · log d̄).

Each query also has an exact (non-Monte-Carlo) counterpart used by tests and
accuracy experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.config import SimRankParams
from repro.core import montecarlo
from repro.core.index import DiagonalIndex
from repro.graph import frontier
from repro.graph.digraph import DiGraph


def _select_top_k(candidates: np.ndarray, values: np.ndarray,
                  k: int) -> List[Tuple[int, float]]:
    """Top-``k`` of ``(candidates, values)`` under the canonical total order.

    The order is *score descending, node id ascending* — a total order, so
    the result is a pure function of the (node, score) set.  That property
    is what lets :meth:`SourceScores.top_k` rank only the positive support
    and pad with zero-score ids, and :func:`merge_top_k` merge rankings of
    disjoint candidate sets, and still produce the list a dense ranking
    does.  Non-finite scores (the ``-inf`` used to mask the source itself)
    are dropped.
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
    """Rank a dense single-source score vector into a top-``k`` list.

    The dense reference for :meth:`SourceScores.top_k`, which every query
    path ranks with: ``rank_top_k(scores.dense(), scores.source, k)``
    equals ``scores.top_k(k)`` exactly (pinned by
    ``tests/test_properties.py``).  ``node`` is excluded from the ranking
    unless ``include_self``; at most ``min(k, len(scores))`` entries come
    back, ordered by score descending with node-id-ascending tie-breaking.
    """
    values = np.array(scores, dtype=np.float64)
    if not include_self:
        values[node] = -np.inf
    return _select_top_k(np.arange(len(values)), values, min(k, len(values)))


@dataclass(frozen=True)
class SourceScores:
    """One source's single-source scores over their positive support.

    ``nodes`` (ascending) and ``values`` list every node scoring above
    zero, the source itself at 1.0 included; every other node scores
    exactly ``+0.0``.  The record owns both arrays, so the serving cache
    can keep it without pinning the batch it was propagated in.  :meth:`dense` rebuilds the vector the dense
    recurrence produces, byte for byte, for the callers whose answer *is*
    that vector; :meth:`top_k` ranks without touching the zeros it does not
    return.
    """

    source: int
    n_nodes: int
    nodes: np.ndarray
    values: np.ndarray

    def dense(self) -> np.ndarray:
        """The score vector, one entry per node (a fresh array)."""
        vector = np.zeros(self.n_nodes, dtype=np.float64)
        vector[self.nodes] = self.values
        return vector

    def top_k(self, k: int,
              include_self: bool = False) -> List[Tuple[int, float]]:
        """The top-``k`` ranking :func:`rank_top_k` gives :meth:`dense`.

        The positive support is ranked in the canonical order; when fewer
        than ``k`` of its nodes remain, the lowest ids outside it (never
        the source, which scores 1.0) follow at ``0.0`` — where ties on a
        zero score put them in the dense ranking too.  At most
        ``min(k, n_nodes)`` entries, one fewer without ``include_self``.
        """
        nodes, values = self.nodes, self.values
        limit = min(k, self.n_nodes if include_self else self.n_nodes - 1)
        if not include_self:
            keep = nodes != self.source
            nodes, values = nodes[keep], values[keep]
        ranked = _select_top_k(nodes, values, limit)
        missing = limit - len(ranked)
        if missing > 0:
            lowest = np.arange(min(self.n_nodes, missing + len(self.nodes)))
            zeros = np.setdiff1d(lowest, self.nodes, assume_unique=True)
            ranked.extend((int(node), 0.0) for node in zeros[:missing])
        return ranked


#: A column whose support covers more than this fraction of the nodes
#: leaves the frontier for the dense ``transition_t @ block`` product.
#: Swept on copying-model graphs of 10k and 100k nodes: 2-10 % cost the
#: same within noise, 1 % and 20 % more (``docs/architecture.md`` §2).
DENSE_FILL_FRACTION = 0.05


def propagate_scores(nodes: Sequence[int],
                     distributions: Sequence[montecarlo.WalkDistributions],
                     transition: sparse.csr_matrix,
                     transition_t: sparse.csr_matrix, diagonal: np.ndarray,
                     c: float, walk_steps: int) -> List[SourceScores]:
    """Combine walk distributions into single-source scores, over their support.

    The reverse-Horner recurrence ``r <- P^T r + c^t (x ∘ P^t e_i)``
    evaluated from ``t = T`` down to 0, one column per entry of ``nodes``.
    Each column carries only its support: keys ``column * n + node`` with
    their values, all columns in one pair of arrays.  A step expands the
    frontier along ``P``'s rows, ``P^T``'s columns
    (:func:`repro.graph.frontier.expand`: each target's terms in ascending
    ``u``, the order SciPy sums row ``i`` of ``P^T`` in), appends the step's
    weighted distribution terms and sums per key with one ``np.bincount``,
    which adds in input order from ``+0.0``: exactly the additions of the
    dense ``transition_t @ block`` product followed by the scatter-add,
    minus terms ``a * (+0.0)``.  A sum started at ``+0.0`` is never
    ``-0.0`` under round-to-nearest, so dropping those terms changes no
    bit, for a diagonal of any sign.  Steps above the last one any walk
    reached hold only zeros and are skipped.

    A column whose support passes :data:`DENSE_FILL_FRACTION` of the nodes
    moves, with its exact values, into a contiguous ``(n, m)`` block of the
    columns that did, and finishes on the dense product there; light
    columns never enter it.  Either way each column is bitwise the vector
    the dense per-source recurrence produces (pinned by
    ``tests/test_properties.py``), for any column order or repetition of
    ``nodes``.  Returns one :class:`SourceScores` per entry of ``nodes``.
    Stateless: :meth:`QueryEngine.propagate_source` supplies the engine's
    matrices and diagonal.
    """
    n = transition.shape[0]
    width = len(nodes)
    if not width:
        return []
    sources = np.asarray(nodes, dtype=np.int64)
    column_base = np.arange(width, dtype=np.int64) * n
    # Every column's weighted distribution terms c^t (x ∘ P^t e_i), grouped
    # by step: step t's are term_*[bounds[t]:bounds[t + 1]].
    sizes = np.array([np.diff(d.offsets[:walk_steps + 2])
                      for d in distributions])
    term_step = np.repeat(np.tile(np.arange(walk_steps + 1), width),
                          sizes.ravel())
    term_column = np.repeat(np.arange(width), sizes.sum(axis=1))
    term_node = np.concatenate([d.nodes[:d.offsets[walk_steps + 1]]
                                for d in distributions])
    decay_powers = c ** np.arange(walk_steps + 1)
    term_weight = decay_powers[term_step] * (
        diagonal[term_node] * np.concatenate(
            [d.values[:d.offsets[walk_steps + 1]] for d in distributions]))
    order = np.argsort(term_step, kind="stable")
    term_column, term_node, term_weight = (
        term_column[order], term_node[order], term_weight[order])
    bounds = np.searchsorted(term_step[order], np.arange(walk_steps + 2))
    keys = np.empty(0, dtype=np.int64)
    values = np.empty(0, dtype=np.float64)
    is_dense = np.zeros(width, dtype=bool)
    position = np.full(width, -1, dtype=np.int64)   # column -> block column
    block = np.zeros((n, 0), dtype=np.float64)
    top = int(sizes.nonzero()[1].max(initial=0))
    for step in range(top, -1, -1):
        lo, hi = bounds[step], bounds[step + 1]
        step_column, step_node, step_weight = (
            term_column[lo:hi], term_node[lo:hi], term_weight[lo:hi])
        if block.shape[1]:
            block = transition_t @ block
            heavy = is_dense[step_column]
            block[step_node[heavy], position[step_column[heavy]]] += (
                step_weight[heavy])
            step_column, step_node, step_weight = (
                step_column[~heavy], step_node[~heavy], step_weight[~heavy])
        terms = [(column_base[step_column] + step_node, step_weight)]
        if len(keys):
            stepped, positions, counts = frontier.expand(
                transition.indptr, transition.indices, keys, n)
            terms.insert(0, (stepped, transition.data[positions]
                             * np.repeat(values, counts)))
        if step == 0:
            # Make room for each source's 1.0 (its +0.0 term moves no sum).
            light = np.flatnonzero(~is_dense)
            terms.append((column_base[light] + sources[light],
                          np.zeros(len(light))))
        keys, inverse = np.unique(np.concatenate([k for k, _ in terms]),
                                  return_inverse=True)
        values = np.bincount(
            inverse.reshape(-1), weights=np.concatenate([v for _, v in terms]),
            minlength=len(keys)).astype(np.float64, copy=False)
        if step > 0 and len(keys) > DENSE_FILL_FRACTION * n:
            columns = keys // n
            heavy = np.flatnonzero(np.bincount(columns, minlength=width)
                                   > DENSE_FILL_FRACTION * n)
            if len(heavy):
                moving = np.isin(columns, heavy)
                position[heavy] = np.arange(len(heavy)) + block.shape[1]
                grown = np.zeros((n, block.shape[1] + len(heavy)))
                grown[:, :block.shape[1]] = block
                grown[keys[moving] - column_base[columns[moving]],
                      position[columns[moving]]] = values[moving]
                block = grown
                is_dense[heavy] = True
                keys, values = keys[~moving], values[~moving]
    # The sources' own scores, then truncation and Monte-Carlo noise can
    # push scores slightly past 1.
    block[sources[is_dense], position[is_dense]] = 1.0
    np.clip(block, 0.0, 1.0, out=block)
    light = np.flatnonzero(~is_dense)
    values[np.searchsorted(keys, column_base[light] + sources[light])] = 1.0
    np.clip(values, 0.0, 1.0, out=values)
    positive = values > 0.0
    keys, values = keys[positive], values[positive]
    column_bounds = np.searchsorted(keys, np.append(column_base, width * n))
    scores: List[SourceScores] = []
    for column, source in enumerate(sources.tolist()):
        if is_dense[column]:
            vector = block[:, position[column]]
            support = np.flatnonzero(vector)
            scores.append(SourceScores(source, n, support, vector[support]))
        else:
            # A copy of the values, so a cached record pins no batch buffer.
            lo, hi = column_bounds[column], column_bounds[column + 1]
            scores.append(SourceScores(source, n,
                                       keys[lo:hi] - column_base[column],
                                       values[lo:hi].copy()))
    return scores


def definitional_pair_score(graph: DiGraph, node_i: int,
                            node_j: int) -> Optional[float]:
    """The score SimRank's definition fixes for a pair, or None.

    ``s(i, i) = 1``, and ``s(i, j) = 0`` for ``i != j`` when either node
    has no in-neighbours.  The second is also what
    :meth:`QueryEngine.combine_pair` returns for such a pair, bit for bit:
    the step-0 supports ``{i}`` and ``{j}`` are disjoint, and a dead end's
    walkers die at step 1, so no step has a common node and the total
    stays ``+0.0``.  Every pair answer goes through here first — the
    engine's and the service's — so a pair this returns a score for is
    never walked.  Reads ``graph``'s in-CSR: an update that gives a dead
    end its first in-edge ends the rule with the graph it swaps in.
    """
    if node_i == node_j:
        return 1.0
    indptr = graph.in_csr[0]
    if (indptr[node_i] == indptr[node_i + 1]
            or indptr[node_j] == indptr[node_j + 1]):
        return 0.0
    return None


#: A pair whose level set outgrows this many nodes on either side before
#: the sets meet or end is left to the walks.  Swept by
#: ``benchmarks/micro/meet.py`` (2-core Xeon) on the spine's 10k-node
#: copying-model graph, seed 0, first 400 ``uniform_cold`` batches: a cap
#: of 16 proves 62.9 % of the walked pairs unmeetable in 0.19 ms a batch,
#: 64 proves 79.5 % in 0.28 ms, 256 86.7 % in 0.38 ms, no cap 89.7 % in
#: 0.56 ms, against 1.49 ms to walk the pairs' 26 endpoints.  Past 64 a
#: proven pair saves about what the larger sets cost.  On an Erdős–Rényi
#: graph of the same size and degree, whose level sets grow geometrically
#: until the pairs meet, the test proves nothing: 0.91 ms a batch at 64,
#: 1.67 ms at 256, against 13.4 ms of walks.
MEET_FRONTIER_CAP = 64


def pairs_that_can_meet(graph: DiGraph, sources: Sequence[int],
                        targets: Sequence[int], steps: int) -> np.ndarray:
    """Which pairs' reverse walks may stand on a common node at a common step.

    A walker from ``i`` stands, after ``t`` steps, on a node ``i`` reaches
    in exactly ``t`` in-edge steps: its step-``t`` level set.  When no step
    ``t <= steps`` has a node in both endpoints' level sets, every step of
    :func:`~repro.core.montecarlo.combine_pair_distributions` intersects
    two disjoint supports, and the pair's score is exactly ``+0.0`` —
    walked or exact, for any walker count or seed.

    All pairs grow their two level sets together, one step at a time, as
    packed ``pair · n + node`` keys (:func:`repro.graph.frontier.expand`).
    A pair is decided at its first common key (it can meet), when either
    side's set empties or past step ``steps`` (it cannot), or when either
    side outgrows :data:`MEET_FRONTIER_CAP` nodes first (it is left to the
    walks).  Step-1 sets are the endpoints' in-lists: when on most pairs
    both are non-empty and one outgrows the cap, every pair is left to the
    walks untested.  Returns a boolean array, one entry per pair: False
    only for pairs proven unable to meet.
    """
    cap = MEET_FRONTIER_CAP
    n = graph.n_nodes
    indptr, indices = graph.in_csr
    count = len(sources)
    ends = np.array([sources, targets], dtype=np.int64).reshape(2, count)
    degree = indptr[ends + 1] - indptr[ends]
    if 2 * np.count_nonzero((degree.min(axis=0) > 0)
                            & (degree.max(axis=0) > cap)) > count:
        return np.ones(count, dtype=bool)
    can_meet = np.zeros(count, dtype=bool)
    left, right = ends + np.arange(count, dtype=np.int64) * n
    for step in range(steps + 1):
        if step:
            left = np.unique(frontier.expand(indptr, indices, left, n)[0])
            right = np.unique(frontier.expand(indptr, indices, right, n)[0])
        # A key both ascending sides hold is a pair meeting at this step.
        at = np.minimum(np.searchsorted(right, left), max(len(right) - 1, 0))
        met = left[right[at] == left] // n if len(right) else left[:0]
        can_meet[met] = True
        left_sizes = np.bincount(left // n, minlength=count)
        right_sizes = np.bincount(right // n, minlength=count)
        # Still undecided: both sides alive, not met.
        active = (left_sizes > 0) & (right_sizes > 0) & ~can_meet
        if step == steps or not active.any():
            break
        grown = active & ((left_sizes > cap) | (right_sizes > cap))
        can_meet[grown] = True
        active &= ~grown
        left = left[active[left // n]]
        right = right[active[right // n]]
    return can_meet


def merge_top_k(partials: Sequence[List[Tuple[int, float]]],
                k: int) -> List[Tuple[int, float]]:
    """Merge per-shard top-``k`` lists into the exact global top-``k``.

    ``partials`` are top-``k`` lists, each ranked in the canonical order
    over one of several *disjoint* candidate sets.  The merge is exact (not
    approximate) because every global top-``k`` entry is necessarily inside
    its own set's top-``k``: fewer than ``k`` candidates beat it globally,
    so fewer than ``k`` beat it in its own set.  Returns at most ``k``
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
            self._transition_t = self.graph.transition_matrix_t()
        return self._transition_t

    # ------------------------------------------------------------------ #
    # Single-pair queries
    # ------------------------------------------------------------------ #
    def _unwalked_pair_score(self, node_i: int,
                             node_j: int) -> Optional[float]:
        """A pair's score when no walk is needed for it, else None.

        The definition's score (:func:`definitional_pair_score`), or
        ``0.0`` for a pair whose walks cannot meet within the walk length
        (:func:`pairs_that_can_meet`) — the rules the services apply.
        """
        fixed = definitional_pair_score(self.graph, node_i, node_j)
        if fixed is None and not pairs_that_can_meet(
                self.graph, [node_i], [node_j], self.params.walk_steps)[0]:
            return 0.0
        return fixed

    def single_pair(self, node_i: int, node_j: int,
                    walkers: Optional[int] = None) -> float:
        """MCSP: Monte-Carlo estimate of ``s(i, j)``.

        A pair whose score the definition fixes, or whose walks cannot
        meet, is answered without walking (:meth:`_unwalked_pair_score`).
        """
        node_i = self.graph.check_node(node_i)
        node_j = self.graph.check_node(node_j)
        fixed = self._unwalked_pair_score(node_i, node_j)
        if fixed is not None:
            return fixed
        distributions = montecarlo.estimate_walk_distributions_batch(
            self.graph, [node_i, node_j], self.params, walkers=walkers)
        return self.combine_pair(distributions[node_i], distributions[node_j])

    def exact_single_pair(self, node_i: int, node_j: int) -> float:
        """Exact linearized ``s(i, j)`` (no Monte-Carlo), for validation."""
        node_i = self.graph.check_node(node_i)
        node_j = self.graph.check_node(node_j)
        fixed = self._unwalked_pair_score(node_i, node_j)
        if fixed is not None:
            return fixed
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
        return self._source_scores(node, walkers).dense()

    def exact_single_source(self, node: int) -> np.ndarray:
        """Exact linearized single-source scores, for validation."""
        node = self.graph.check_node(node)
        distributions = montecarlo.exact_walk_distributions(self.graph, node, self.params)
        return self.propagate_source(node, distributions).dense()

    def _source_scores(self, node: int,
                       walkers: Optional[int] = None) -> SourceScores:
        """MCSS over the support: one walk simulation, one propagation."""
        node = self.graph.check_node(node)
        distributions = montecarlo.estimate_walk_distributions_batch(
            self.graph, [node], self.params, walkers=walkers)[node]
        return self.propagate_source(node, distributions)

    def propagate_source(
        self,
        node: Union[int, Sequence[int]],
        distributions: Union[montecarlo.WalkDistributions,
                             Sequence[montecarlo.WalkDistributions]],
    ) -> Union[SourceScores, List[SourceScores]]:
        """Combine walk distributions into single-source scores.

        Uses the reverse-Horner recurrence
        ``r <- P^T r + c^t (x ∘ P^t e_i)`` evaluated from ``t = T`` down to
        0 over each source's support (:func:`propagate_scores` holds the
        arithmetic).

        With one ``node`` and its distributions, returns that source's
        :class:`SourceScores`.  With a sequence of nodes and the matching
        sequence of distributions — how the query services score a whole
        batch — the sources share each step's array operations and a list
        comes back, each entry bitwise what the one-node call returns.
        """
        single = isinstance(node, (int, np.integer))
        scores = propagate_scores(
            [node] if single else node,
            [distributions] if single else distributions,
            self.transition, self.transition_t, self.index.diagonal,
            self.params.c, self.params.walk_steps,
        )
        return scores[0] if single else scores

    def top_k(self, node: int, k: int = 10, walkers: Optional[int] = None,
              include_self: bool = False) -> List[Tuple[int, float]]:
        """Top-``k`` most similar nodes to ``node`` by MCSS scores."""
        return self._source_scores(node, walkers).top_k(
            k, include_self=include_self)

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
