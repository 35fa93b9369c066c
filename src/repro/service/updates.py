"""Live graph updates for the query service.

The paper's index targets a static snapshot, but a served graph changes
while queries are in flight.  :class:`GraphMutator` is the service-side
owner of that change stream: it holds the incremental maintainer
(:class:`repro.core.incremental.IncrementalCloudWalker`) plus a bounded
queue of pending edge insertions, and turns each drain into one incremental
re-index whose *affected-source set* the service uses to invalidate exactly
the stale walk-distribution cache entries
(:meth:`repro.service.cache.WalkDistributionCache.invalidate_sources`).

Correctness contract (see ``docs/architecture.md``):

* the maintainer runs with per-source random streams and cold-start solves,
  so after any sequence of updates the index is **bitwise-identical** to one
  built from scratch on the updated graph;
* the affected set is the forward ball of radius ``T`` around the new
  edges' heads (:func:`repro.core.walks.forward_reachable_set`) — sources
  outside it have bitwise-unchanged walk distributions, which is what
  makes keeping their cache entries safe.

Example
-------
>>> from repro.config import SimRankParams
>>> from repro.core.incremental import IncrementalCloudWalker
>>> from repro.graph import generators
>>> from repro.service.updates import GraphMutator
>>> graph = generators.copying_model_graph(60, out_degree=4, seed=5)
>>> walker = IncrementalCloudWalker(graph, SimRankParams.fast_defaults())
>>> mutator = GraphMutator(walker)
>>> mutator.build()  # doctest: +ELLIPSIS
DiagonalIndex(...)
>>> result = mutator.apply([(0, 30)])
>>> 30 in result.affected
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from scipy import sparse

from repro.config import UpdateParams
from repro.core.incremental import PHASES, IncrementalCloudWalker
from repro.core.index import DiagonalIndex
from repro.errors import CloudWalkerError
from repro.graph.digraph import DiGraph

Edge = Tuple[int, int]


@dataclass(frozen=True)
class MutationResult:
    """Outcome of one applied (possibly batched) graph mutation.

    Attributes
    ----------
    edges_added:
        Number of *new* edge insertions applied in this drain (duplicates
        of existing edges are dropped before the re-index).
    new_nodes:
        Nodes the mutation introduced (edge endpoints beyond the old
        ``n_nodes``).
    affected:
        The affected-source set: every node whose walk distributions — and
        therefore cached entries and index row — may have changed.  New
        nodes are included.
    update_seconds:
        Wall-clock cost of the incremental re-index.
    routing_seconds:
        The slice of ``update_seconds`` spent computing the affected set
        (:func:`repro.core.walks.forward_reachable_set`).
    graph_seconds, rows_seconds, splice_seconds, solve_seconds:
        The other phases of the walker's ``add_edges`` — merging the edges
        into the graph, re-estimating the affected rows, splicing them into
        the linear system, the Jacobi re-solve.  With ``routing_seconds``
        they add up to the walker's own ``update_seconds``
        (:data:`repro.core.incremental.PHASES`).
    """

    edges_added: int
    new_nodes: int
    affected: frozenset
    update_seconds: float
    routing_seconds: float = 0.0
    graph_seconds: float = 0.0
    rows_seconds: float = 0.0
    splice_seconds: float = 0.0
    solve_seconds: float = 0.0

    @property
    def affected_rows(self) -> int:
        """Number of re-estimated index rows."""
        return len(self.affected)


class GraphMutator:
    """Owns the update stream of a live :class:`~repro.service.QueryService`.

    Parameters
    ----------
    walker:
        The configured incremental maintainer the mutator drives — the
        service's :class:`~repro.core.sharding.ShardedIncrementalWalker`;
        it holds the graph (updates replace it; read the current one from
        :attr:`graph`) and the algorithmic parameters.  Subclasses of
        :class:`IncrementalCloudWalker` inherit its per-source streams and
        cold-start solves, which the service's bitwise-reproducibility
        contract relies on.
    update_params:
        Queue bound and node-growth limit.
    """

    def __init__(
        self,
        walker: IncrementalCloudWalker,
        update_params: Optional[UpdateParams] = None,
    ) -> None:
        self.update_params = update_params or UpdateParams()
        self._walker = walker
        self._pending: List[Edge] = []

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> DiGraph:
        """The current (post-update) graph."""
        return self._walker.graph

    @property
    def index(self) -> Optional[DiagonalIndex]:
        """The current index (None until build/attach)."""
        return self._walker.index

    @property
    def system(self) -> Optional[sparse.csr_matrix]:
        """The maintained linear system (persisted by snapshots)."""
        return self._walker.system

    @property
    def pending_edges(self) -> int:
        """Number of queued, not-yet-applied edge insertions."""
        return len(self._pending)

    @property
    def walker(self) -> IncrementalCloudWalker:
        """The incremental maintainer driving re-indexes.

        Exposed so the service can reach the
        :class:`~repro.core.sharding.ShardedIncrementalWalker` surface —
        per-shard system blocks, build timings, its backend — without the
        mutator having to mirror it.
        """
        return self._walker

    def build(self) -> DiagonalIndex:
        """Full build of system + index for the current graph."""
        return self._walker.build()

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def _validated(self, edges: Sequence[Edge]) -> List[Edge]:
        """Normalise and validate endpoints *before* any edge is accepted.

        Validating at intake (not at apply time) is what keeps a deferred
        queue unpoisonable: a bad edge is rejected on the call that submits
        it, instead of wedging every later drain.  Endpoints must be
        non-negative and may not implicitly grow the graph by more than
        ``max_node_growth`` nodes.
        """
        validated: List[Edge] = []
        limit = self.graph.n_nodes + self.update_params.max_node_growth
        for u, v in edges:
            u, v = int(u), int(v)
            if u < 0 or v < 0:
                raise CloudWalkerError(
                    f"edge ({u}, {v}) has a negative endpoint"
                )
            if max(u, v) >= limit:
                raise CloudWalkerError(
                    f"edge ({u}, {v}) would grow the graph past node {limit - 1} "
                    f"(n_nodes={self.graph.n_nodes} + max_node_growth="
                    f"{self.update_params.max_node_growth}); raise "
                    f"UpdateParams.max_node_growth if this is intentional"
                )
            validated.append((u, v))
        return validated

    def enqueue(self, edges: Sequence[Edge]) -> int:
        """Queue validated edge insertions for the next drain.

        Returns the queue size.  Rejects a batch that would overflow
        ``max_pending_edges`` — the service avoids this by draining
        eagerly, or applying an oversized batch immediately.
        """
        edges = self._validated(edges)
        if len(self._pending) + len(edges) > self.update_params.max_pending_edges:
            raise CloudWalkerError(
                f"pending update queue would exceed "
                f"{self.update_params.max_pending_edges} edges; drain first"
            )
        self._pending.extend(edges)
        return len(self._pending)

    def apply(self, edges: Sequence[Edge] = ()) -> Optional[MutationResult]:
        """Drain the queue plus ``edges`` as ONE incremental re-index.

        Batching the drain matters: the affected balls of queued edges
        usually overlap, so one combined update re-estimates their union
        once instead of once per ``add_edges`` call.  Edges the graph
        already contains are dropped first — re-inserting an existing edge
        is a graph no-op and must not cost a re-index, invalidate hot cache
        entries, or bump the version (at-least-once update feeds replay
        constantly).  Returns None when nothing (new) is left to apply.

        The queue is taken up front, so an ``enqueue`` racing with the
        re-index (the service runs it off its serve lock) lands in
        the next drain.  A failed re-index puts the taken edges back at the
        front of the queue, past the ``max_pending_edges`` bound they were
        already admitted under.
        """
        taken, self._pending = self._pending, []
        try:
            batch = self._validated(taken + list(edges))
            edges_before = self.graph.n_edges
            start = time.perf_counter()
            # The walker drops edges the graph already has (and duplicates),
            # so the edge count tells how many insertions were new.
            info = self._walker.add_edges(batch)
        except Exception:
            self._pending = taken + self._pending
            raise
        edges_added = self.graph.n_edges - edges_before
        if not edges_added:
            return None
        return MutationResult(
            edges_added=edges_added,
            new_nodes=int(info["new_nodes"]),
            affected=frozenset(info["affected"]),
            update_seconds=time.perf_counter() - start,
            **{phase: float(info.get(phase, 0.0)) for phase in PHASES},
        )

    def __repr__(self) -> str:
        return (
            f"GraphMutator(graph={self.graph.name!r}, "
            f"n_nodes={self.graph.n_nodes}, pending={self.pending_edges})"
        )
