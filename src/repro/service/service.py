"""The online SimRank query service.

:class:`QueryService` is the serving layer on top of the core query engine:
it owns a persistently loaded graph + diagonal index, deduplicates and
batches concurrent queries so distributions shared between them are
simulated once (:mod:`repro.service.batching`), keeps one LRU cache of
per-source walk distributions and source scores so repeated traffic skips
simulation and propagation (:mod:`repro.service.cache`), and accepts **live edge
insertions** that are folded into the index incrementally between query
batches (a bounded queue here, the re-index in
:class:`~repro.core.sharding.ShardedIncrementalWalker`).

Only the offline phase is partitioned, as in the paper, where workers
estimate rows of the indexing system but each holds the whole broadcast
diagonal: ``ShardingParams.num_shards`` (``K``, 1 by default) is the most
row tasks a build or an update splits its rows into
(:class:`~repro.core.sharding.ShardedIncrementalWalker`, through an
executor backend).  No shard assignment is kept: the query path walks the
whole graph, :attr:`~QueryService.index_version` bumps once per applied
update, and one :class:`~repro.service.cache.WalkDistributionCache` of
``cache_capacity × K`` entries per kind holds the walk distributions *and*
the scores (with their memoised top-k rankings) of every source; an update
invalidates the distributions inside its affected ball and drops every
score entry.

A batch's cache misses are simulated in one scatter
(:func:`repro.service.sharded.simulate_misses`): in the serving thread, or
on a persistent serve pool once each run carries a grain of walker-steps
(:data:`repro.service.sharded.SCATTER_GRAIN`); scoring and ranking
run in the serving process: one support-sized propagation per batch over
the sources no score entry answered, one ranking per distinct ``(source,
k)`` and version.  The service is thread-safe:
concurrent batches and live updates serialise on an internal lock, while a
drain's expensive re-index runs outside it.

Determinism is the design invariant: for a fixed seed, every answer the
service produces — batched, cached, or one-off, at any shard count and
backend — is bitwise-identical to the direct core computation for the
same source nodes, because all paths consume the same per-source
``(seed, source)`` random stream and share the scoring code of
:class:`repro.core.queries.QueryEngine`.  Updates keep the invariant: after
any sequence of :meth:`QueryService.add_edges` calls the served index is
bitwise-identical to one built from scratch on the updated graph, and only
cache entries inside the update's affected ball are dropped.

Every batch answer carries the service's monotonically increasing
:attr:`~QueryService.index_version` (see :class:`BatchAnswers`), so callers
interleaving queries with updates can detect which graph generation an
answer was computed against.

Example
-------
>>> from repro.graph import generators
>>> from repro.config import ShardingParams, SimRankParams
>>> from repro.core.diagonal import build_diagonal_index
>>> from repro.service import PairQuery, QueryService, TopKQuery
>>> graph = generators.copying_model_graph(120, out_degree=5, seed=1)
>>> params = SimRankParams.fast_defaults()
>>> service = QueryService(graph, build_diagonal_index(graph, params), params)
>>> answers = service.run_batch([PairQuery(3, 7), TopKQuery(3, k=5)])
>>> 0.0 <= answers[0] <= 1.0
True
>>> sharded = QueryService.build(graph, params,
...                              sharding=ShardingParams(num_shards=4))
>>> sharded.run_batch([PairQuery(3, 7), TopKQuery(3, k=5)]) == answers
True
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.config import (
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.core.index import DiagonalIndex, SnapshotStore
from repro.core.montecarlo import WalkDistributions
from repro.core.queries import (
    QueryEngine,
    definitional_pair_score,
    pairs_that_can_meet,
)
from repro.core.sharding import (
    MutationResult,
    ShardedIncrementalWalker,
    build_sharded_index,
)
from repro.engine.executor import make_backend
from repro.errors import CloudWalkerError
from repro.graph.digraph import DiGraph
from repro.service.batching import (
    BatchPlan,
    PairQuery,
    Query,
    SourceQuery,
    TopKQuery,
    plan_batch,
)
from repro.service.cache import ScoreEntry, WalkDistributionCache
from repro.service.sharded import simulate_misses

PathLike = Union[str, os.PathLike]

Answer = Any
"""A query answer: float (pair), ndarray (source) or ranking list (top-k)."""

Edge = Tuple[int, int]


class BatchAnswers(List[Answer]):
    """The answers of one batch, tagged with the index version that made them.

    Behaves exactly like the plain list of answers it used to be (indexing,
    iteration, equality with lists), plus an :attr:`index_version` attribute:
    the value of :attr:`QueryService.index_version` at the moment the batch
    executed.  A caller interleaving queries with updates compares versions
    across batches to detect answers computed against an older graph.
    """

    index_version: int

    def __init__(self, answers: Sequence[Answer], index_version: int) -> None:
        super().__init__(answers)
        self.index_version = index_version


class QueryService:
    """Batched, cached SimRank query serving over a loaded index.

    Parameters
    ----------
    graph:
        The graph queries run against.
    index:
        A built or loaded :class:`DiagonalIndex`, validated against
        ``graph``.
    params:
        Algorithmic parameters; defaults to the parameters the index was
        built with, which is what keeps answers reproducible across restarts.
    service_params:
        Cache and serving knobs.  The service keeps one LRU of
        ``cache_capacity × K`` entries per kind: up to ``K * cache_capacity``
        distributions and as many score entries.  ``serve_backend`` /
        ``serve_workers`` select the persistent executor pool a batch's
        cache-miss simulation crosses to when its runs carry the grain
        (release it with :meth:`close`).
    update_params:
        Live-update knobs (pending-edge queue bound, node-growth limit,
        snapshot cadence).
    sharding:
        Row-task count ``K`` and build backend; defaults to one task.

    Attributes
    ----------
    last_batch_payload_bytes:
        Pickled task bytes the most recent batch sent to a ``processes``
        serve pool: its cache-miss simulation tasks, each a graph handle
        plus a run of source ids.  Zero for a fully cached batch, a batch
        walked inline, and on the serial backend; accumulated in
        ``stats()["scatter_payload_bytes"]``.
    """

    last_batch_payload_bytes: int

    def __init__(
        self,
        graph: DiGraph,
        index: DiagonalIndex,
        params: Optional[SimRankParams] = None,
        service_params: Optional[ServiceParams] = None,
        update_params: Optional[UpdateParams] = None,
        sharding: Optional[ShardingParams] = None,
    ) -> None:
        index.validate_for(graph)
        self.sharding = sharding or ShardingParams()
        self.graph = graph
        self.index = index
        self.params = params or index.params
        self.service_params = service_params or ServiceParams()
        self.update_params = update_params or UpdateParams()
        self.budget_calibration = None
        self.query_params = self._derive_query_params()
        self.query_engine = QueryEngine(graph, index, self.query_params)
        # The index maintainer (attached on the first update unless a build
        # or snapshot supplies it) and the deferred-edge queue it drains.
        self._walker: Optional[ShardedIncrementalWalker] = None
        self._pending: List[Edge] = []
        self._version = 1
        self._counters: Dict[str, int] = {
            "queries": 0, "pair_queries": 0, "dead_end_pairs": 0,
            "unmeetable_pairs": 0, "source_queries": 0, "topk_queries": 0,
            "batches": 0,
            "sources_simulated": 0, "misses_walked_inline": 0,
            "sources_deduplicated": 0, "updates_applied": 0, "edges_added": 0,
            "snapshots_written": 0, "scatter_hops": 0, "scatter_payload_bytes": 0,
        }
        self.cache = WalkDistributionCache(
            self.service_params.cache_capacity * self.num_shards)
        # Two reentrant locks with a strict acquisition order —
        # ``_update_lock`` before ``_lock``, never the reverse:
        #
        # * ``_update_lock`` (outer) owns the walker: the pending queue
        #   and the expensive incremental re-index.  Drains hold ONLY this
        #   lock while re-indexing, so readers keep serving the previous
        #   consistent graph/index/engine objects in the meantime.
        # * ``_lock`` (inner) owns the served state: batches, the
        #   swap-in of an applied update (:meth:`_adopt_mutation`),
        #   snapshots and stats.  Concurrent callers can never observe a
        #   half-applied update; the cache-miss simulation *inside* a
        #   batch that carries the grain still fans out through the serve
        #   pool below.
        self._update_lock = threading.RLock()
        self._lock = threading.RLock()
        self._serve_backend = make_backend(
            self.service_params.serve_backend,
            max_workers=self.service_params.serve_workers,
        )
        self.last_batch_payload_bytes = 0

    def _derive_query_params(self) -> SimRankParams:
        """Serving-time parameters: ``self.params`` itself in exact mode.

        Exact mode (no ``accuracy_budget``) returns the *identity* object,
        so every query-path read of ``self.query_params`` sees bitwise the
        same values as before the approximate mode existed.  With a budget,
        a reduced ``(query_walkers, walk_steps)`` operating point is taken
        from ``ServiceParams.approx_walkers`` / ``approx_steps`` when set,
        otherwise calibrated here against exact linearized ground truth
        (quadratic in graph size — precalibrate for large graphs).  Index
        maintenance keeps using the exact ``self.params`` either way.
        """
        budget = self.service_params.accuracy_budget
        if budget is None:
            return self.params
        walkers = self.service_params.approx_walkers
        steps = self.service_params.approx_steps
        if walkers is None:
            from repro.analysis.accuracy import calibrate_query_budget

            calibration = calibrate_query_budget(
                self.graph, self.index, self.params, budget
            )
            self.budget_calibration = calibration
            walkers = calibration.walkers
            if steps is None:
                steps = calibration.walk_steps
        if steps is None:
            steps = self.params.walk_steps
        return self.params.with_(query_walkers=walkers, walk_steps=steps)

    # ------------------------------------------------------------------ #
    # Cold start
    # ------------------------------------------------------------------ #
    @classmethod
    def from_index_file(
        cls,
        graph: DiGraph,
        path: PathLike,
        params: Optional[SimRankParams] = None,
        service_params: Optional[ServiceParams] = None,
        update_params: Optional[UpdateParams] = None,
        sharding: Optional[ShardingParams] = None,
    ) -> "QueryService":
        """Cold-start a service from a persisted index — no re-indexing.

        The index file carries the parameters it was built with, so a
        restarted service answers queries identically to the one that
        built it (provided ``params`` is left at its default).  It carries
        no linear system, so the first update estimates it once.
        """
        return cls(graph, DiagonalIndex.load(path), params=params,
                   service_params=service_params, update_params=update_params,
                   sharding=sharding)

    @classmethod
    def build(
        cls,
        graph: DiGraph,
        params: Optional[SimRankParams] = None,
        service_params: Optional[ServiceParams] = None,
        update_params: Optional[UpdateParams] = None,
        sharding: Optional[ShardingParams] = None,
    ) -> "QueryService":
        """Build an index for ``graph`` and serve it, update-ready.

        The row tasks run through the executor backend of ``sharding`` and
        are gathered into one solve, so the served index is
        bitwise-identical at every shard count.  The service keeps the
        linear system in memory, so the first :meth:`add_edges` pays only
        for its affected rows — unlike a service constructed around a
        pre-built index, whose first update must re-estimate the system
        once.
        """
        params = params or SimRankParams.paper_defaults()
        sharding = sharding or ShardingParams()
        index, walker = build_sharded_index(graph, sharding, params)
        service = cls(graph, index, params=params,
                      service_params=service_params,
                      update_params=update_params, sharding=sharding)
        service._walker = walker
        return service

    @classmethod
    def from_snapshot(
        cls,
        graph: DiGraph,
        directory: PathLike,
        params: Optional[SimRankParams] = None,
        service_params: Optional[ServiceParams] = None,
        update_params: Optional[UpdateParams] = None,
        sharding: Optional[ShardingParams] = None,
    ) -> "QueryService":
        """Cold-start from the newest snapshot of a lineage.

        Restores the broadcast diagonal and — when the snapshot carries
        one — the linear system, byte for byte, so the restarted service
        resumes incremental updates without re-estimating anything,
        continues the version sequence where the snapshotting service left
        off, and snapshots back into the same lineage.  ``sharding`` may
        name any ``K``: answers never depended on it.  ``graph`` must be
        the graph the snapshot was taken of.
        """
        update_params = update_params or UpdateParams()
        store = SnapshotStore(directory, retain=update_params.snapshot_retain)
        version, index, system = store.load()
        service = cls(graph, index, params=params,
                      service_params=service_params, update_params=update_params,
                      sharding=sharding)
        service._version = version
        if system is not None:
            service._ensure_walker(system)
        return service

    @property
    def num_shards(self) -> int:
        """``K``: the most row tasks a build or an update runs."""
        return self.sharding.num_shards

    # ------------------------------------------------------------------ #
    # Live updates
    # ------------------------------------------------------------------ #
    @property
    def index_version(self) -> int:
        """Monotonically increasing generation of the served index.

        Starts at 1 (or at the restored snapshot's version) and increases by
        one per applied update.  Carried on
        every :class:`BatchAnswers`, so callers can detect answers computed
        against a stale graph.
        """
        return self._version

    @property
    def pending_updates(self) -> int:
        """Edges queued via ``add_edges(..., defer=True)``, not yet applied."""
        return len(self._pending)

    def _ensure_walker(self, system: Optional[sparse.spmatrix] = None
                       ) -> ShardedIncrementalWalker:
        if self._walker is None:
            # Attaching to a pre-built index estimates the linear system for
            # the current graph once — in row tasks, through the build
            # backend — unless a snapshot supplies ``system``; from then on
            # updates are incremental.  build() skips this.
            walker = ShardedIncrementalWalker(
                self.graph, self.num_shards, params=self.params,
                backend=make_backend(self.sharding.backend,
                                     max_workers=self.sharding.max_workers),
            )
            walker.attach(self.index, system=system)
            self._walker = walker
        return self._walker

    def validate_edges(self, edges: Sequence[Edge]) -> List[Edge]:
        """Normalise and validate endpoints *before* any edge is accepted.

        Validating at intake (not at apply time) is what keeps a deferred
        queue unpoisonable: a bad edge is rejected on the call that submits
        it, instead of wedging every later drain.  Endpoints must be
        non-negative and may not implicitly grow the graph by more than
        ``max_node_growth`` nodes.  :meth:`add_edges` calls it, and so does
        any intake that buffers edges before handing them over (the HTTP
        tier's ``/update``); the graph only grows, so an edge valid at
        intake is valid when it is applied.  Raises
        :class:`~repro.errors.CloudWalkerError` naming the first bad edge.
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

    def add_edges(self, edges: Sequence[Edge],
                  defer: bool = False) -> Optional[MutationResult]:
        """Insert edges into the served graph.

        With ``defer=False`` (default) the update — plus anything already
        queued — is applied now as one incremental re-index.  With
        ``defer=True`` the edges are only queued; the queue is drained at
        the start of the next :meth:`run_batch` (or by an explicit
        :meth:`flush_updates`), so a burst of updates between two query
        batches costs one combined re-index instead of one each.  The
        queue is bounded by ``UpdateParams.max_pending_edges``: a deferred
        batch that would overflow it drains the queue eagerly first, and a
        single batch larger than the bound is simply applied immediately.

        Edges are validated first (:meth:`validate_edges`: negative
        endpoints, runaway node growth), so a bad edge fails here — naming
        it — instead of poisoning the queue, and a refused batch changes
        nothing.  The re-index holds only the update lock — in-flight query
        batches keep serving the previous consistent version until the
        swap-in.

        Returns the :class:`~repro.core.sharding.MutationResult` of the
        applied update; None when deferring, or when every submitted edge
        already existed (a graph no-op: no re-index, no version bump).
        """
        with self._update_lock:
            edges = self.validate_edges(edges)
            bound = self.update_params.max_pending_edges
            # A batch too large to ever queue is applied now (never lose
            # edges).
            if not defer or len(edges) > bound:
                return self._apply_updates(edges)
            if len(self._pending) + len(edges) > bound:
                self.flush_updates()
            self._pending.extend(edges)
            return None

    def flush_updates(self) -> Optional[MutationResult]:
        """Apply all queued edge insertions as one incremental re-index.

        The re-index holds only the update lock (serialising with other
        updates), while in-flight and new query batches proceed under the
        serve lock against the previous graph/index/engine objects — which
        stay consistent because the walker builds *new* objects and
        :meth:`_adopt_mutation` re-points the service at them atomically
        at the very end.
        Returns the applied :class:`~repro.core.sharding.MutationResult`,
        or None when the queue was empty (or held only already-present
        edges).
        """
        with self._update_lock:
            if not self._pending:
                return None
            return self._apply_updates(())

    def _apply_updates(self, edges: Sequence[Edge]) -> Optional[MutationResult]:
        """Drain the queue plus ``edges`` as ONE re-index; swap the result in.

        Batching the drain matters: the affected balls of queued edges
        usually overlap, so one combined update re-estimates their union
        once.  The queue is cleared only once the re-index succeeded, so a
        failed one loses no queued edge — the next drain applies them.
        """
        result = self._ensure_walker().add_edges(self._pending + list(edges))
        self._pending = []
        if result is not None:
            self._adopt_mutation(result)
        return result

    def _adopt_mutation(self, result: MutationResult) -> None:
        """Swap in the post-update state and invalidate, atomically.

        The cheap, state-swapping half of an update, run under the serve
        lock after the expensive re-index (which held only the update
        lock): re-points the service at the walker's new graph/index and
        a query engine over them, invalidates exactly the affected sources'
        distributions, drops every score entry (they were propagated against
        the diagonal the update just re-solved), and bumps the version
        together — so a concurrent batch sees either the complete old state
        or the complete new one, never a mixture.
        """
        with self._lock:
            self.graph = self._walker.graph
            self.index = self._walker.index
            self.query_engine = QueryEngine(self.graph, self.index,
                                            self.query_params)
            self._version += 1
            self.cache.invalidate_sources(result.affected)
            self.cache.drop_scores()
            self._counters["updates_applied"] += 1
            self._counters["edges_added"] += result.edges_added
            self._maybe_auto_snapshot()

    def _maybe_auto_snapshot(self) -> None:
        cadence = self.update_params.snapshot_every
        if cadence and self._counters["updates_applied"] % cadence == 0:
            self.save_snapshot()

    def save_snapshot(self, directory: Optional[PathLike] = None) -> Tuple[int, str]:
        """Persist one snapshot at the current version.

        Writes the diagonal and — when the service maintains one — the
        linear system through :class:`~repro.core.index.SnapshotStore`.
        ``directory`` defaults to ``update_params.snapshot_dir``.
        Returns ``(version, directory)``.  Saving the same version twice is
        a no-op (``snapshots_written`` does not move); a directory ahead of
        this service is rejected — it is another lineage.  Taking the
        update lock before the serve lock means a snapshot never reads the
        system mid-way through a detached re-index.
        """
        with self._update_lock, self._lock:
            directory = (directory if directory is not None
                         else self.update_params.snapshot_dir)
            if directory is None:
                raise CloudWalkerError(
                    "no snapshot directory: pass one or set "
                    "UpdateParams.snapshot_dir"
                )
            store = SnapshotStore(directory,
                                  retain=self.update_params.snapshot_retain)
            latest = store.latest_version()
            if latest is not None and latest > self._version:
                raise CloudWalkerError(
                    f"snapshot directory {directory} is at version {latest}, "
                    f"ahead of this service (version {self._version})"
                )
            if latest != self._version:
                store.save_snapshot(
                    self.index,
                    system=(self._walker.system
                            if self._walker is not None else None),
                    version=self._version)
                self._counters["snapshots_written"] += 1
            return self._version, str(store.directory)

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def run_batch(self, queries: Sequence[Query]) -> BatchAnswers:
        """Answer a batch of queries; answers align with the input order.

        Queued graph updates are applied first — unless another thread is
        already draining them (a non-blocking acquisition of the update
        lock), in which case the batch serves the previous consistent
        version, which the in-flight drain swaps out atomically when done.
        The batch itself then runs under the serve lock, so the returned
        :class:`BatchAnswers` is always self-consistent with the
        :attr:`index_version` it carries.

        The batch runs as one pipeline — look up scores, plan, resolve
        distributions, resolve scores, assemble — in which every piece of
        work is done once per *distinct* key.  A pair query whose score
        SimRank's definition fixes
        (:func:`~repro.core.queries.definitional_pair_score`: a self-pair,
        or a pair with an endpoint of in-degree 0 in the served graph) is
        answered ``1.0`` / ``0.0`` and never enters the pipeline: no cache
        lookup, simulation or combine — ``0.0`` is what the combine returns
        for a dead-end pair anyway; those answered ``0.0`` count in the
        ``dead_end_pairs`` stats key.  The pairs left take one batched
        reachability test on the served graph at the served walk length
        (:func:`~repro.core.queries.pairs_that_can_meet`): a pair whose
        endpoints' level sets share no node at any step is answered
        ``0.0``, bit for bit the combine's answer, the same way, and
        counted in ``unmeetable_pairs``.  First each distinct source of
        the batch's source and top-k queries is looked up as a score entry
        of the cache (keyed by the source id): a hit is the source's scores
        as an earlier batch propagated them at this index version, and its
        queries go straight to assembly.  Only the remaining queries — the
        misses and every pair query that needs walks — are planned: a
        source's distributions come from the cache or one multi-source walk
        simulation of the batch's misses, its scores from one propagation
        over the supports of the missing sources, stored as score entries
        for the batches to come.  A batch whose queries all hit (or take
        the definitional shortcut) runs no plan, simulation or
        propagation.  A miss runs exactly the pipeline a service with
        ``cache_capacity=0`` runs for every query; there is no second path.
        Answer types by query: :class:`PairQuery` -> float,
        :class:`SourceQuery` -> dense score vector (built from the entry's
        support record), :class:`TopKQuery` -> ``[(node, score), ...]``
        (ranked once per ``k`` on the entry); repeated queries get equal
        but distinct objects.
        """
        if self._update_lock.acquire(blocking=False):
            try:
                self.flush_updates()
            finally:
                self._update_lock.release()
        with self._lock:
            # A batch sends the pool at most one scatter, its cache-miss
            # simulation fan-out; the cumulative counter's delta is that
            # scatter's bytes, and zero when everything was cached or the
            # misses were walked inline.
            payload_before = getattr(self._serve_backend, "total_payload_bytes",
                                     None)
            queries = list(queries)
            for query in queries:
                self._validate_query(query)
            scored = list(dict.fromkeys(
                query.source for query in queries
                if not isinstance(query, PairQuery)))
            entries = self._lookup_scores(scored)
            # Read under the serve lock: the graph an update swaps in ends
            # a dead end's shortcut in the same swap.
            fixed = [definitional_pair_score(self.graph, query.source,
                                             query.target)
                     if isinstance(query, PairQuery) else None
                     for query in queries]
            dead_ends = fixed.count(0.0)
            # One reachability test for the pairs left: a pair whose walks
            # cannot meet scores 0.0 without walking.
            left = [position for position, (query, score)
                    in enumerate(zip(queries, fixed))
                    if isinstance(query, PairQuery) and score is None]
            can_meet = pairs_that_can_meet(
                self.graph, [queries[p].source for p in left],
                [queries[p].target for p in left],
                self.query_params.walk_steps)
            unmeetable = [p for p, meets in zip(left, can_meet) if not meets]
            for position in unmeetable:
                fixed[position] = 0.0
            # Only what neither the definition nor a score entry answers
            # goes down the pipeline.
            pending = [
                query for query, score in zip(queries, fixed)
                if score is None and (isinstance(query, PairQuery)
                                      or query.source not in entries)]
            distributions: Dict[int, WalkDistributions] = {}
            if pending:
                plan = plan_batch(pending)
                distributions = self._resolve_distributions(plan)
                entries.update(self._resolve_scores(pending, distributions))
                self._counters["sources_deduplicated"] += plan.deduplicated
            answers = [self._assemble(query, score, distributions, entries)
                       for query, score in zip(queries, fixed)]
            self._counters["dead_end_pairs"] += dead_ends
            self._counters["unmeetable_pairs"] += len(unmeetable)
            self._counters["batches"] += 1
            self._counters["queries"] += len(queries)
            if payload_before is not None:
                delta = self._serve_backend.total_payload_bytes - payload_before
                self.last_batch_payload_bytes = delta
                self._counters["scatter_payload_bytes"] += delta
            return BatchAnswers(answers, self._version)

    def _lookup_scores(self, sources: Sequence[int]) -> Dict[int, ScoreEntry]:
        """The batch's distinct scored sources already propagated at this version.

        Each source is looked up as a score entry under its id; a hit is
        valid because every applied update drops all score entries
        (:meth:`_adopt_mutation`).
        """
        found: Dict[int, ScoreEntry] = {}
        for source in sources:
            entry = self.cache.get_scores(source)
            if entry is not None:
                found[source] = entry
        return found

    def _validate_query(self, query: Query) -> None:
        self.graph.check_node(query.source)
        if isinstance(query, PairQuery):
            self.graph.check_node(query.target)
        elif isinstance(query, TopKQuery):
            if query.k < 1:
                raise CloudWalkerError(f"topk requires k >= 1, got {query.k}")
        elif not isinstance(query, SourceQuery):
            raise CloudWalkerError(f"unknown query type {type(query).__name__!r}")

    def _resolve_distributions(
        self, plan: BatchPlan
    ) -> Dict[int, WalkDistributions]:
        """Look every source of the batch up in the cache; simulate the rest.

        The misses are simulated in one ascending scatter
        (:func:`~repro.service.sharded.simulate_misses`: inline, or on the
        serve pool when the batch carries the grain) and stored in the
        cache in that order.
        """
        resolved: Dict[int, WalkDistributions] = {}
        missing: List[int] = []
        for source in plan.sources:
            cached = self.cache.get(source)
            if cached is not None:
                resolved[source] = cached
            else:
                missing.append(source)
        if missing:
            simulated, hops = simulate_misses(
                self._serve_backend, self.graph, sorted(missing),
                self.query_params, self.query_params.query_walkers)
            self._counters["sources_simulated"] += len(simulated)
            self._counters["scatter_hops"] += hops
            if not hops:
                self._counters["misses_walked_inline"] += len(simulated)
            for source, distribution in simulated.items():
                resolved[source] = distribution
                self.cache.put(source, distribution)
        return resolved

    def _resolve_scores(
        self, queries: Sequence[Query],
        distributions: Dict[int, WalkDistributions],
    ) -> Dict[int, ScoreEntry]:
        """Score every distinct source of the source / top-k ``queries`` once.

        One propagation for the whole batch
        (:meth:`~repro.core.queries.QueryEngine.propagate_source` with a
        sequence): a source three queries ask about is scored once, and
        distinct sources share each step's array operations.  Each score
        record holds the source's positive support only; nothing here is
        ``n`` floats wide except the columns dense enough to take the dense
        product.  Each record is stored as a score entry, whose rankings
        (:meth:`~repro.core.queries.SourceScores.top_k`, in the canonical
        order) are memoised per ``k``, so nothing splits a ranking and
        nothing needs merging.
        """
        sources = list(dict.fromkeys(
            query.source for query in queries
            if not isinstance(query, PairQuery)
        ))
        if not sources:
            return {}
        scored = self.query_engine.propagate_source(
            sources, [distributions[source] for source in sources]
        )
        return {
            source: self.cache.put_scores(source, scores)
            for source, scores in zip(sources, scored)
        }

    def _assemble(
        self, query: Query, fixed: Optional[float],
        distributions: Dict[int, WalkDistributions],
        entries: Dict[int, ScoreEntry],
    ) -> Answer:
        """One query's answer from the batch's resolved stages.

        ``fixed`` is a pair's score when it was answered unwalked, None
        when it was walked.
        Source and top-k answers are fresh objects: a repeated query gets
        an equal but distinct one.  A source answer is the one place a
        score record becomes a dense vector.
        """
        if isinstance(query, PairQuery):
            self._counters["pair_queries"] += 1
            if fixed is not None:
                return fixed
            return self.query_engine.combine_pair(
                distributions[query.source], distributions[query.target]
            )
        if isinstance(query, SourceQuery):
            self._counters["source_queries"] += 1
            return entries[query.source].scores.dense()
        self._counters["topk_queries"] += 1
        return entries[query.source].top_k(query.k)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the service's persistent executor pools.

        Releases the query-time serve pool and, when a walker exists, the
        build backend its :class:`~repro.core.sharding.
        ShardedIncrementalWalker` fans re-estimation out through —
        including every **resident shared-memory segment** either backend
        registered, which must be unlinked even when a pool died mid-batch
        (closing a broken ``ProcessBackend`` never raises; resident
        release is a parent-side unlink).  The two backends are closed in
        a ``try/finally`` chain so a failure releasing one can never leak
        the other's segments.  Safe to call repeatedly, and the service
        stays usable afterwards — pooled backends recreate their workers,
        and residency re-registers, on the next scatter — so ``close`` is
        about releasing worker processes and memory, not about ending the
        service's life.  The CLI serve loop, the benchmarks and the tests
        call it via ``with service: ...``.
        """
        with self._update_lock, self._lock:
            try:
                self._serve_backend.close()
            finally:
                if self._walker is not None:
                    self._walker.backend.close()

    def __enter__(self) -> "QueryService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: release pooled resources via :meth:`close`."""
        self.close()

    # ------------------------------------------------------------------ #
    # One-off convenience queries (single-element batches)
    # ------------------------------------------------------------------ #
    def single_pair(self, node_i: int, node_j: int) -> float:
        """SimRank score of one pair, served through the cache."""
        return self.run_batch([PairQuery(node_i, node_j)])[0]

    def single_source(self, node: int) -> np.ndarray:
        """Score vector of one source, served through the cache."""
        return self.run_batch([SourceQuery(node)])[0]

    def top_k(self, node: int, k: Optional[int] = None) -> List:
        """Top-``k`` ranking for one source, served through the cache."""
        k = k if k is not None else self.service_params.default_top_k
        return self.run_batch([TopKQuery(node, k=k)])[0]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Serving counters and cache effectiveness.

        Cache figures describe the service's one cache.
        ``serve_backend`` / ``serve_workers`` describe the simulation
        scatter pool; ``scatter_hops`` counts the runs handed to it and
        ``misses_walked_inline`` the misses walked in the serving thread.
        The whole snapshot is taken under the serve lock, so its figures
        are mutually consistent even while batches and updates run
        concurrently.
        """
        with self._lock:
            return {
                **self._counters,
                "index_version": self._version,
                "pending_updates": self.pending_updates,
                "approx_mode": self.query_params is not self.params,
                "accuracy_budget": self.service_params.accuracy_budget,
                "query_walkers_served": self.query_params.query_walkers,
                "walk_steps_served": self.query_params.walk_steps,
                "num_shards": self.num_shards,
                "serve_backend": self.service_params.serve_backend,
                "serve_workers": self.service_params.serve_workers,
                "cache_size": len(self.cache),
                "cache_capacity": self.cache.capacity,
                "cache_memory_bytes": self.cache.memory_bytes(),
                "cache_score_entries": self.cache.score_entries,
                **{f"cache_{key}": value
                   for key, value in self.cache.stats.to_dict().items()},
                "last_batch_payload_bytes": self.last_batch_payload_bytes,
            }

    def __repr__(self) -> str:
        return (
            f"QueryService(graph={self.graph.name!r}, "
            f"n_nodes={self.graph.n_nodes}, shards={self.num_shards}, "
            f"version={self._version}, "
            f"queries={self._counters['queries']})"
        )
