"""Scatter-gather SimRank serving over a sharded index.

:class:`ShardedQueryService` is the cluster-shaped sibling of
:class:`~repro.service.service.QueryService`: the node space is split across
``K`` shards by a :class:`~repro.graph.partition.ShardPlan`, and every piece
of per-node serving state follows the plan —

* **index maintenance**: each shard owns its nodes' rows of the indexing
  linear system; index builds and incremental updates fan out per shard
  through an executor backend
  (:class:`~repro.core.sharding.ShardedIncrementalWalker`);
* **caches**: one :class:`~repro.service.cache.WalkDistributionCache` per
  shard, holding the walk distributions *and* the ranked top-k answers of
  exactly the sources the shard owns; an update invalidates distributions
  only inside the touched shards, and — because it re-solves the whole
  diagonal — drops the ranked answers of every shard;
* **top-k ranking**: shared with the single-shard service — each distinct
  source of a batch is scored once over its support, and each distinct
  ``(source, k)`` is ranked once over that support
  (:meth:`QueryService._resolve_rankings`), so no shard splits a ranking
  and nothing needs merging;
* **versions**: the global :attr:`~ShardedQueryService.index_version` keeps
  the single-shard semantics (one bump per applied update), while
  :attr:`~ShardedQueryService.shard_versions` records, per shard, the last
  global version that re-estimated one of its rows.

A batch's cache misses are simulated in *one scatter*: the ascending
misses split into ``min(serve_workers, misses)`` contiguous runs on a
persistent executor backend the service owns
(``ServiceParams.serve_backend`` / ``serve_workers``; the same
:func:`repro.core.sharding.run_shard_tasks` primitive the build path fans
out through), and each result is stored in its owning shard's cache.
Every source has its own random stream and the graph is in every worker,
so ownership decides where a distribution is cached, not where it is
simulated.  Scoring and ranking run in the serving process on every
backend: one support-sized propagation per batch, then one ranking per
distinct ``(source, k)``.  The service is **thread-safe**: concurrent
:meth:`~QueryService.run_batch` calls and live updates (immediate or
deferred) serialise on an internal lock, so every
:class:`~repro.service.service.BatchAnswers` is computed against exactly
the index version it reports — never a torn mixture of two generations —
while the simulation runs inside a batch still execute concurrently on
the pool.  Call :meth:`ShardedQueryService.close` (or use the service as a
context manager) to release the pools.

The headline invariant is inherited from the rest of the stack and pinned by
the test suite: **for any number of shards, any strategy and any backend,
every answer — pair, source and top-k, before and after live updates — is
bitwise-identical to the single-shard service's.**  Sharding changes where
work happens and what can run concurrently, never results.  See
``docs/sharding.md`` for the full routing and ranking semantics.

Example
-------
>>> from repro.config import ShardingParams, SimRankParams
>>> from repro.graph import generators
>>> from repro.service import PairQuery, ShardedQueryService, TopKQuery
>>> graph = generators.copying_model_graph(120, out_degree=5, seed=1)
>>> service = ShardedQueryService.build(
...     graph, SimRankParams.fast_defaults(),
...     sharding=ShardingParams(num_shards=4))
>>> answers = service.run_batch([PairQuery(3, 7), TopKQuery(3, k=5)])
>>> 0.0 <= answers[0] <= 1.0
True
"""

from __future__ import annotations

import os
import threading
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import (
    RebalanceParams,
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.core import montecarlo
from repro.core.index import (
    DiagonalIndex,
    ShardedIndex,
    ShardedSnapshotStore,
)
from repro.core.queries import QueryEngine
# benchmarks/spine/spans.py binds merge_top_k here by name; no serving path calls it.
from repro.core.queries import merge_top_k  # noqa: F401
from repro.core.sharding import (
    ShardedIncrementalWalker,
    make_plan,
    run_shard_tasks,
)
from repro.engine.executor import (
    ResidentHandle,
    make_backend,
    resolve_resident,
)
from repro.errors import CloudWalkerError
from repro.graph.digraph import DiGraph
from repro.graph.partition import (
    RebalanceEstimate,
    ShardPlan,
    evaluate_rebalance,
    load_balanced_plan,
    shard_loads,
)
from repro.service.batching import Query, required_sources
from repro.service.cache import CacheStats, WalkDistributionCache
from repro.service.service import BatchAnswers, QueryService
from repro.service.updates import GraphMutator, MutationResult

PathLike = Union[str, os.PathLike]


def _simulate_sources(
    handle: ResidentHandle,
    sources: Sequence[int],
    params: SimRankParams,
    walkers: int,
) -> Dict[int, montecarlo.WalkDistributions]:
    """One run of a batch's cache-miss scatter: one kernel call.

    Module-level (picklable) so the ``processes`` serve backend can ship
    it to a worker.  The task closes over the graph's
    :class:`~repro.engine.executor.ResidentHandle` and its run's source
    ids — O(sources) bytes, independent of graph size: a plain reference
    on ``serial``/``threads``, and a ``processes`` worker materialises the
    graph once per residency epoch
    (:func:`repro.engine.executor.resolve_resident`).  The restored CSR
    arrays are byte-for-byte the service's and every source consumes its
    own ``(seed, source)`` random stream, so however the misses are split
    into runs — in any order, on any backend — the distributions are
    bitwise-identical to one in-process call.
    """
    return montecarlo.estimate_walk_distributions_batch(
        resolve_resident(handle), sources, params, walkers=walkers
    )


class ShardedQueryService(QueryService):
    """A :class:`QueryService` that routes per-node state across ``K`` shards.

    Accepts every query and update the single-shard service does, with the
    same answers (bitwise) and the same ``index_version`` sequence; the
    additional surface is per-shard observability (:meth:`stats`,
    :attr:`shard_versions`), per-shard system blocks in its snapshots (the
    lineage layout both classes share) and rebalancing.  It is the one
    class the CLI and the HTTP tier serve, at ``K = 1`` too.

    Parameters
    ----------
    graph:
        The graph queries run against.
    index:
        A built or loaded index: either a plain :class:`DiagonalIndex`
        (the diagonal is broadcast, shard state starts fresh) or a
        :class:`~repro.core.index.ShardedIndex` restored from a sharded
        snapshot (its plan and shard versions are adopted).
    params:
        Algorithmic parameters; defaults to the index's build parameters.
    service_params:
        Cache and serving knobs.  ``cache_capacity`` is **per shard**: a
        ``K``-shard service can hold up to ``K * cache_capacity``
        distributions (and as many ranked answers), mirroring a real
        deployment where every shard has its own memory budget.
        ``serve_backend`` / ``serve_workers`` select the persistent
        executor pool the cache-miss simulation scatter runs through
        (release it with :meth:`close`).
    update_params:
        Live-update knobs, identical to the single-shard service.
    sharding:
        Shard count / strategy / build backend.  Ignored when ``plan`` (or
        a :class:`ShardedIndex`) already fixes the assignment, except for
        the backend settings.
    plan:
        An explicit node-to-shard assignment, overriding ``sharding``'s
        strategy.
    rebalance_params:
        Knobs of workload-adaptive rebalancing (improvement threshold,
        representativeness minimum, cold weight); see :meth:`rebalance`.

    Attributes
    ----------
    last_batch_payload_bytes:
        Pickled task bytes the most recent batch sent to a ``processes``
        serve pool: its cache-miss simulation tasks, each a graph handle
        plus a run of source ids.  Zero for a fully cached batch and on the
        in-process backends; accumulated in
        ``stats()["scatter_payload_bytes"]``.
    """

    last_batch_payload_bytes: int

    def __init__(
        self,
        graph: DiGraph,
        index: Union[DiagonalIndex, ShardedIndex],
        params: Optional[SimRankParams] = None,
        service_params: Optional[ServiceParams] = None,
        update_params: Optional[UpdateParams] = None,
        sharding: Optional[ShardingParams] = None,
        plan: Optional[ShardPlan] = None,
        rebalance_params: Optional[RebalanceParams] = None,
    ) -> None:
        if isinstance(index, ShardedIndex):
            plan = index.plan if plan is None else plan
            shard_versions: Optional[List[int]] = list(index.shard_versions)
            index = index.index
        else:
            shard_versions = None
        self.sharding = sharding or ShardingParams()
        if plan is None:
            plan = make_plan(graph, self.sharding)
        elif plan.num_shards != self.sharding.num_shards and sharding is not None:
            raise CloudWalkerError(
                f"plan has {plan.num_shards} shards but sharding params say "
                f"{self.sharding.num_shards}"
            )
        self.plan = plan
        self.rebalance_params = rebalance_params or RebalanceParams()
        super().__init__(graph, index, params=params,
                         service_params=service_params,
                         update_params=update_params)
        # The single LRU of the parent is replaced by one cache per shard;
        # `self.cache` stays None so any accidental single-cache use fails
        # loudly instead of silently bypassing the routing layer.
        self.cache = None
        self._fresh_shard_state()
        self.sharded_index = ShardedIndex(
            index=self.index, plan=self.plan,
            shard_versions=shard_versions or [self._version] * self.plan.num_shards,
        )
        # Per-node observed query load (routed sources), the planner's
        # input.  Node-keyed, so it survives plan migrations unchanged.
        self._node_loads: Dict[int, float] = {}
        self._plan_generation = 1
        self._counters["rebalances_applied"] = 0
        # Two reentrant locks with a strict acquisition order —
        # ``_update_lock`` before ``_lock``, never the reverse:
        #
        # * ``_update_lock`` (outer) owns the mutator: the pending queue
        #   and the expensive incremental re-index.  Drains hold ONLY this
        #   lock while re-indexing, so readers keep serving the previous
        #   consistent graph/index/engine objects in the meantime.
        # * ``_lock`` (inner) owns the served state: batches, the
        #   swap-in of an applied update (:meth:`_adopt_mutation`),
        #   snapshots and stats.  Concurrent callers can never observe a
        #   half-applied update; the cache-miss simulation *inside* a
        #   batch still fans out through the serve pool below.
        self._update_lock = threading.RLock()
        self._lock = threading.RLock()
        self._serve_backend = make_backend(
            self.service_params.serve_backend,
            max_workers=self.service_params.serve_workers,
        )
        self.last_batch_payload_bytes = 0
        self._counters["scatter_payload_bytes"] = 0

    def _fresh_shard_state(self) -> None:
        """(Re)create the per-shard serving state for the current plan.

        Called at construction and at the atomic flip of a plan migration:
        per-shard caches start empty (ownership moved, and the plan-keyed
        cache routing must never serve a source from a shard that no
        longer owns it), and per-shard counters restart (they describe load
        *under this plan*).
        """
        self.shard_caches: List[WalkDistributionCache] = [
            WalkDistributionCache(self.service_params.cache_capacity)
            for _ in range(self.plan.num_shards)
        ]
        self._shard_counters: List[Dict[str, Any]] = [
            {"edges_routed": 0, "sources_simulated": 0, "sources_routed": 0}
            for _ in range(self.plan.num_shards)
        ]

    # ------------------------------------------------------------------ #
    # Cold start
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        graph: DiGraph,
        params: Optional[SimRankParams] = None,
        service_params: Optional[ServiceParams] = None,
        update_params: Optional[UpdateParams] = None,
        sharding: Optional[ShardingParams] = None,
        rebalance_params: Optional[RebalanceParams] = None,
    ) -> "ShardedQueryService":
        """Build the index shard-by-shard (concurrently) and serve it.

        The per-shard row estimations run through the executor backend of
        ``sharding`` and are gathered into one solve, so the served index
        is bitwise-identical to :meth:`QueryService.build` with the same
        parameters.  Like the single-shard ``build``, the service keeps the
        linear system in memory, so the first :meth:`add_edges` pays only
        for its affected rows.
        """
        params = params or SimRankParams.paper_defaults()
        sharding = sharding or ShardingParams()
        update_params = update_params or UpdateParams()
        plan = make_plan(graph, sharding)
        walker = ShardedIncrementalWalker(
            graph, plan, params=params, exact=update_params.exact,
            backend=make_backend(sharding.backend,
                                 max_workers=sharding.max_workers),
        )
        mutator = GraphMutator(graph, params, update_params, walker=walker)
        index = mutator.build()
        service = cls(graph, index, params=params,
                      service_params=service_params,
                      update_params=update_params, sharding=sharding, plan=plan,
                      rebalance_params=rebalance_params)
        service._mutator = mutator
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
        rebalance_params: Optional[RebalanceParams] = None,
    ) -> "ShardedQueryService":
        """Cold-start from the newest *consistent* snapshot of any lineage.

        Restores the plan governing that snapshot (a lineage that
        rebalanced serves under its newest adopted plan), the broadcast
        diagonal and — when every shard saved its system block — the
        gathered linear system, so the restarted service resumes
        incremental updates without re-estimating anything.  ``sharding``
        supplies only the executor backend; the shard count and assignment
        always come from the snapshot's persisted plan.
        """
        update_params = update_params or UpdateParams()
        sharding = sharding or ShardingParams()
        store = ShardedSnapshotStore(directory, retain=update_params.snapshot_retain)
        version, sharded_index, system = store.load()
        service = cls(graph, sharded_index, params=params,
                      service_params=service_params, update_params=update_params,
                      sharding=sharding.with_(
                          num_shards=sharded_index.plan.num_shards,
                          strategy=sharded_index.plan.strategy,
                      ),
                      rebalance_params=rebalance_params)
        service._version = version
        if system is not None:
            service._ensure_mutator(system)
        return service

    # ------------------------------------------------------------------ #
    # Shard topology
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Number of shards (``K``) the service routes across."""
        return self.plan.num_shards

    @property
    def shard_versions(self) -> List[int]:
        """Per-shard generations: the global :attr:`index_version` at which
        each shard's index rows were last (re-)estimated.  A shard whose
        version trails the global one simply had no affected rows in the
        updates since — its rows (and cached distributions) are still
        bitwise-current."""
        return list(self.sharded_index.shard_versions)

    def shard_of(self, node: int) -> int:
        """The shard owning ``node`` — its caches and index rows."""
        return self.plan.shard_of(node)

    # ------------------------------------------------------------------ #
    # Lifecycle and concurrency
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the service's persistent executor pools.

        Releases the query-time serve pool and, when a mutator exists, the
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
        about releasing threads/processes/memory, not about ending the
        service's life.  The CLI serve loop, the benchmarks and the tests
        call it via ``with service: ...``.
        """
        with self._update_lock, self._lock:
            try:
                self._serve_backend.close()
            finally:
                if self._mutator is not None:
                    self._mutator.walker.backend.close()

    def run_batch(self, queries: Sequence[Query],
                  walkers: Optional[int] = None,
                  flush_pending: bool = True) -> BatchAnswers:
        """Answer a batch (single-shard semantics), thread-safely.

        Identical to :meth:`QueryService.run_batch` except for the locking
        discipline: the deferred-update queue is drained first — but only
        if no other thread is already draining it (a non-blocking
        acquisition of the update lock), so a batch never stalls behind an
        in-flight re-index; it simply serves the previous consistent
        version, which the in-flight drain will swap out atomically when
        done.  The batch itself — cache resolution, scatter, answers —
        then executes under the serve lock: concurrent batches and update
        swap-ins serialise, so the returned
        :class:`~repro.service.service.BatchAnswers` is always
        self-consistent with the :attr:`~QueryService.index_version` it
        carries.  Within the batch, the cache-miss simulation runs
        concurrently on the serve pool.
        """
        if flush_pending and self._update_lock.acquire(blocking=False):
            try:
                super().flush_updates()
            finally:
                self._update_lock.release()
        with self._lock:
            # A batch sends the pool at most one run, its cache-miss
            # simulation fan-out; the cumulative counter's delta is that
            # run's bytes, and zero when everything was cached.
            before = getattr(self._serve_backend, "total_payload_bytes", None)
            answers = super().run_batch(queries, walkers=walkers,
                                        flush_pending=False)
            if before is not None:
                delta = self._serve_backend.total_payload_bytes - before
                self.last_batch_payload_bytes = delta
                self._counters["scatter_payload_bytes"] += delta
            return answers

    def flush_updates(self) -> Optional[MutationResult]:
        """Drain queued updates with the re-index OFF the serve lock.

        The expensive incremental re-index holds only the update lock
        (serialising with other updates), while in-flight and new query
        batches proceed under the serve lock against the previous
        graph/index/engine objects — which stay internally consistent
        because the mutator builds *new* objects and
        :meth:`_adopt_mutation` re-points the service at them atomically
        under the serve lock at the very end.  The HTTP tier's drain
        strand calls this.  Returns the applied
        :class:`~repro.service.updates.MutationResult`, or None when the
        queue was empty (or contained only already-present edges).
        """
        with self._update_lock:
            return super().flush_updates()

    # ------------------------------------------------------------------ #
    # Live updates (shard-routed)
    # ------------------------------------------------------------------ #
    def _ensure_mutator(self, system: Optional[Any] = None) -> GraphMutator:
        if self._mutator is None:
            walker = ShardedIncrementalWalker(
                self.graph, self.plan, params=self.params,
                exact=self.update_params.exact,
                backend=make_backend(self.sharding.backend,
                                     max_workers=self.sharding.max_workers),
            )
            # Attaching without a snapshot's ``system`` estimates it once —
            # shard-by-shard, concurrently — exactly like the single-shard
            # attach but with the build fanned out.
            walker.attach(self.index, system=system)
            self._mutator = GraphMutator(self.graph, self.params,
                                         self.update_params, walker=walker)
        return self._mutator

    def add_edges(self, edges: Sequence[Tuple[int, int]],
                  defer: bool = False) -> Optional[MutationResult]:
        """Insert edges into the served graph (single-shard semantics).

        Each edge is routed to the shard owning its *head* (the node whose
        in-links change); the per-shard routed counts appear in
        :meth:`stats`.  Application, deferral and the bounded queue behave
        exactly like :meth:`QueryService.add_edges`; the re-index itself
        touches only the shards owning affected rows (their re-estimation
        tasks fan out through the walker's executor backend), and the
        re-index holds only the update lock — in-flight query batches keep
        serving the previous consistent version until the swap-in.
        """
        with self._update_lock:
            with self._lock:
                for shard, routed in self.plan.group_edges(
                        (int(u), int(v)) for u, v in edges).items():
                    self._shard_counters[shard]["edges_routed"] += len(routed)
            return super().add_edges(edges, defer=defer)

    def _adopt_mutation(self, result: MutationResult) -> None:
        """Swap in the post-update state; invalidate per-shard, atomically.

        The sharded counterpart of :meth:`QueryService._adopt_mutation`:
        runs under the serve lock (the expensive re-index already happened,
        possibly detached from it), re-points the service at the mutator's
        new graph/index/engine, invalidates exactly the affected sources'
        distributions in their owning shards' caches, drops the ranking
        entries of *every* shard (they were scored against the diagonal
        the update just re-solved), and bumps the global and touched-shard
        versions together — so a concurrent batch sees either the complete
        old state or the complete new one, never a mixture.
        """
        with self._lock:
            self.graph = self._mutator.graph
            self.index = self._mutator.index
            self.engine = QueryEngine(self.graph, self.index, self.params)
            self._rebuild_query_engine()
            self._version += 1
            touched = self.plan.group_nodes(result.affected)
            for shard, nodes in touched.items():
                self.shard_caches[shard].invalidate_sources(nodes)
            for cache in self.shard_caches:
                cache.drop_rankings()
            self.sharded_index.index = self.index
            self.sharded_index.touch(sorted(touched), self._version)
            self._counters["updates_applied"] += 1
            self._counters["edges_added"] += result.edges_added
            self._maybe_auto_snapshot()

    def save_snapshot(self, directory: Optional[PathLike] = None) -> Tuple[int, str]:
        """Persist one consistent snapshot at the current version.

        :meth:`QueryService.save_snapshot` under both locks: every shard's
        :class:`~repro.core.index.SnapshotStore` receives the broadcast
        diagonal plus its own rows of the linear system (when the service
        maintains one).  Taking the update lock before the serve lock means
        a snapshot can never read the linear system mid-way through a
        detached re-index.
        """
        with self._update_lock, self._lock:
            return super().save_snapshot(directory)

    def _snapshot_state(self) -> Tuple[ShardedIndex,
                                       Optional[List[Any]]]:
        """The served plan's index plus each shard's system rows."""
        shard_systems = None
        if self._mutator is not None and self._mutator.system is not None:
            shard_systems = self._mutator.walker.shard_systems()
        return self.sharded_index, shard_systems

    # ------------------------------------------------------------------ #
    # Workload-adaptive rebalancing
    # ------------------------------------------------------------------ #
    def _load_weights(self, node_loads: Optional[Union[Dict[int, float],
                                                       Sequence[float]]] = None
                      ) -> np.ndarray:
        """Per-node planner weights: cold weight plus observed query load.

        Every node carries ``RebalanceParams.cold_weight`` (a never-queried
        node still costs its shard index rows), plus the
        observed routed-source counts — the service's own ``_node_loads``
        by default, or a caller-supplied dict/array (e.g. structural
        weights for an offline re-plan).  Must be called under ``_lock``
        when reading the live counters.
        """
        n = self.graph.n_nodes
        weights = np.full(n, self.rebalance_params.cold_weight, dtype=np.float64)
        observed = self._node_loads if node_loads is None else node_loads
        if isinstance(observed, dict):
            for node, load in observed.items():
                if 0 <= int(node) < n:
                    weights[int(node)] += float(load)
        else:
            arr = np.asarray(observed, dtype=np.float64)
            if arr.shape != (n,):
                raise CloudWalkerError(
                    f"node_loads must have one entry per node ({n}), "
                    f"got shape {arr.shape}"
                )
            weights += arr
        return weights

    def plan_rebalance(
        self,
        node_loads: Optional[Union[Dict[int, float], Sequence[float]]] = None,
    ) -> Tuple[ShardPlan, RebalanceEstimate]:
        """Propose a plan for the observed load, without migrating.

        Greedy LPT over the per-node weights
        (:func:`repro.graph.partition.load_balanced_plan`), evaluated
        against the serving plan with the critical-path cost model
        (:func:`repro.graph.partition.evaluate_rebalance`).  Read-only:
        returns ``(proposal, estimate)`` and changes nothing, so it is
        safe to call from monitoring paths at any time.
        """
        with self._lock:
            n = self.graph.n_nodes
            weights = self._load_weights(node_loads)
            current_plan = self.plan
        proposal = load_balanced_plan(self.num_shards, weights)
        estimate = evaluate_rebalance(
            shard_loads(current_plan, n, weights),
            shard_loads(proposal, n, weights),
            improvement_threshold=self.rebalance_params.improvement_threshold,
            min_total_load=(self.rebalance_params.min_sources
                            + n * self.rebalance_params.cold_weight),
        )
        return proposal, estimate

    def rebalance(
        self,
        plan: Optional[ShardPlan] = None,
        node_loads: Optional[Union[Dict[int, float], Sequence[float]]] = None,
        force: bool = False,
    ) -> Dict[str, Any]:
        """Migrate to a better-balanced plan, live, without wrong answers.

        The migration protocol, in order:

        1. **Drain** the deferred-update queue (the whole migration holds
           the update lock, so no new edges can slip into the mutator that
           is about to be replaced — ``add_edges`` blocks until the flip).
        2. **Plan**: propose via :meth:`plan_rebalance` (or adopt the
           caller's ``plan``, which must keep the shard count) and
           evaluate it.  Unless ``force``, a proposal that does not clear
           ``RebalanceParams.improvement_threshold`` — or equals the
           serving plan — returns ``{"applied": False, ...}`` untouched.
        3. **Build**: re-slice the maintained linear system into the
           proposal's shard blocks, in-process
           (:meth:`~repro.core.sharding.ShardedIncrementalWalker.
           with_plan`).  Queries keep serving the old plan throughout —
           only the update lock is held.  Any failure here propagates and
           leaves the service byte-for-byte on the old plan: nothing
           served has been touched yet.
        4. **Flip**, atomically under the serve lock: adopt the plan,
           reset the per-shard caches/counters/owned-node arrays
           (:meth:`_fresh_shard_state`), bump the version, and install
           the new walker's mutator.  A concurrent batch sees either the complete
           old topology or the complete new one.
        5. **Persist**: when a snapshot directory is configured, save the
           post-flip version — the governing plan is written *before* the
           shard payloads, so a crash mid-save leaves an inconsistent
           version that :class:`~repro.core.index.ShardedSnapshotStore`
           rolls back on the next load.

        Answers are bitwise-identical across the flip: shard blocks are
        row-slices of one plan-independent linear system, per-source
        random streams are keyed ``(seed, source)``, and the top-k merge
        is exact — the plan only decides *where* work runs.  Returns a
        report dict (``applied``, ``estimate``, ``plan_generation``, …).
        """
        with self._update_lock:
            self.flush_updates()
            with self._lock:
                n = self.graph.n_nodes
                weights = self._load_weights(node_loads)
                current_plan = self.plan
            proposal = plan if plan is not None \
                else load_balanced_plan(self.num_shards, weights)
            if proposal.num_shards != current_plan.num_shards:
                raise CloudWalkerError(
                    f"rebalance cannot change the shard count: serving "
                    f"{current_plan.num_shards} shards, proposal has "
                    f"{proposal.num_shards}"
                )
            estimate = evaluate_rebalance(
                shard_loads(current_plan, n, weights),
                shard_loads(proposal, n, weights),
                improvement_threshold=self.rebalance_params.improvement_threshold,
                min_total_load=(self.rebalance_params.min_sources
                                + n * self.rebalance_params.cold_weight),
            )
            report: Dict[str, Any] = {
                "applied": False,
                "estimate": estimate.to_dict(),
                "plan_generation": self._plan_generation,
                "index_version": self._version,
            }
            if np.array_equal(proposal.assign(n), current_plan.assign(n)):
                report["reason"] = "proposed plan equals the serving plan"
                return report
            if not force and not estimate.should_rebalance:
                report["reason"] = estimate.reason
                return report
            # Build the new sharded lineage from the current system —
            # the expensive, failure-prone step, done entirely before
            # anything served changes.
            mutator = self._ensure_mutator()
            new_walker = mutator.walker.with_plan(proposal)
            blocks = new_walker.shard_systems()
            with self._lock:
                self.plan = proposal
                self._fresh_shard_state()
                self._version += 1
                self._plan_generation += 1
                self.sharded_index = ShardedIndex(
                    index=self.index, plan=proposal,
                    shard_versions=[self._version] * proposal.num_shards,
                )
                self._mutator = GraphMutator(self.graph, self.params,
                                             self.update_params,
                                             walker=new_walker)
                self._counters["rebalances_applied"] += 1
                report.update(
                    applied=True,
                    reason=("forced" if force and not estimate.should_rebalance
                            else estimate.reason),
                    plan_generation=self._plan_generation,
                    index_version=self._version,
                )
            if self.update_params.snapshot_dir is not None:
                store = ShardedSnapshotStore(
                    self.update_params.snapshot_dir,
                    retain=self.update_params.snapshot_retain,
                )
                store.save_snapshot(self.sharded_index, shard_systems=blocks,
                                    version=self._version)
                self._counters["snapshots_written"] += 1
                report["snapshot_version"] = self._version
            return report

    def maybe_rebalance(self) -> Dict[str, Any]:
        """One auto-rebalance tick: migrate only if the model says so.

        The periodic entry point of the HTTP tier's ``--auto-rebalance``
        strand — exactly :meth:`rebalance` with ``force=False``, so an
        unrepresentative or not-good-enough proposal is a cheap no-op.
        """
        return self.rebalance(force=False)

    # ------------------------------------------------------------------ #
    # Query execution (scatter-gather)
    # ------------------------------------------------------------------ #
    def _cache_of(self, source: int) -> WalkDistributionCache:
        """The cache of the shard owning ``source`` — both entry kinds."""
        return self.shard_caches[self.plan.shard_of(source)]

    def _record_load(self, queries: Sequence[Query]) -> None:
        """Count each distinct source of the batch against node and shard.

        Load accounting feeds the rebalance planner: every source a batch
        asks about counts once against its node and its owning shard,
        served from a ranking entry, from cached distributions or from a
        fresh simulation alike — placement decides which shard *would* pay
        for the source once its cache entries age out, so the hottest
        sources must not vanish from the planner's input by being cached.
        """
        for source in dict.fromkeys(node for query in queries
                                    for node in required_sources(query)):
            self._node_loads[source] = self._node_loads.get(source, 0.0) + 1.0
            self._shard_counters[self.plan.shard_of(source)]["sources_routed"] += 1

    def _simulate(self, sources: List[int], walkers_count: int
                  ) -> Dict[int, montecarlo.WalkDistributions]:
        """Simulate a batch's ascending misses in one scatter on the pool.

        The misses split into ``min(workers, misses)`` contiguous runs (one
        on ``serial``), each a single kernel call
        (:func:`_simulate_sources`) through
        :func:`repro.core.sharding.run_shard_tasks`.  Each simulated
        source counts against its owning shard's ``sources_simulated``;
        the base class stores it in that shard's cache.
        """
        # The graph rides the pool's resident registry (re-registered
        # automatically when an update swaps it — `self.graph` is then a
        # new object, i.e. a new epoch), so each task ships a handle plus
        # its run's source ids.
        handle = self._serve_backend.ensure_resident("graph", self.graph)
        runs = np.array_split(
            sources, min(self._serve_backend.max_workers, len(sources)))
        outcomes = run_shard_tasks(self._serve_backend, {
            run: partial(_simulate_sources, handle, chunk, self.query_params,
                         walkers_count)
            for run, chunk in enumerate(runs)
        })
        simulated: Dict[int, montecarlo.WalkDistributions] = {}
        for distributions, _seconds in outcomes.values():
            simulated.update(distributions)
        for source in simulated:
            self._shard_counters[self.plan.shard_of(source)]["sources_simulated"] += 1
        return simulated

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Aggregate serving counters plus a per-shard breakdown.

        The aggregate mirrors :meth:`QueryService.stats` (cache figures
        summed across shards); the ``"shards"`` entry lists, per shard:
        owned nodes, cache size/hit rate/memory, simulated and routed
        sources, routed edges and the shard's version.  ``serve_backend`` /
        ``serve_workers`` describe the simulation scatter pool.  The whole
        snapshot is taken under the service lock, so its figures are
        mutually consistent even while batches and updates run
        concurrently.
        """
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> Dict[str, Any]:
        totals = CacheStats.total(cache.stats for cache in self.shard_caches)
        shard_rows = []
        owned_nodes = np.bincount(self.plan.assign(self.graph.n_nodes),
                                  minlength=self.num_shards)
        for shard, cache in enumerate(self.shard_caches):
            shard_rows.append({
                "shard": shard,
                "nodes": int(owned_nodes[shard]),
                "version": self.sharded_index.shard_versions[shard],
                "cache_size": len(cache),
                "cache_hit_rate": cache.stats.hit_rate,
                "cache_invalidations": cache.stats.invalidations,
                "cache_memory_bytes": cache.memory_bytes(),
                **self._shard_counters[shard],
            })
        return {
            **self._counters,
            "index_version": self._version,
            "pending_updates": self.pending_updates,
            "approx_mode": self.query_params is not self.params,
            "accuracy_budget": self.service_params.accuracy_budget,
            "query_walkers_served": self.query_params.query_walkers,
            "walk_steps_served": self.query_params.walk_steps,
            "num_shards": self.num_shards,
            "shard_strategy": self.plan.strategy,
            "plan_generation": self._plan_generation,
            "observed_sources": float(sum(self._node_loads.values())),
            "serve_backend": self.service_params.serve_backend,
            "serve_workers": self.service_params.serve_workers,
            "cache_size": sum(len(cache) for cache in self.shard_caches),
            "cache_capacity": self.service_params.cache_capacity * self.num_shards,
            "cache_memory_bytes": sum(
                cache.memory_bytes() for cache in self.shard_caches
            ),
            "cache_ranking_entries": sum(
                cache.ranking_entries for cache in self.shard_caches
            ),
            **{f"cache_{key}": value for key, value in totals.to_dict().items()},
            "last_batch_payload_bytes": self.last_batch_payload_bytes,
            "shards": shard_rows,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedQueryService(graph={self.graph.name!r}, "
            f"n_nodes={self.graph.n_nodes}, shards={self.num_shards}, "
            f"strategy={self.plan.strategy!r}, version={self._version}, "
            f"queries={self._counters['queries']})"
        )
