"""The online SimRank query service.

:class:`QueryService` is the serving layer on top of the core query engine:
it owns a persistently loaded graph + diagonal index, deduplicates and
batches concurrent queries so distributions shared between them are
simulated once (:mod:`repro.service.batching`), keeps an LRU cache of
per-source walk distributions so repeated traffic skips simulation entirely
(:mod:`repro.service.cache`), and accepts **live edge insertions** that are
folded into the index incrementally between query batches
(:mod:`repro.service.updates`).

Determinism is the design invariant: for a fixed seed, every answer the
service produces — batched, cached, or one-off — is bitwise-identical to the
direct core computation for the same source nodes, because all three paths
consume the same per-source ``(seed, source)`` random stream and share the
scoring code of :class:`repro.core.queries.QueryEngine`.  Updates keep the
invariant: after any sequence of :meth:`QueryService.add_edges` calls the
served index is bitwise-identical to one built from scratch on the updated
graph, and only cache entries inside the update's affected ball are dropped.

Every batch answer carries the service's monotonically increasing
:attr:`~QueryService.index_version` (see :class:`BatchAnswers`), so callers
interleaving queries with updates can detect which graph generation an
answer was computed against.

Example
-------
>>> from repro.graph import generators
>>> from repro.config import SimRankParams
>>> from repro.core.diagonal import build_diagonal_index
>>> from repro.service import PairQuery, QueryService, TopKQuery
>>> graph = generators.copying_model_graph(120, out_degree=5, seed=1)
>>> params = SimRankParams.fast_defaults()
>>> service = QueryService(graph, build_diagonal_index(graph, params), params)
>>> answers = service.run_batch([PairQuery(3, 7), TopKQuery(3, k=5)])
>>> 0.0 <= answers[0] <= 1.0
True
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.config import ServiceParams, SimRankParams, UpdateParams
from repro.core import montecarlo
from repro.core.index import DiagonalIndex, ShardedIndex, ShardedSnapshotStore
from repro.core.montecarlo import WalkDistributions
from repro.core.queries import QueryEngine, SourceScores
from repro.errors import CloudWalkerError
from repro.graph.digraph import DiGraph
from repro.graph.partition import ShardPlan
from repro.service.batching import (
    BatchPlan,
    PairQuery,
    Query,
    SourceQuery,
    TopKQuery,
    plan_batch,
)
from repro.service.cache import CacheKey, Ranking, WalkDistributionCache
from repro.service.updates import GraphMutator, MutationResult

PathLike = Union[str, os.PathLike]

Answer = Any
"""A query answer: float (pair), ndarray (source) or ranking list (top-k)."""


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
        A built (or loaded) diagonal index; validated against ``graph``.
    params:
        Algorithmic parameters; defaults to the parameters the index was
        built with, which is what keeps answers reproducible across restarts.
    service_params:
        Cache capacity and serving knobs.
    update_params:
        Live-update knobs (pending-edge queue bound, snapshot cadence).
    """

    def __init__(
        self,
        graph: DiGraph,
        index: DiagonalIndex,
        params: Optional[SimRankParams] = None,
        service_params: Optional[ServiceParams] = None,
        update_params: Optional[UpdateParams] = None,
    ) -> None:
        index.validate_for(graph)
        self.graph = graph
        self.index = index
        self.params = params or index.params
        self.service_params = service_params or ServiceParams()
        self.update_params = update_params or UpdateParams()
        self.engine = QueryEngine(graph, index, self.params)
        self.budget_calibration = None
        self.query_params = self._derive_query_params()
        self.query_engine = (
            self.engine if self.query_params is self.params
            else QueryEngine(graph, index, self.query_params)
        )
        self.cache = WalkDistributionCache(self.service_params.cache_capacity)
        self._mutator: Optional[GraphMutator] = None
        self._version = 1
        self._counters: Dict[str, int] = {
            "queries": 0, "pair_queries": 0, "source_queries": 0,
            "topk_queries": 0, "batches": 0, "sources_simulated": 0,
            "sources_deduplicated": 0, "updates_applied": 0, "edges_added": 0,
            "snapshots_written": 0,
        }

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

    def _rebuild_query_engine(self) -> None:
        """Re-point ``query_engine`` after ``graph``/``index``/``engine`` moved."""
        self.query_engine = (
            self.engine if self.query_params is self.params
            else QueryEngine(self.graph, self.index, self.query_params)
        )

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
        **options: Any,
    ) -> "QueryService":
        """Cold-start a service from a persisted index — no re-indexing.

        The index file carries the parameters it was built with, so a
        restarted service answers queries identically to the one that
        built it (provided ``params`` is left at its default).  It carries
        no linear system, so the first update estimates it once.
        ``options`` go to the constructor (for a
        :class:`~repro.service.ShardedQueryService`: ``sharding``, ``plan``,
        ``rebalance_params``).
        """
        index = DiagonalIndex.load(path)
        return cls(graph, index, params=params, service_params=service_params,
                   update_params=update_params, **options)

    @classmethod
    def build(
        cls,
        graph: DiGraph,
        params: Optional[SimRankParams] = None,
        service_params: Optional[ServiceParams] = None,
        update_params: Optional[UpdateParams] = None,
    ) -> "QueryService":
        """Build an index for ``graph`` and serve it, update-ready.

        The build runs through the incremental maintainer (per-source
        streams, cold-start solve), so the service keeps the linear system
        in memory and the first :meth:`add_edges` pays only for its affected
        rows — unlike a service constructed around a pre-built index, whose
        first update must re-estimate the system once.
        """
        params = params or SimRankParams.paper_defaults()
        mutator = GraphMutator(graph, params, update_params)
        index = mutator.build()
        service = cls(graph, index, params=params, service_params=service_params,
                      update_params=update_params)
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
    ) -> "QueryService":
        """Cold-start from the newest consistent snapshot in ``directory``.

        Reads any lineage (:class:`~repro.core.index.ShardedSnapshotStore`,
        whatever its shard count) and restores its index *and* linear
        system (gathered from the shard blocks, when every shard saved
        one), so the restarted service resumes incremental updates without
        re-estimating anything, and continues the version sequence where the
        snapshotting service left off.  ``graph`` must be the graph the
        snapshot was taken of.
        """
        update_params = update_params or UpdateParams()
        store = ShardedSnapshotStore(directory,
                                     retain=update_params.snapshot_retain)
        version, sharded_index, system = store.load()
        service = cls(graph, sharded_index.index, params=params,
                      service_params=service_params, update_params=update_params)
        service._version = version
        if system is not None:
            service._ensure_mutator(system)
        return service

    # ------------------------------------------------------------------ #
    # Live updates
    # ------------------------------------------------------------------ #
    @property
    def index_version(self) -> int:
        """Monotonically increasing generation of the served index.

        Starts at 1 (or at the restored snapshot's version) and increases by
        one per applied update.  Carried on every :class:`BatchAnswers`, so
        callers can detect answers computed against a stale graph.
        """
        return self._version

    @property
    def pending_updates(self) -> int:
        """Edges queued via ``add_edges(..., defer=True)``, not yet applied."""
        return self._mutator.pending_edges if self._mutator is not None else 0

    def _ensure_mutator(self, system: Optional[sparse.spmatrix] = None
                        ) -> GraphMutator:
        if self._mutator is None:
            # Attaching to a pre-built index estimates the linear system for
            # the current graph once, unless a snapshot supplies ``system``;
            # from then on updates are incremental.  build() skips this.
            mutator = GraphMutator(self.graph, self.params, self.update_params)
            mutator.attach(self.index, system=system)
            self._mutator = mutator
        return self._mutator

    def add_edges(self, edges: Sequence[Tuple[int, int]],
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

        Edges are validated on this call (negative endpoints, runaway node
        growth), so a bad edge fails here instead of poisoning the queue.
        Returns the :class:`~repro.service.updates.MutationResult` of the
        applied update; None when deferring, or when every submitted edge
        already existed (a graph no-op: no re-index, no version bump).
        """
        mutator = self._ensure_mutator()
        if defer:
            if len(edges) > self.update_params.max_pending_edges:
                # Too large to ever queue: apply now (never lose edges).
                return self._apply_updates(edges)
            if (mutator.pending_edges + len(edges)
                    > self.update_params.max_pending_edges):
                self.flush_updates()
            mutator.enqueue(edges)
            return None
        return self._apply_updates(edges)

    def flush_updates(self) -> Optional[MutationResult]:
        """Apply all queued edge insertions as one incremental re-index.

        Swaps in the updated graph + index, invalidates exactly the cache
        entries of affected sources, and bumps :attr:`index_version`.
        Returns None when the queue is empty.
        """
        if self._mutator is None or self._mutator.pending_edges == 0:
            return None
        return self._apply_updates(())

    def _apply_updates(self, edges: Sequence[Tuple[int, int]]) -> Optional[MutationResult]:
        """Drain the queue plus ``edges`` and swap the result in."""
        result = self._ensure_mutator().apply(edges)
        if result is None:
            return None
        self._adopt_mutation(result)
        return result

    def _adopt_mutation(self, result: MutationResult) -> None:
        """Swap in the mutator's post-update state and bump the version.

        The cheap, state-swapping half of an update — split from the
        expensive re-index so the sharded drain
        (:meth:`ShardedQueryService.flush_updates
        <repro.service.sharded.ShardedQueryService.flush_updates>`)
        can run the re-index outside the serve lock and call only this
        part under it.  Readers holding the previous ``graph`` / ``index``
        / ``engine`` objects stay consistent: the mutator builds a *new*
        graph and index and this merely re-points the service at them.
        """
        self.graph = self._mutator.graph
        self.index = self._mutator.index
        self.engine = QueryEngine(self.graph, self.index, self.params)
        self._rebuild_query_engine()
        self.cache.invalidate_sources(result.affected)
        self.cache.drop_rankings()
        self._version += 1
        self._counters["updates_applied"] += 1
        self._counters["edges_added"] += result.edges_added
        self._maybe_auto_snapshot()

    def _maybe_auto_snapshot(self) -> None:
        cadence = self.update_params.snapshot_every
        if cadence and self._counters["updates_applied"] % cadence == 0:
            self.save_snapshot()

    def save_snapshot(self, directory: Optional[PathLike] = None) -> Tuple[int, str]:
        """Persist the served index (and system) at the current version.

        Writes the one lineage layout
        (:class:`~repro.core.index.ShardedSnapshotStore`) under the
        service's plan — one shard here — so any lineage opens in either
        service class.  ``directory`` defaults to
        ``update_params.snapshot_dir``.  Returns ``(version, directory)``.
        Saving the same version twice is a no-op (``snapshots_written``
        does not move); a directory ahead of this service, or holding
        another shard count, is rejected — it is another lineage.
        """
        directory = directory if directory is not None else self.update_params.snapshot_dir
        if directory is None:
            raise CloudWalkerError(
                "no snapshot directory: pass one or set UpdateParams.snapshot_dir"
            )
        store = ShardedSnapshotStore(directory,
                                     retain=self.update_params.snapshot_retain)
        latest = store.latest_version()
        if latest is not None and latest > self._version:
            raise CloudWalkerError(
                f"snapshot directory {directory} is at version {latest}, ahead "
                f"of this service (version {self._version})"
            )
        if latest != self._version:
            sharded_index, shard_systems = self._snapshot_state()
            store.save_snapshot(sharded_index, shard_systems=shard_systems,
                                version=self._version)
            self._counters["snapshots_written"] += 1
        return self._version, str(store.directory)

    def _snapshot_state(self) -> Tuple[ShardedIndex,
                                       Optional[List[sparse.spmatrix]]]:
        """The index under the service's plan, plus one system block per
        shard (None without a maintained system) — here the whole system."""
        sharded_index = ShardedIndex(index=self.index, plan=ShardPlan.hashed(1),
                                     shard_versions=[self._version])
        system = self._mutator.system if self._mutator is not None else None
        return sharded_index, (None if system is None else [system])

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def run_batch(self, queries: Sequence[Query],
                  walkers: Optional[int] = None,
                  flush_pending: bool = True) -> BatchAnswers:
        """Answer a batch of queries; answers align with the input order.

        Queued graph updates are applied first, so a batch never runs
        against an index older than updates accepted before it.  The batch
        then runs as one pipeline — look up rankings, plan, resolve
        distributions, resolve scores, resolve rankings, assemble — in
        which every piece of work is done once per *distinct* key.  First
        each distinct ``(source, k)`` of the batch's top-k queries is
        looked up as a ranking entry of the cache (key ``(CacheKey, k)``):
        a hit is the finished answer of an earlier batch at this index
        version and goes straight to assembly.  Only the remaining queries
        are planned: a source's distributions come from the cache or one
        multi-source walk simulation of the batch's misses, its scores
        from one propagation over the supports of the batch's sources, and
        each missing ``(source, k)`` ranking is computed once over that
        support however many queries repeat it — then stored, as an
        immutable tuple, for the batches to come.  A miss runs exactly the
        pipeline a service with ``cache_capacity=0`` runs for every query;
        there is no second path.  Only a :class:`SourceQuery` answer is a
        dense vector, and it is not cached.
        Answer types by query: :class:`PairQuery`
        -> float, :class:`SourceQuery` -> dense score vector,
        :class:`TopKQuery` -> ``[(node, score), ...]``; repeated queries
        get equal but distinct objects.  The returned :class:`BatchAnswers`
        lists the answers in input order and carries the
        :attr:`index_version` they were computed at.

        ``flush_pending=False`` skips the drain — for callers that already
        flushed under their own locking discipline (the sharded service
        drains *before* taking its serve lock so the expensive re-index
        never serialises readers behind it).
        """
        if flush_pending:
            self.flush_updates()
        queries = list(queries)
        for query in queries:
            self._validate_query(query)
        walkers_count = (walkers if walkers is not None
                         else self.query_params.query_walkers)
        self._record_load(queries)
        requests = list(dict.fromkeys((query.source, query.k) for query in queries
                                      if isinstance(query, TopKQuery)))
        rankings = self._lookup_rankings(requests, walkers_count)
        # Only what the ranking entries could not answer goes down the
        # pipeline; with no hit that is the whole batch, unfiltered.
        pending = queries if not rankings else [
            query for query in queries
            if not isinstance(query, TopKQuery)
            or (query.source, query.k) not in rankings]
        plan = plan_batch(pending)
        distributions = self._resolve_distributions(plan, walkers_count)
        scores = self._resolve_scores(pending, distributions)
        fresh = self._resolve_rankings(
            [request for request in requests if request not in rankings], scores)
        for (source, k), ranking in fresh.items():
            rankings[source, k] = entry = tuple(ranking)
            self._cache_of(source).put(
                self._ranking_key(source, k, walkers_count), entry)
        answers = [self._assemble(query, distributions, scores, rankings)
                   for query in queries]
        self._counters["batches"] += 1
        self._counters["queries"] += len(queries)
        self._counters["sources_deduplicated"] += plan.deduplicated
        return BatchAnswers(answers, self._version)

    def _cache_of(self, source: int) -> WalkDistributionCache:
        """The LRU holding ``source``'s entries (the sharded service routes)."""
        return self.cache

    def _ranking_key(self, source: int, k: int,
                     walkers_count: int) -> Tuple[CacheKey, int]:
        """Ranking-entry key: the source's distribution key plus ``k``."""
        return (CacheKey.for_query(source, self.query_params, walkers_count), k)

    def _record_load(self, queries: Sequence[Query]) -> None:
        """Per-batch load accounting hook, called before any cache lookup.

        Nothing to record on a single shard; the sharded service counts
        every distinct source here, so a source answered from a ranking
        entry still reaches the rebalance planner.
        """

    def _lookup_rankings(
        self, requests: Sequence[Tuple[int, int]], walkers_count: int
    ) -> Dict[Tuple[int, int], Ranking]:
        """The batch's distinct ``(source, k)`` already answered at this version.

        Each request is looked up under ``(CacheKey, k)`` in its source's
        cache; a hit is the finished answer, valid because every index
        version bump drops all ranking entries (:meth:`_adopt_mutation`).
        """
        found: Dict[Tuple[int, int], Ranking] = {}
        for source, k in requests:
            cached = self._cache_of(source).get(
                self._ranking_key(source, k, walkers_count))
            if cached is not None:
                found[source, k] = cached
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
        self, plan: BatchPlan, walkers_count: int
    ) -> Dict[int, WalkDistributions]:
        """Look every source of the batch up in its cache; simulate the rest.

        The misses go through :meth:`_simulate` in one ascending call and
        are stored in their sources' caches in that order.
        """
        resolved: Dict[int, WalkDistributions] = {}
        missing: List[int] = []
        for source in plan.sources:
            cached = self._cache_of(source).get(
                CacheKey.for_query(source, self.query_params, walkers_count)
            )
            if cached is not None:
                resolved[source] = cached
            else:
                missing.append(source)
        if missing:
            simulated = self._simulate(sorted(missing), walkers_count)
            self._counters["sources_simulated"] += len(simulated)
            for source, distribution in simulated.items():
                resolved[source] = distribution
                self._cache_of(source).put(
                    CacheKey.for_query(source, self.query_params, walkers_count),
                    distribution,
                )
        return resolved

    def _simulate(self, sources: List[int],
                  walkers_count: int) -> Dict[int, WalkDistributions]:
        """Walk distributions of a batch's cache misses: one kernel call.

        The sharded service overrides this to fan the call out over its
        serve pool; neither can change a distribution, since every source
        draws from its own ``(seed, source)`` stream.
        """
        return montecarlo.estimate_walk_distributions_batch(
            self.graph, sources, self.query_params, walkers=walkers_count
        )

    def _resolve_scores(
        self, queries: Sequence[Query],
        distributions: Dict[int, WalkDistributions],
    ) -> Dict[int, SourceScores]:
        """Score every distinct source of the source / top-k ``queries`` once.

        One propagation for the whole batch
        (:meth:`~repro.core.queries.QueryEngine.propagate_source` with a
        sequence): a source three queries ask about is scored once, and
        distinct sources share each step's array operations.  Each score
        record holds the source's positive support only; nothing here is
        ``n`` floats wide except the columns dense enough to take the dense
        product.
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
        return dict(zip(sources, scored))

    def _resolve_rankings(
        self, requests: Sequence[Tuple[int, int]],
        scores: Dict[int, SourceScores],
    ) -> Dict[Tuple[int, int], List[Tuple[int, float]]]:
        """Rank each distinct ``(source, k)`` of the batch's top-k queries.

        Over the source's support, in the canonical order
        (:meth:`~repro.core.queries.SourceScores.top_k`): the one ranking
        path of every service class and shard count.
        """
        return {(source, k): scores[source].top_k(k)
                for source, k in requests}

    def _assemble(
        self, query: Query,
        distributions: Dict[int, WalkDistributions],
        scores: Dict[int, SourceScores],
        rankings: Dict[Tuple[int, int], Ranking],
    ) -> Answer:
        """One query's answer from the batch's resolved stages.

        Source and top-k answers are fresh objects: a repeated query gets
        an equal but distinct one.  A source answer is the one place a
        score record becomes a dense vector.
        """
        if isinstance(query, PairQuery):
            self._counters["pair_queries"] += 1
            if query.source == query.target:
                return 1.0
            return self.query_engine.combine_pair(
                distributions[query.source], distributions[query.target]
            )
        if isinstance(query, SourceQuery):
            self._counters["source_queries"] += 1
            return scores[query.source].dense()
        self._counters["topk_queries"] += 1
        return list(rankings[query.source, query.k])

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release pooled resources; safe to call more than once.

        The single-shard service owns no pools, so this is a no-op — it
        exists so callers (the CLI serve loop, benchmarks, tests) can
        manage every service uniformly: :class:`ShardedQueryService`
        overrides it to shut down its persistent executor backends.  A
        closed service remains queryable; pooled backends transparently
        recreate their workers on the next use.
        """

    def __enter__(self) -> "QueryService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: release pooled resources via :meth:`close`."""
        self.close()

    # ------------------------------------------------------------------ #
    # One-off convenience queries (single-element batches)
    # ------------------------------------------------------------------ #
    def single_pair(self, node_i: int, node_j: int,
                    walkers: Optional[int] = None) -> float:
        """SimRank score of one pair, served through the cache."""
        return self.run_batch([PairQuery(node_i, node_j)], walkers=walkers)[0]

    def single_source(self, node: int,
                      walkers: Optional[int] = None) -> np.ndarray:
        """Score vector of one source, served through the cache."""
        return self.run_batch([SourceQuery(node)], walkers=walkers)[0]

    def top_k(self, node: int, k: Optional[int] = None,
              walkers: Optional[int] = None) -> List:
        """Top-``k`` ranking for one source, served through the cache."""
        k = k if k is not None else self.service_params.default_top_k
        return self.run_batch([TopKQuery(node, k=k)], walkers=walkers)[0]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Serving counters plus cache effectiveness, for logs and tests."""
        return {
            **self._counters,
            "index_version": self._version,
            "pending_updates": self.pending_updates,
            "approx_mode": self.query_params is not self.params,
            "accuracy_budget": self.service_params.accuracy_budget,
            "query_walkers_served": self.query_params.query_walkers,
            "walk_steps_served": self.query_params.walk_steps,
            "cache_size": len(self.cache),
            "cache_capacity": self.cache.capacity,
            "cache_memory_bytes": self.cache.memory_bytes(),
            "cache_ranking_entries": self.cache.ranking_entries,
            **{f"cache_{key}": value
               for key, value in self.cache.stats.to_dict().items()},
        }

    def __repr__(self) -> str:
        return (
            f"QueryService(graph={self.graph.name!r}, n_nodes={self.graph.n_nodes}, "
            f"version={self._version}, queries={self._counters['queries']}, "
            f"cache_hit_rate={self.cache.stats.hit_rate:.2f})"
        )
