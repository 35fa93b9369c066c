"""Online query serving for CloudWalker.

This package turns the one-shot library calls of :mod:`repro.core` into a
serving layer fit for sustained query traffic:

:mod:`repro.service.cache`
    An LRU cache of per-source walk distributions and score records,
    keyed by source id (its service fixes steps, walkers and seed) — the
    unit of reuse across queries.
:mod:`repro.service.batching`
    Query dataclasses plus the batch planner that deduplicates sources and
    groups them for vectorised multi-source simulation.
:mod:`repro.service.service`
    :class:`QueryService`, the one serving class, tying index persistence,
    planning, simulation, caching, live updates and versioned snapshots
    together behind single-query and batch APIs.  Live updates
    go through a bounded queue of edge insertions drained into incremental
    re-indexes (:class:`~repro.core.sharding.ShardedIncrementalWalker`)
    whose affected-source sets, reported on a :class:`MutationResult`,
    drive targeted cache invalidation.  ``K`` shards split index builds
    and updates into at most ``min(K, workers)`` row tasks; ``K = 1`` is
    the default,
    and answers are bitwise-identical at every ``K``.
:mod:`repro.service.sharded`
    The cache-miss scatter: a batch's missing walk distributions
    simulated in one fan-out, in the serving thread or, once each run
    carries ``SCATTER_GRAIN`` walker-steps, over the service's serve pool.
:mod:`repro.service.coalesce`
    :class:`BatchCoalescer`, cross-connection batch coalescing: concurrent
    submissions are collected for a short window and executed as one
    planned batch, with admission control bounding in-flight work.
:mod:`repro.service.http`
    :class:`HttpServiceServer`, the stdlib-only asyncio HTTP/JSON tier:
    coalesced queries, backpressure (429/503), overlapped update drains
    and a graceful SIGTERM drain over the service ``close()`` lifecycle.
:mod:`repro.service.scenarios`
    The scenario harness: a JSONL traffic-trace model, synthetic workload
    generators (uniform, Zipf, bursty, update storms, multi-tenant) and
    a replay driver that runs a trace against an in-process service and
    emits normalized per-scenario records — including the realized
    error of the approximate serving mode
    (``ServiceParams.accuracy_budget``).
"""

from repro.core.sharding import MutationResult
from repro.service.batching import (
    BatchPlan,
    PairQuery,
    Query,
    SourceQuery,
    TopKQuery,
    parse_edge,
    parse_query,
    plan_batch,
    required_sources,
)
from repro.service.cache import CacheStats, WalkDistributionCache
from repro.service.coalesce import BatchCoalescer
from repro.service.http import HttpServiceServer
from repro.service.scenarios import (
    TRACE_GENERATORS,
    ScenarioResult,
    Trace,
    TraceEvent,
    generate_trace,
    parse_trace_line,
    read_trace,
    replay_trace,
    trace_from_lines,
    write_records,
    write_trace,
)
from repro.service.service import BatchAnswers, QueryService

# benchmarks/spine binds ShardedQueryService by name; it is QueryService.
ShardedQueryService = QueryService

__all__ = [
    "BatchAnswers",
    "BatchCoalescer",
    "BatchPlan",
    "CacheStats",
    "HttpServiceServer",
    "MutationResult",
    "PairQuery",
    "Query",
    "QueryService",
    "ScenarioResult",
    "SourceQuery",
    "TopKQuery",
    "TRACE_GENERATORS",
    "Trace",
    "TraceEvent",
    "WalkDistributionCache",
    "generate_trace",
    "parse_edge",
    "parse_query",
    "parse_trace_line",
    "plan_batch",
    "read_trace",
    "replay_trace",
    "required_sources",
    "trace_from_lines",
    "write_records",
    "write_trace",
]
