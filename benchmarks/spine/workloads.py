"""The four workloads of the spine benchmark and how their inputs are made.

Every workload shares one graph shape, one parameter set and one service
shape (4 hash shards); what differs is the traffic, the cache size and the
transport — each loads a different layer, so an optimisation to one layer
has a workload that exercises it and one that bypasses it.  Inputs are a
pure function of ``(workload, seed, scale)``: the graph comes from
``generators.copying_model_graph(seed=seed)`` and the request stream from
the repo's own trace generators with the same seed.  The service under test
sees only the generated graph and requests, never the seed or the name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import SimRankParams
from repro.service.batching import parse_query, required_sources
from repro.service.scenarios import (
    UPDATE_EVENT,
    Trace,
    uniform_trace,
    update_storm_trace,
    zipf_trace,
)

NUM_SHARDS = 4
OUT_DEGREE = 5
#: Requests in a stream whose answers are checked one by one against a
#: from-scratch single-shard replay (and folded into the pinned checksum).
CHECKED_REQUESTS = 64
#: Equal slices of the timed phase; every latency / throughput figure is
#: computed per slice and the median of the slices is reported.
SEGMENTS = 5


@dataclass(frozen=True)
class Scale:
    """Problem size.  ``FULL`` is what the benchmark measures; ``TOY`` only
    proves, in a few seconds, that every code path and metric still works."""

    name: str
    nodes: int
    index_walkers: int
    query_walkers: int
    warmup_requests: int
    #: Length of the generated request stream (warm-up included).  A fixed
    #: number, not a function of ``--seconds``: the trace generators draw
    #: arrival times before sources, so a different length would change
    #: every request and the pinned checksums with it.  Sized at about 2.5x
    #: what the reference host consumes in the default run.
    in_process_requests: int
    http_requests: int
    setup_repeats: int
    enforce_preconditions: bool

    def params(self) -> SimRankParams:
        """Paper defaults except ``query_walkers`` (cut 10x for 2 cores)."""
        return SimRankParams(c=0.6, walk_steps=10, jacobi_iterations=3,
                             index_walkers=self.index_walkers,
                             query_walkers=self.query_walkers)


FULL = Scale(name="full", nodes=10_000, index_walkers=100, query_walkers=1000,
             warmup_requests=100, in_process_requests=1800,
             http_requests=2600, setup_repeats=3, enforce_preconditions=True)
TOY = Scale(name="toy", nodes=300, index_walkers=20, query_walkers=200,
            warmup_requests=8, in_process_requests=88, http_requests=88,
            setup_repeats=1, enforce_preconditions=False)


@dataclass(frozen=True)
class Request:
    """One closed-loop operation: a query batch or an update storm."""

    kind: str                              # "query" | "update"
    lines: Tuple[str, ...] = ()            # wire-format query lines
    edges: Tuple[Tuple[int, int], ...] = ()
    required_sources: int = 0              # before the planner deduplicates


@dataclass(frozen=True)
class Workload:
    """One traffic shape plus the precondition that proves it still
    stresses the layer it claims to."""

    name: str
    transport: str                         # "in-process" | "http"
    batch_size: int
    cache_capacity: int                    # per shard
    serve_backend: str
    make_trace: Callable[..., Trace]
    precondition: Callable[[Dict[str, Any]], Optional[str]]

    def requests(self, seed: int, scale: Scale) -> List[Request]:
        """The seed's request stream: query batches, storms in between."""
        count = (scale.http_requests if self.transport == "http"
                 else scale.in_process_requests)
        trace = self.make_trace(scale.nodes, n_events=count * self.batch_size,
                                seed=seed)
        requests: List[Request] = []
        batch: List[str] = []

        def flush() -> None:
            if batch:
                required = sum(len(required_sources(parse_query(line)))
                               for line in batch)
                requests.append(Request("query", lines=tuple(batch),
                                        required_sources=required))
                batch.clear()

        for event in trace.events:
            if event.kind == UPDATE_EVENT:
                flush()
                requests.append(Request("update", edges=event.edges))
                continue
            batch.append(event.query)
            if len(batch) == self.batch_size:
                flush()
        flush()
        return requests


def pool_workers() -> int:
    """Serve-pool size and HTTP client connections: ``min(nproc, 4)``."""
    return min(os.cpu_count() or 1, 4)


def _hit_rate_at_least(floor: float, observed: Dict[str, Any]) -> Optional[str]:
    rate = observed["cache_hit_rate"]
    return None if rate >= floor else (
        f"cache hit rate {rate:.3f} < {floor}: the hot set no longer fits "
        "the caches, so this workload stopped measuring the cached path")


def _hit_rate_at_most(ceiling: float, observed: Dict[str, Any]) -> Optional[str]:
    rate = observed["cache_hit_rate"]
    return None if rate <= ceiling else (
        f"cache hit rate {rate:.3f} > {ceiling}: walks are being served "
        "from the cache, so this workload stopped measuring simulation")


def _storms_applied(observed: Dict[str, Any]) -> Optional[str]:
    sent, applied = observed["updates_sent"], observed["updates_applied"]
    if sent >= 5 and applied == sent:
        return None
    return (f"{applied} of {sent} update storms applied (need all, and at "
            "least 5): the write path is not being exercised")


def _pool_backend_active(observed: Dict[str, Any]) -> Optional[str]:
    backend = observed["serve_backend"]
    return None if backend == "processes" else (
        f"/stats reports serve backend {backend!r}, not the process pool")


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        # The hot set fits the caches, so planning, cache lookup, propagate,
        # per-shard ranking and merge do the work; walks do little.  Hit rate
        # tops out near 0.7: sources are Zipf-hot, but every pair query also
        # needs its uniformly drawn target's distribution.
        name="zipf_hot",
        transport="in-process", batch_size=32, cache_capacity=1024,
        serve_backend="serial",
        make_trace=partial(zipf_trace, skew=1.3, mix=(0.3, 0.1, 0.6)),
        precondition=partial(_hit_rate_at_least, 0.6),
    ),
    Workload(
        # 256 cache entries vs 10000 uniform sources: walk simulation
        # dominates, so cache or ranking changes must show no change here.
        name="uniform_cold",
        transport="in-process", batch_size=32, cache_capacity=64,
        serve_backend="serial",
        make_trace=partial(uniform_trace, mix=(0.8, 0.1, 0.1)),
        precondition=partial(_hit_rate_at_most, 0.05),
    ),
    Workload(
        # Writes beside reads: the only workload through routing, row
        # re-estimation, the Jacobi re-solve and cache invalidation.
        name="update_storm",
        transport="in-process", batch_size=32, cache_capacity=1024,
        serve_backend="serial",
        make_trace=partial(update_storm_trace, skew=1.1, storm_edges=6,
                           storm_every=10 * 32),
        precondition=_storms_applied,
    ),
    Workload(
        # Child server with the process pool: the only workload through
        # request parsing, the coalescer, JSON encoding and shm scatter.
        name="http_pool",
        transport="http", batch_size=8, cache_capacity=1024,
        serve_backend="processes",
        make_trace=partial(zipf_trace, skew=1.3, mix=(0.5, 0.1, 0.4)),
        precondition=_pool_backend_active,
    ),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload
                                for workload in WORKLOADS}
