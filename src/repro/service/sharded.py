"""The cache-miss scatter of :class:`~repro.service.service.QueryService`.

A batch's cache misses are simulated in *one scatter*: the ascending misses
split into ``min(workers, misses)`` contiguous runs on the service's
persistent serve pool (``ServiceParams.serve_backend`` / ``serve_workers``;
the same :func:`repro.core.sharding.run_shard_tasks` primitive the build
path fans out through), one on ``serial``.  Every source has its own random
stream and the graph is in every worker, so the shard plan decides where a
distribution is cached, not where it is simulated — and however the misses
are split, the distributions are bitwise-identical to one in-process call.

This module imports nothing from :mod:`repro.service.service`; the service
imports :func:`simulate_misses` from here.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Sequence

import numpy as np

from repro.config import SimRankParams
from repro.core import montecarlo
# benchmarks/spine/spans.py binds merge_top_k here by name; no serving path calls it.
from repro.core.queries import merge_top_k  # noqa: F401
from repro.core.sharding import run_shard_tasks
from repro.engine.executor import ExecutorBackend, ResidentHandle, resolve_resident
from repro.graph.digraph import DiGraph


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


def simulate_misses(
    backend: ExecutorBackend,
    graph: DiGraph,
    sources: Sequence[int],
    params: SimRankParams,
    walkers: int,
) -> Dict[int, montecarlo.WalkDistributions]:
    """Simulate a batch's ascending ``sources`` in one scatter on ``backend``.

    The sources split into ``min(backend.max_workers, len(sources))``
    contiguous runs, each a single kernel call (:func:`_simulate_sources`)
    through :func:`run_shard_tasks`.  The graph rides the pool's resident
    registry (re-registered automatically when an update swaps it — a new
    graph object is a new epoch), so each task ships a handle plus its
    run's source ids.
    """
    handle = backend.ensure_resident("graph", graph)
    runs = np.array_split(sources, min(backend.max_workers, len(sources)))
    outcomes = run_shard_tasks(backend, {
        run: partial(_simulate_sources, handle, chunk, params, walkers)
        for run, chunk in enumerate(runs)
    })
    simulated: Dict[int, montecarlo.WalkDistributions] = {}
    for distributions, _seconds in outcomes.values():
        simulated.update(distributions)
    return simulated


def __getattr__(name: str):
    # benchmarks/spine/spans.py binds ShardedQueryService here by name; it is
    # the one serving class, QueryService.
    if name == "ShardedQueryService":
        from repro.service.service import QueryService

        return QueryService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
