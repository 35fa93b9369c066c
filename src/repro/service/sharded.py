"""The cache-miss scatter of :class:`~repro.service.service.QueryService`.

A batch's cache misses are simulated in *one scatter*: the ascending misses
split into ``min(workers, misses, work // SCATTER_GRAIN)`` contiguous runs,
where ``work`` is the walker-steps the batch will take (the grain-size rule
of PyTorch's ``at::parallel_for``).  Only when that gives more than one run
do the runs cross to the service's persistent serve pool
(``ServiceParams.serve_backend`` / ``serve_workers``; the same
:func:`repro.core.sharding.run_shard_tasks` primitive the build path fans
out through).  One run is walked in the calling thread, on the ``serial``
backend always: no hop, no pickled results, no resident registration.
Every source has its own random stream, and the shard count plays no
part: the service holds one cache, and however the misses are split, and
wherever they run, the distributions are bitwise-identical to one
in-process call.

This module imports nothing from :mod:`repro.service.service`; the service
imports :func:`simulate_misses` from here.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.config import SimRankParams
from repro.core import montecarlo
# benchmarks/spine/spans.py binds merge_top_k here by name; no serving path calls it.
from repro.core.queries import merge_top_k  # noqa: F401
from repro.core.sharding import run_shard_tasks
from repro.engine.executor import (
    ExecutorBackend,
    ResidentHandle,
    SerialBackend,
    resolve_resident,
)
from repro.graph.digraph import DiGraph

#: Walker-steps each pool run must carry before a batch's misses cross to
#: the serve pool.  Sized from two sweeps of ``benchmarks/micro/scatter.py``
#: on the spine's 10k graph (T = 10, 2 workers, 2-core Xeon), steady-state
#: ms inline vs ``processes``: inline won every cell up to 0.7 M
#: walker-steps per run (0.74 vs 1.12 ms at 44 k), the 1.76 M cell split
#: (9.13 vs 9.20, then 8.92 vs 8.28), and the pool won at 2.11 M in both
#: (14.68 vs 14.46, 14.21 vs 13.33).  The grain sits at the top of the
#: split: a serving pool also competes with the request path for the cores
#: and costs its fork's memory.  A constant, not an option, and never
#: calibrated per host: measuring the hop would fork the pool this rule
#: exists to leave unforked.
SCATTER_GRAIN = 2_000_000

#: The inline route's backend.  It runs each task in the calling thread and
#: never registers a resident: inline tasks carry the graph itself in a
#: ``"local"`` handle, so no registry outlives the graph an update replaced.
_INLINE = SerialBackend()


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
    in the serving process, and a ``processes`` worker materialises the
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


def scatter_runs(backend: ExecutorBackend, misses: int, walkers: int,
                 params: SimRankParams) -> int:
    """How many runs ``misses`` sources split into on ``backend``.

    ``min(backend.max_workers, misses, work // SCATTER_GRAIN)`` and at
    least one, where ``work = misses × walkers × (walk_steps + 1)`` is the
    walker-steps the batch will take.  It reads no clock: the same graph
    parameters and request stream give the same runs on every host.
    """
    work = misses * walkers * (params.walk_steps + 1)
    return max(1, min(backend.max_workers, misses, work // SCATTER_GRAIN))


def simulate_misses(
    backend: ExecutorBackend,
    graph: DiGraph,
    sources: Sequence[int],
    params: SimRankParams,
    walkers: int,
) -> Tuple[Dict[int, montecarlo.WalkDistributions], int]:
    """Simulate a batch's ascending ``sources``; return them and the hops.

    The sources split into :func:`scatter_runs` contiguous runs, each a
    single kernel call (:func:`_simulate_sources`) through
    :func:`run_shard_tasks`.  One run is walked in the calling thread and
    makes no hop (``0``).  More runs cross to ``backend``, one hop each:
    the graph rides the pool's resident registry (re-registered
    automatically when an update swaps it — a new graph object is a new
    epoch), so each task ships a handle plus its run's source ids.
    """
    runs = scatter_runs(backend, len(sources), walkers, params)
    if runs == 1:
        backend, hops = _INLINE, 0
        handle = ResidentHandle(token="inline", kind="local", obj=graph)
    else:
        hops = runs
        handle = backend.ensure_resident("graph", graph)
    outcomes = run_shard_tasks(backend, {
        run: partial(_simulate_sources, handle, chunk, params, walkers)
        for run, chunk in enumerate(np.array_split(sources, runs))
    })
    simulated: Dict[int, montecarlo.WalkDistributions] = {}
    for distributions, _seconds in outcomes.values():
        simulated.update(distributions)
    return simulated, hops


def __getattr__(name: str):
    # benchmarks/spine/spans.py binds ShardedQueryService here by name; it is
    # the one serving class, QueryService.
    if name == "ShardedQueryService":
        from repro.service.service import QueryService

        return QueryService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
