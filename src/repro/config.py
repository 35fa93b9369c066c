"""Configuration objects for CloudWalker.

The dataclasses defined here:

:class:`SimRankParams`
    The algorithmic parameters of CloudWalker, with the paper's default
    values (Table "default parameters": c=0.6, T=10, L=3, R=100, R'=10000).

:class:`ServiceParams`
    Knobs of the online query service: walk-distribution cache capacity and
    batch-planning limits (see :mod:`repro.service`).

:class:`UpdateParams`
    Knobs of the service's live-update path: the pending-edge queue bound,
    the node-growth limit and snapshot cadence/retention (see
    :meth:`repro.service.QueryService.add_edges`).

:class:`ShardingParams`
    How index rows are split into build tasks: the most tasks ``K`` and
    the executor backend that runs them (see :mod:`repro.core.sharding`).
    Queries never read it.

:class:`ClusterSpec`
    A description of the (simulated) cluster used by the engine's cost
    model.  The paper's testbed was 10 machines, each with 16 cores, 377 GB
    RAM and 20 TB of disk; :meth:`ClusterSpec.paper_cluster` reproduces its
    compute, memory and network (the cost model never reads disk).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SimRankParams:
    """Algorithmic parameters of CloudWalker.

    Attributes
    ----------
    c:
        SimRank decay factor, ``0 < c < 1``.  Paper default 0.6.
    walk_steps:
        ``T`` — number of random-walk steps (truncation of the series).
    jacobi_iterations:
        ``L`` — number of Jacobi iterations used to solve ``A x = 1``.
    index_walkers:
        ``R`` — number of Monte-Carlo walkers per node when estimating the
        columns ``a_i`` of the linear system during offline indexing.
    query_walkers:
        ``R'`` — number of Monte-Carlo walkers used by the online MCSP /
        MCSS queries.
    seed:
        Base seed used to derive all pseudo-random streams.  ``None`` means
        nondeterministic.
    """

    c: float = 0.6
    walk_steps: int = 10
    jacobi_iterations: int = 3
    index_walkers: int = 100
    query_walkers: int = 10_000
    seed: Optional[int] = 2015

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise ConfigurationError(f"decay factor c must be in (0, 1), got {self.c}")
        if self.walk_steps < 1:
            raise ConfigurationError(
                f"walk_steps (T) must be a positive integer, got {self.walk_steps}"
            )
        if self.jacobi_iterations < 0:
            raise ConfigurationError(
                f"jacobi_iterations (L) must be >= 0, got {self.jacobi_iterations}"
            )
        if self.index_walkers < 1:
            raise ConfigurationError(
                f"index_walkers (R) must be >= 1, got {self.index_walkers}"
            )
        if self.query_walkers < 1:
            raise ConfigurationError(
                f"query_walkers (R') must be >= 1, got {self.query_walkers}"
            )

    @classmethod
    def paper_defaults(cls) -> "SimRankParams":
        """Return the default parameters used throughout the paper."""
        return cls(
            c=0.6,
            walk_steps=10,
            jacobi_iterations=3,
            index_walkers=100,
            query_walkers=10_000,
            seed=2015,
        )

    @classmethod
    def fast_defaults(cls) -> "SimRankParams":
        """Cheaper parameters suited to unit tests and examples.

        The algorithmic structure is identical; only the Monte-Carlo budgets
        are reduced so small graphs index in milliseconds.
        """
        return cls(
            c=0.6,
            walk_steps=6,
            jacobi_iterations=3,
            index_walkers=50,
            query_walkers=400,
            seed=2015,
        )

    def with_(self, **changes: Any) -> "SimRankParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Return a plain-dict representation (used by index serialisation)."""
        return {
            "c": self.c,
            "walk_steps": self.walk_steps,
            "jacobi_iterations": self.jacobi_iterations,
            "index_walkers": self.index_walkers,
            "query_walkers": self.query_walkers,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimRankParams":
        """Reconstruct parameters from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class ServiceParams:
    """Knobs of the online query service (:mod:`repro.service`).

    Attributes
    ----------
    cache_capacity:
        Cache entries per kind per shard: a ``K``-shard service keeps one
        LRU of ``cache_capacity × K`` entries per kind — per-source walk
        distributions and, counted separately, source score records
        (also bounded in bytes, see :mod:`repro.service.cache`).
        ``0`` disables caching entirely (every query re-simulates,
        re-scores and re-ranks).
    default_top_k:
        ``k`` used by top-k queries that do not specify one.
    serve_backend:
        Executor backend the service scatters *query-time* work
        through (a batch's cache-miss walk simulation, split into
        ``min(serve_workers, misses, work // SCATTER_GRAIN)`` contiguous
        runs, :func:`repro.service.sharded.scatter_runs`; one run — always
        on ``"serial"`` — is walked in the serving thread, and scoring and
        ranking run in the serving process):
        one of :data:`repro.engine.executor.BACKENDS`.  Tasks ship a
        handle to the pool-resident graph plus their run's source ids, so
        payloads are O(sources), not O(graph).  Like the build-time
        ``ShardingParams.backend``, it changes only wall-clock, never
        answers, at every shard count (one shard included).
    serve_workers:
        Worker bound for the ``processes`` serve backend.
        The pool is persistent (spun up once, reused per batch); call
        ``QueryService.close`` to release it.
    http_port:
        Default TCP port of the HTTP serving tier
        (:mod:`repro.service.http`); ``0`` asks the OS for an ephemeral
        port (the bound port is announced on startup).
    coalesce_window:
        Seconds the HTTP tier's cross-connection coalescer waits after the
        first queued request before executing the combined batch, so
        concurrent clients' sources are deduplicated into one scatter.
        ``0`` disables the wait (each drain takes whatever has queued —
        batching then comes only from requests arriving while a previous
        batch executes).  Keep well below client timeouts: the window is
        a latency floor for a lone request.
    max_in_flight:
        Admission bound of the HTTP tier: maximum queries admitted and not
        yet answered before new ones are refused with a 503 (and pending
        deferred edges before updates are refused with a 429).  Bounds
        queueing memory and tail latency under overload.
    accuracy_budget:
        Mean-absolute-error budget of the *approximate serving mode*.
        ``None`` (the default) keeps exact serving: every answer is
        bitwise-identical to the core computation at the index's own
        ``SimRankParams``.  A budget in ``(0, 1)`` lets the service answer
        queries from fewer walkers / shorter walks, trading accuracy
        (bounded by the budget) for latency.  The cheap operating point
        comes from ``approx_walkers`` / ``approx_steps`` when given,
        otherwise it is calibrated at service construction against
        :func:`repro.analysis.accuracy.exact_linearized_matrix` ground
        truth (see :func:`repro.analysis.accuracy.calibrate_query_budget`
        — exact ground truth is quadratic in graph size, so precalibrate
        on large graphs).  Index maintenance (updates and
        snapshots) always runs at the exact parameters.
    approx_walkers:
        Explicit query-walker count of the approximate mode; requires
        ``accuracy_budget``.  ``None`` asks calibration to choose.
    approx_steps:
        Explicit walk-step count of the approximate mode; requires
        ``accuracy_budget``.  ``None`` keeps the exact ``walk_steps``
        unless calibration chooses a shorter walk.
    """

    cache_capacity: int = 1024
    default_top_k: int = 10
    serve_backend: str = "serial"
    serve_workers: int = 4
    http_port: int = 8080
    coalesce_window: float = 0.002
    max_in_flight: int = 64
    accuracy_budget: Optional[float] = None
    approx_walkers: Optional[int] = None
    approx_steps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cache_capacity < 0:
            raise ConfigurationError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )
        if self.default_top_k < 1:
            raise ConfigurationError(
                f"default_top_k must be >= 1, got {self.default_top_k}"
            )
        # Imported here, not at the top: the Spark simulator imports this
        # module and must not load the executor (test_import_boundary.py).
        from repro.engine.executor import check_backend

        check_backend(self.serve_backend, "serve_backend")
        if self.serve_workers < 1:
            raise ConfigurationError(
                f"serve_workers must be >= 1, got {self.serve_workers}"
            )
        if not 0 <= self.http_port <= 65535:
            raise ConfigurationError(
                f"http_port must be in [0, 65535], got {self.http_port}"
            )
        if self.coalesce_window < 0:
            raise ConfigurationError(
                f"coalesce_window must be >= 0, got {self.coalesce_window}"
            )
        if self.max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.accuracy_budget is not None and not 0 < self.accuracy_budget < 1:
            raise ConfigurationError(
                f"accuracy_budget must be in (0, 1), got {self.accuracy_budget}"
            )
        if self.approx_walkers is not None:
            if self.accuracy_budget is None:
                raise ConfigurationError(
                    "approx_walkers requires an accuracy_budget (exact mode "
                    "never reduces walkers)"
                )
            if self.approx_walkers < 1:
                raise ConfigurationError(
                    f"approx_walkers must be >= 1, got {self.approx_walkers}"
                )
        if self.approx_steps is not None:
            if self.accuracy_budget is None:
                raise ConfigurationError(
                    "approx_steps requires an accuracy_budget (exact mode "
                    "never shortens walks)"
                )
            if self.approx_steps < 1:
                raise ConfigurationError(
                    f"approx_steps must be >= 1, got {self.approx_steps}"
                )

    def with_(self, **changes: Any) -> "ServiceParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class UpdateParams:
    """Knobs of the service's live-update path
    (:meth:`repro.service.QueryService.add_edges`).

    Attributes
    ----------
    max_pending_edges:
        Upper bound on edges queued via ``QueryService.add_edges(...,
        defer=True)`` before the queue is drained eagerly; bounds the
        staleness a deferred update can accumulate and the memory the queue
        can hold.  A single deferred batch larger than the bound is applied
        immediately instead of queued.
    max_node_growth:
        Upper bound on how far beyond the current node-id range a single
        inserted edge may point.  Inserting ``(u, v)`` implicitly creates
        every node up to ``max(u, v)``, so one typo or hostile wire line
        (``add 0 999999999``) could otherwise grow the graph — and the
        re-index — without bound.
    snapshot_every:
        Auto-snapshot the index (and linear system) after every N applied
        updates; ``0`` disables automatic snapshots.  Requires
        ``snapshot_dir``.
    snapshot_retain:
        How many snapshot versions to keep on disk (older ones are pruned).
    snapshot_dir:
        Directory of the service's :class:`repro.core.index.SnapshotStore`;
        ``None`` means snapshots are only written when a caller passes an
        explicit directory to ``QueryService.save_snapshot``.
    """

    max_pending_edges: int = 10_000
    max_node_growth: int = 10_000
    snapshot_every: int = 0
    snapshot_retain: int = 5
    snapshot_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_pending_edges < 1:
            raise ConfigurationError(
                f"max_pending_edges must be >= 1, got {self.max_pending_edges}"
            )
        if self.max_node_growth < 0:
            raise ConfigurationError(
                f"max_node_growth must be >= 0, got {self.max_node_growth}"
            )
        if self.snapshot_every < 0:
            raise ConfigurationError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.snapshot_retain < 1:
            raise ConfigurationError(
                f"snapshot_retain must be >= 1, got {self.snapshot_retain}"
            )
        if self.snapshot_every > 0 and self.snapshot_dir is None:
            raise ConfigurationError(
                "snapshot_every > 0 requires snapshot_dir to be set"
            )

    def with_(self, **changes: Any) -> "UpdateParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ShardingParams:
    """How a build or an update splits the index rows it estimates.

    ``K`` is a task count and nothing else: the sorted rows a build or an
    update estimates go out as ``S = min(K, workers)`` strided tasks
    (``rows[k::S]``, empty tasks dropped), the gathered system is solved once, and every
    worker serves from the whole broadcast diagonal.  Queries walk the
    whole graph, so ``K`` changes wall-clock only, never an answer, and
    nothing about the split is persisted.

    Attributes
    ----------
    num_shards:
        ``K`` — the most row-estimation tasks a build or an update runs.
        It also sizes the service's cache (``cache_capacity × K`` entries
        per kind).
    backend:
        Executor backend that runs the row tasks, one of
        :data:`repro.engine.executor.BACKENDS`; a build or an update runs
        ``min(K, workers)`` tasks on it, so one on ``"serial"``.  The
        backend changes only wall-clock, never results: every task's rows
        come from per-source random streams, so any execution order
        produces a bitwise-identical index.  Tasks ship a handle to the
        pool-resident graph (re-registered after each live update), never
        the graph itself.
    max_workers:
        Worker bound for the ``processes`` backend.
    """

    num_shards: int = 1
    backend: str = "serial"
    max_workers: int = 4

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        from repro.engine.executor import check_backend

        check_backend(self.backend)
        if self.max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )

    def with_(self, **changes: Any) -> "ShardingParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ClusterSpec:
    """Description of a (simulated) cluster for the engine cost model.

    The engine always *executes* locally; the spec is used to account the
    wall-clock a job would take on a cluster of this shape (number of
    machines and cores bounds parallelism, per-executor memory bounds the
    broadcasting model, network bandwidth prices shuffles and broadcasts).

    Attributes
    ----------
    machines:
        Number of worker machines.
    cores_per_machine:
        CPU cores available to executors on each machine.
    memory_per_machine_gb:
        Executor memory per machine, in gigabytes.
    network_gbps:
        Point-to-point network bandwidth in gigabits per second.
    """

    machines: int = 1
    cores_per_machine: int = 4
    memory_per_machine_gb: float = 8.0
    network_gbps: float = 1.0

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise ConfigurationError(f"machines must be >= 1, got {self.machines}")
        if self.cores_per_machine < 1:
            raise ConfigurationError(
                f"cores_per_machine must be >= 1, got {self.cores_per_machine}"
            )
        if self.memory_per_machine_gb <= 0:
            raise ConfigurationError(
                f"memory_per_machine_gb must be > 0, got {self.memory_per_machine_gb}"
            )
        if self.network_gbps <= 0:
            raise ConfigurationError(
                f"network_gbps must be > 0, got {self.network_gbps}"
            )

    @property
    def total_cores(self) -> int:
        """Total number of executor cores in the cluster."""
        return self.machines * self.cores_per_machine

    @property
    def memory_per_machine_bytes(self) -> float:
        """Executor memory per machine, in bytes."""
        return self.memory_per_machine_gb * 1e9

    @classmethod
    def paper_cluster(cls) -> "ClusterSpec":
        """The testbed used in the paper: 10 x (16 cores, 377 GB)."""
        return cls(
            machines=10,
            cores_per_machine=16,
            memory_per_machine_gb=377.0,
            network_gbps=10.0,
        )

    @classmethod
    def local(cls, cores: int = 4, memory_gb: float = 8.0) -> "ClusterSpec":
        """A single-machine spec matching a developer laptop."""
        return cls(
            machines=1,
            cores_per_machine=cores,
            memory_per_machine_gb=memory_gb,
            network_gbps=10.0,
        )

    def with_(self, **changes: Any) -> "ClusterSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class ExecutionOptions:
    """Knobs of the engine context the two execution models run on.

    The engine runs every task serially in the calling process; the cluster
    exists only in the cost model.

    Attributes
    ----------
    num_partitions:
        Default number of partitions for RDDs created from graph data.
        ``None`` lets the engine pick ``max(total_cores, 2)``.
    cluster:
        The cluster the cost model should simulate.
    """

    num_partitions: Optional[int] = None
    cluster: ClusterSpec = field(default_factory=ClusterSpec)

    def __post_init__(self) -> None:
        if self.num_partitions is not None and self.num_partitions < 1:
            raise ConfigurationError(
                f"num_partitions must be >= 1 or None, got {self.num_partitions}"
            )
