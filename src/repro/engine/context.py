"""ClusterContext: the engine's entry point (Spark's ``SparkContext``).

A context owns the DAG scheduler, the persistent RDD cache, the broadcast
registry and the job-metrics history.  CloudWalker's execution models create
one context per run and use it for every job; its tasks run serially in the
calling process.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.config import ClusterSpec, ExecutionOptions
from repro.engine.broadcast import Broadcast
from repro.engine.cost_model import ClusterCostModel
from repro.engine.metrics import JobMetrics, merge_job_metrics
from repro.engine.rdd import RDD, ParallelCollectionRDD
from repro.engine.scheduler import DAGScheduler
from repro.graph.digraph import DiGraph
from repro.graph.partition import Partitioner


class ClusterContext:
    """Entry point for creating RDDs and broadcasts.

    Parameters
    ----------
    options:
        Local execution options (default partition count).
    cluster:
        The cluster simulated by the cost model; defaults to
        ``options.cluster``.

    Example
    -------
    >>> ctx = ClusterContext()
    >>> sorted(ctx.parallelize(range(4)).map(lambda x: x * x).collect())
    [0, 1, 4, 9]
    """

    def __init__(
        self,
        options: Optional[ExecutionOptions] = None,
        cluster: Optional[ClusterSpec] = None,
    ) -> None:
        self.options = options or ExecutionOptions()
        self.cluster = cluster or self.options.cluster
        self._scheduler = DAGScheduler()
        self.cost_model = ClusterCostModel(self.cluster)
        self._rdd_counter = 0
        self._job_counter = 0
        self._cache: Dict[int, List[List[Any]]] = {}
        self.job_history: List[JobMetrics] = []
        self.broadcasts: List[Broadcast] = []
        self._pending_broadcast_bytes = 0

    # ------------------------------------------------------------------ #
    # Internal plumbing used by RDDs
    # ------------------------------------------------------------------ #
    def _next_rdd_id(self) -> int:
        self._rdd_counter += 1
        return self._rdd_counter

    def _run_job(self, rdd: RDD) -> List[List[Any]]:
        self._job_counter += 1
        partitions, metrics = self._scheduler.run(
            rdd,
            action="collect",
            job_id=self._job_counter,
            persistent_cache=self._cache,
            broadcast_bytes=self._pending_broadcast_bytes,
        )
        self._pending_broadcast_bytes = 0
        self.job_history.append(metrics)
        return partitions

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def default_parallelism(self) -> int:
        """Default number of partitions for new RDDs."""
        if self.options.num_partitions is not None:
            return self.options.num_partitions
        return max(self.cluster.total_cores, 2)

    def parallelize(self, data: Iterable[Any], num_partitions: Optional[int] = None,
                    name: str = "parallelize") -> RDD:
        """Distribute an in-driver collection as an RDD."""
        return ParallelCollectionRDD(
            self, data, num_partitions or self.default_parallelism, name=name
        )

    def broadcast(self, value: Any, size_bytes: Optional[int] = None) -> Broadcast:
        """Create a broadcast variable and account its size for the cost model."""
        broadcast = Broadcast(value, size_bytes=size_bytes)
        self.broadcasts.append(broadcast)
        self._pending_broadcast_bytes += broadcast.size_bytes
        return broadcast

    # ------------------------------------------------------------------ #
    # Graph ingestion helpers (the RDD execution model starts here)
    # ------------------------------------------------------------------ #
    def graph_in_adjacency_rdd(
        self,
        graph: DiGraph,
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> RDD:
        """RDD of ``(node, in_neighbour_array)`` records for ``graph``.

        This is the graph representation of the paper's RDD execution model:
        the adjacency is *not* broadcast, it lives in the distributed
        collection itself.  ``partitioner`` controls which partition each
        node's adjacency record is placed in (default: round-robin via
        ``parallelize``).
        """
        num_partitions = num_partitions or self.default_parallelism
        records: List[Tuple[int, np.ndarray]] = [
            (node, graph.in_neighbors(node)) for node in range(graph.n_nodes)
        ]
        if partitioner is None:
            return self.parallelize(records, num_partitions, name="in_adjacency")
        groups: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(partitioner.num_partitions)]
        for node, neighbors in records:
            groups[partitioner.partition(node)].append((node, neighbors))
        rdd = ParallelCollectionRDD(self, records, partitioner.num_partitions, name="in_adjacency")
        rdd.num_partitions = partitioner.num_partitions
        rdd._partitions = groups
        return rdd

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def metrics_since(self, job_index: int, action: str = "phase") -> JobMetrics:
        """Merge all job metrics recorded at or after ``job_index``."""
        return merge_job_metrics(self.job_history[job_index:], action=action)

    def checkpoint(self) -> int:
        """Return a marker usable with :meth:`metrics_since`."""
        return len(self.job_history)

    def shutdown(self) -> None:
        """Release cached partitions."""
        self._cache.clear()

    def __enter__(self) -> "ClusterContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"ClusterContext(cluster={self.cluster.machines}x"
            f"{self.cluster.cores_per_machine}cores)"
        )
