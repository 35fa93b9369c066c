"""A Spark-like local cluster-computing engine.

The paper implements CloudWalker on Apache Spark and compares two execution
models (graph broadcast to every worker vs. graph stored in an RDD).  Spark
itself is not available offline, so this subpackage provides a from-scratch
engine exposing the subset of the Spark API the paper's jobs need:

* :class:`~repro.engine.context.ClusterContext` — entry point
  (``parallelize``, ``broadcast``, ``accumulator``, ``text_file``,
  ``graph_in_adjacency_rdd``, ``checkpoint`` / ``metrics_since``).
* :class:`~repro.engine.rdd.RDD` — lazy, lineage-based distributed
  collections with the usual transformations (``map``, ``flat_map``,
  ``filter``, ``map_partitions``, ``reduce_by_key``, ``group_by_key``,
  ``join``, ``cogroup``, …) and actions (``collect``, ``count``,
  ``reduce``, ``take``).
* :class:`~repro.engine.scheduler.DAGScheduler` — splits the lineage graph
  into stages at shuffle boundaries and runs them on a pluggable local
  backend (serial, thread pool or process pool).
* :class:`~repro.engine.broadcast.Broadcast` /
  :class:`~repro.engine.accumulator.Accumulator` — shared variables.
* :class:`~repro.engine.cost_model.ClusterCostModel` — converts the measured
  task metrics of a job into an estimated wall-clock on a simulated cluster
  (:class:`~repro.config.ClusterSpec`), which is how the benchmark harness
  reproduces the paper's cluster-scale tables on a single machine.

The engine executes everything locally and correctly; the *cluster* is
simulated only in the cost model, never in the semantics.

Only :mod:`repro.engine.executor` (the executor backends and the resident
registry) is shared with the serving side; importing this package loads
nothing else, so ``repro.service`` never pulls in the simulator.
"""


def __getattr__(name: str):
    # The entry point stays reachable as ``repro.engine.ClusterContext``
    # without an eager import, which would load the whole simulator.
    if name == "ClusterContext":
        from repro.engine.context import ClusterContext

        return ClusterContext
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
