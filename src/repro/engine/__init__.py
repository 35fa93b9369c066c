"""A Spark-like local cluster-computing engine.

The paper implements CloudWalker on Apache Spark and compares two execution
models (graph broadcast to every worker vs. graph stored in an RDD).  Spark
itself is not available offline, so this subpackage provides a from-scratch
engine exposing the subset of the Spark API those two models run:

* :class:`~repro.engine.context.ClusterContext` — entry point
  (``parallelize``, ``broadcast``, ``graph_in_adjacency_rdd``,
  ``checkpoint`` / ``metrics_since``).
* :class:`~repro.engine.rdd.RDD` — lazy, lineage-based distributed
  collections: ``map``, ``flat_map``, ``map_partitions``, ``cogroup``,
  ``reduce_by_key``, ``persist`` and ``collect``.
* :class:`~repro.engine.scheduler.DAGScheduler` — splits the lineage graph
  into stages at shuffle boundaries and runs their tasks serially in
  process, timing each one.
* :class:`~repro.engine.broadcast.Broadcast` — the shared read-only
  variable of the broadcasting model.
* :class:`~repro.engine.cost_model.ClusterCostModel` — converts the measured
  task metrics of a job into an estimated wall-clock on a simulated cluster
  (:class:`~repro.config.ClusterSpec`), which is how the benchmark harness
  reproduces the paper's cluster-scale tables on a single machine.

The engine executes everything locally and correctly; the *cluster* is
simulated only in the cost model, never in the semantics.

:mod:`repro.engine.executor` (the executor backends and the resident
registry) belongs to the serving side and the sharded index build; the
simulator does not import it.  This package re-exports nothing, so
``repro.service`` loads only ``executor`` and never the simulator.
"""
