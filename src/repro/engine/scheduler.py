"""DAG scheduler: turns RDD lineage into stages and runs them locally.

The scheduler materialises RDDs bottom-up, running every task serially in
the calling process.  Narrow chains are fused into a single stage per RDD
level; a :class:`~repro.engine.rdd.ShuffledRDD` becomes two stages
(shuffle-map and shuffle-reduce), exactly the boundary Spark introduces.
Every task is timed and counted so the
:class:`~repro.engine.cost_model.ClusterCostModel` can replay the job on a
simulated cluster.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Callable, Dict, List

from repro.engine.metrics import JobMetrics, StageMetrics, TaskMetrics
from repro.engine.rdd import RDD, ShuffledRDD
from repro.errors import JobExecutionError


def estimate_records_bytes(partitions: List[List[Any]], sample_size: int = 20) -> int:
    """Estimate the serialised size of a set of partitions.

    Pickles a small sample of records and extrapolates; good enough for the
    cost model, cheap enough to run on every shuffle.
    """
    total_records = sum(len(partition) for partition in partitions)
    if total_records == 0:
        return 0
    sample: List[Any] = []
    for partition in partitions:
        for record in partition:
            sample.append(record)
            if len(sample) >= sample_size:
                break
        if len(sample) >= sample_size:
            break
    try:
        sample_bytes = len(pickle.dumps(sample, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        sample_bytes = 64 * len(sample)
    per_record = sample_bytes / max(len(sample), 1)
    return int(per_record * total_records)


def _run_task(stage: StageMetrics, index: int, input_records: int,
              compute: Callable[[], Any], output_records: Callable[[Any], int] = len) -> Any:
    """Run one task of ``stage``, recording its metrics in the stage."""
    start = time.perf_counter()
    try:
        result = compute()
    except Exception as exc:  # surface which task failed
        raise JobExecutionError(stage.name, index, exc) from exc
    stage.tasks.append(TaskMetrics(
        stage_name=stage.name,
        partition=index,
        duration_seconds=time.perf_counter() - start,
        input_records=input_records,
        output_records=output_records(result),
    ))
    return result


class DAGScheduler:
    """Executes RDD lineages in-process, collecting metrics."""

    # ------------------------------------------------------------------ #
    def run(self, rdd: RDD, action: str, job_id: int,
            persistent_cache: Dict[int, List[List[Any]]],
            broadcast_bytes: int = 0) -> tuple[List[List[Any]], JobMetrics]:
        """Materialise ``rdd`` and return (partitions, metrics)."""
        metrics = JobMetrics(job_id=job_id, action=action,
                             broadcast_bytes=broadcast_bytes)
        started = time.perf_counter()
        memo: Dict[int, List[List[Any]]] = {}
        partitions = self._materialize(rdd, memo, persistent_cache, metrics)
        metrics.wall_clock_seconds = time.perf_counter() - started
        return partitions, metrics

    # ------------------------------------------------------------------ #
    def _materialize(
        self,
        rdd: RDD,
        memo: Dict[int, List[List[Any]]],
        persistent_cache: Dict[int, List[List[Any]]],
        metrics: JobMetrics,
    ) -> List[List[Any]]:
        if rdd.rdd_id in memo:
            return memo[rdd.rdd_id]
        if rdd.rdd_id in persistent_cache:
            memo[rdd.rdd_id] = persistent_cache[rdd.rdd_id]
            return memo[rdd.rdd_id]

        if isinstance(rdd, ShuffledRDD):
            partitions = self._run_shuffle(rdd, memo, persistent_cache, metrics)
        else:
            partitions = self._run_narrow(rdd, memo, persistent_cache, metrics)

        memo[rdd.rdd_id] = partitions
        if rdd.persisted:
            persistent_cache[rdd.rdd_id] = partitions
        return partitions

    # ------------------------------------------------------------------ #
    def _run_narrow(
        self,
        rdd: RDD,
        memo: Dict[int, List[List[Any]]],
        persistent_cache: Dict[int, List[List[Any]]],
        metrics: JobMetrics,
    ) -> List[List[Any]]:
        parent_partitions = [
            self._materialize(parent, memo, persistent_cache, metrics)
            for parent in rdd.parents
        ]
        stage = StageMetrics(name=f"{rdd.name}#{rdd.rdd_id}", kind="narrow")
        partitions = []
        for index in range(rdd.num_partitions):
            parent_data = [
                parent_partitions[parent_pos][parent_part]
                for parent_pos, parent_part in rdd.partition_dependencies(index)
            ]
            partitions.append(_run_task(
                stage, index, sum(len(chunk) for chunk in parent_data),
                lambda: rdd.compute_partition(index, parent_data),
            ))
        metrics.stages.append(stage)
        return partitions

    # ------------------------------------------------------------------ #
    def _run_shuffle(
        self,
        rdd: ShuffledRDD,
        memo: Dict[int, List[List[Any]]],
        persistent_cache: Dict[int, List[List[Any]]],
        metrics: JobMetrics,
    ) -> List[List[Any]]:
        parent_partitions = self._materialize(rdd.parents[0], memo, persistent_cache, metrics)

        # --- shuffle-map stage ------------------------------------------ #
        map_stage = StageMetrics(name=f"{rdd.name}#map#{rdd.rdd_id}", kind="shuffle-map")
        all_buckets = [
            _run_task(map_stage, index, len(records),
                      lambda: rdd.map_side(records),
                      lambda buckets: sum(len(bucket) for bucket in buckets))
            for index, records in enumerate(parent_partitions)
        ]
        # Shuffle volume: everything the map side emits crosses the network
        # (minus what stays machine-local; the cost model discounts that).
        map_stage.shuffle_bytes = estimate_records_bytes(
            [list(bucket.items()) for buckets in all_buckets for bucket in buckets]
        )
        metrics.stages.append(map_stage)

        # --- shuffle-reduce stage --------------------------------------- #
        reduce_stage = StageMetrics(
            name=f"{rdd.name}#reduce#{rdd.rdd_id}", kind="shuffle-reduce"
        )
        partitions = []
        for target in range(rdd.num_partitions):
            incoming = [buckets[target] for buckets in all_buckets]
            partitions.append(_run_task(
                reduce_stage, target, sum(len(bucket) for bucket in incoming),
                lambda: rdd.reduce_side(incoming),
            ))
        metrics.stages.append(reduce_stage)
        return partitions
