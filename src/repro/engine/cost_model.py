"""Cluster cost model: replay local job metrics on a simulated cluster.

The engine executes every job locally and records, per stage, how much task
compute time it needed, how many tasks it had, and how many bytes crossed the
shuffle.  This module converts those measurements into an estimated
wall-clock on an arbitrary :class:`~repro.config.ClusterSpec`, which is what
lets a single machine reproduce the *shape* of the paper's cluster results
(10 machines x 16 cores):

* compute time scales down with the number of cores (bounded below by the
  slowest task — stragglers do not parallelise);
* every task pays a scheduling overhead, so many-partition RDD jobs carry a
  constant-factor penalty over broadcast jobs (the paper's observation that
  "broadcasting is more efficient");
* shuffle and broadcast traffic pay a network cost;
* the broadcasting model is *infeasible* when the broadcast object does not
  fit in a single executor's memory (the paper's reason to also provide the
  RDD model, which is "more scalable").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.config import ClusterSpec
from repro.engine.metrics import JobMetrics
from repro.errors import CapacityExceededError


@dataclass
class CostEstimate:
    """Estimated cost of one job on a simulated cluster."""

    wall_clock_seconds: float
    compute_seconds: float
    shuffle_seconds: float
    broadcast_seconds: float
    overhead_seconds: float
    feasible: bool = True
    infeasible_reason: str = ""
    breakdown: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "wall_clock_seconds": self.wall_clock_seconds,
            "compute_seconds": self.compute_seconds,
            "shuffle_seconds": self.shuffle_seconds,
            "broadcast_seconds": self.broadcast_seconds,
            "overhead_seconds": self.overhead_seconds,
            "feasible": self.feasible,
            "infeasible_reason": self.infeasible_reason,
        }


class ClusterCostModel:
    """Translate measured :class:`JobMetrics` into simulated cluster time.

    Parameters
    ----------
    cluster:
        The cluster to simulate.
    task_overhead_seconds:
        Fixed scheduling/launch overhead charged per task (Spark's task
        launch latency is a few milliseconds).
    memory_safety_factor:
        Fraction of executor memory usable for a broadcast object before the
        broadcasting model is declared infeasible.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        task_overhead_seconds: float = 0.004,
        memory_safety_factor: float = 0.6,
    ) -> None:
        self.cluster = cluster
        self.task_overhead_seconds = task_overhead_seconds
        self.memory_safety_factor = memory_safety_factor

    # ------------------------------------------------------------------ #
    def check_broadcast_fits(self, size_bytes: float, what: str = "broadcast object") -> None:
        """Raise :class:`CapacityExceededError` if ``size_bytes`` cannot be
        replicated into a single executor's memory."""
        available = self.cluster.memory_per_machine_bytes * self.memory_safety_factor
        if size_bytes > available:
            raise CapacityExceededError(size_bytes, available, what)

    def broadcast_fits(self, size_bytes: float) -> bool:
        """Non-raising variant of :meth:`check_broadcast_fits`."""
        available = self.cluster.memory_per_machine_bytes * self.memory_safety_factor
        return size_bytes <= available

    # ------------------------------------------------------------------ #
    def estimate(self, metrics: JobMetrics,
                 broadcast_bytes: Optional[int] = None) -> CostEstimate:
        """Estimate the wall-clock of ``metrics`` on :attr:`cluster`."""
        cores = self.cluster.total_cores
        bandwidth_bytes_per_second = self.cluster.network_gbps * 1e9 / 8.0

        compute_seconds = 0.0
        overhead_seconds = 0.0
        shuffle_seconds = 0.0
        breakdown: Dict[str, float] = {}
        for stage in metrics.stages:
            # Perfect parallelism bounded by the slowest task.
            stage_compute = max(
                stage.total_task_seconds / cores, stage.max_task_seconds
            )
            # Tasks launch in waves; overhead is paid once per wave per core.
            waves = -(-stage.num_tasks // cores)  # ceil division
            stage_overhead = waves * self.task_overhead_seconds
            # All-to-all shuffle: each byte crosses the network once; traffic
            # between tasks on the same machine is free, hence the
            # (machines - 1) / machines discount.
            locality_discount = (
                (self.cluster.machines - 1) / self.cluster.machines
                if self.cluster.machines > 1
                else 0.0
            )
            stage_shuffle = (
                stage.shuffle_bytes * locality_discount / bandwidth_bytes_per_second
            )
            compute_seconds += stage_compute
            overhead_seconds += stage_overhead
            shuffle_seconds += stage_shuffle
            breakdown[stage.name] = stage_compute + stage_overhead + stage_shuffle

        total_broadcast_bytes = (
            metrics.broadcast_bytes if broadcast_bytes is None else broadcast_bytes
        )
        # The driver ships the broadcast once per machine (tree/bittorrent
        # broadcast would be cheaper; one-per-machine is the conservative
        # model and matches small clusters well).
        broadcast_seconds = (
            total_broadcast_bytes
            * max(self.cluster.machines - 1, 0)
            / bandwidth_bytes_per_second
        )

        wall_clock = compute_seconds + overhead_seconds + shuffle_seconds + broadcast_seconds
        feasible = True
        reason = ""
        if total_broadcast_bytes and not self.broadcast_fits(total_broadcast_bytes):
            feasible = False
            reason = (
                f"broadcast of {total_broadcast_bytes / 1e9:.2f} GB exceeds "
                f"{self.memory_safety_factor:.0%} of per-executor memory "
                f"({self.cluster.memory_per_machine_gb} GB)"
            )
        return CostEstimate(
            wall_clock_seconds=wall_clock,
            compute_seconds=compute_seconds,
            shuffle_seconds=shuffle_seconds,
            broadcast_seconds=broadcast_seconds,
            overhead_seconds=overhead_seconds,
            feasible=feasible,
            infeasible_reason=reason,
            breakdown=breakdown,
        )

    # ------------------------------------------------------------------ #
    def estimate_scaled_graph_job(
        self,
        metrics: JobMetrics,
        measured_edges: int,
        target_edges: int,
        graph_bytes_per_edge: float = 16.0,
        is_broadcast_model: bool = True,
    ) -> CostEstimate:
        """Extrapolate a measured job to a graph with ``target_edges`` edges.

        Used by the scalability figure (F2): the same logical job is measured
        on a stand-in graph and linearly extrapolated in |E| (CloudWalker's
        per-iteration work is linear in the number of edges touched by the
        walks), then priced on the simulated cluster.  The broadcast
        feasibility check uses the *target* graph size, which is what makes
        the broadcasting model hit its memory wall on clue-web-sized graphs.
        """
        if measured_edges <= 0:
            raise ValueError("measured_edges must be positive")
        scale = target_edges / measured_edges
        scaled = JobMetrics(
            job_id=metrics.job_id,
            action=f"{metrics.action}@{target_edges}edges",
            broadcast_bytes=(
                int(target_edges * graph_bytes_per_edge) if is_broadcast_model else 0
            ),
        )
        for stage in metrics.stages:
            scaled_stage = type(stage)(
                name=stage.name, kind=stage.kind, tasks=list(stage.tasks),
                shuffle_bytes=int(stage.shuffle_bytes * scale),
            )
            # Scale task durations by the edge ratio.
            scaled_stage.tasks = [
                type(task)(
                    stage_name=task.stage_name,
                    partition=task.partition,
                    duration_seconds=task.duration_seconds * scale,
                    input_records=int(task.input_records * scale),
                    output_records=int(task.output_records * scale),
                )
                for task in stage.tasks
            ]
            scaled.stages.append(scaled_stage)
        return self.estimate(scaled)

