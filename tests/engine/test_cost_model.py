"""Unit tests for the cluster cost model and executor backends."""

import pytest

from repro.config import ClusterSpec, ServiceParams, ShardingParams
from repro.engine.context import ClusterContext
from repro.engine.cost_model import ClusterCostModel
from repro.engine.executor import BACKENDS, ProcessBackend, SerialBackend, make_backend
from repro.engine.metrics import JobMetrics, StageMetrics, TaskMetrics
from repro.errors import CapacityExceededError, ConfigurationError


def _synthetic_metrics(num_tasks=8, task_seconds=0.1, shuffle_bytes=0, broadcast_bytes=0):
    stage = StageMetrics(name="stage", kind="narrow", shuffle_bytes=shuffle_bytes)
    for index in range(num_tasks):
        stage.tasks.append(
            TaskMetrics(
                stage_name="stage",
                partition=index,
                duration_seconds=task_seconds,
                input_records=100,
                output_records=100,
            )
        )
    return JobMetrics(job_id=1, action="test", stages=[stage],
                      broadcast_bytes=broadcast_bytes)


class TestCostModel:
    def test_more_cores_reduce_wall_clock(self):
        metrics = _synthetic_metrics(num_tasks=32, task_seconds=0.2)
        small = ClusterCostModel(ClusterSpec(machines=1, cores_per_machine=2))
        big = ClusterCostModel(ClusterSpec(machines=10, cores_per_machine=16))
        assert big.estimate(metrics).wall_clock_seconds < small.estimate(metrics).wall_clock_seconds

    def test_wall_clock_bounded_by_slowest_task(self):
        metrics = _synthetic_metrics(num_tasks=4, task_seconds=1.0)
        huge = ClusterCostModel(ClusterSpec(machines=100, cores_per_machine=64))
        assert huge.estimate(metrics).wall_clock_seconds >= 1.0

    def test_shuffle_costs_network_time(self):
        cluster = ClusterSpec(machines=4, cores_per_machine=4, network_gbps=1.0)
        model = ClusterCostModel(cluster)
        without = model.estimate(_synthetic_metrics(shuffle_bytes=0))
        with_shuffle = model.estimate(_synthetic_metrics(shuffle_bytes=10_000_000_000))
        assert with_shuffle.wall_clock_seconds > without.wall_clock_seconds
        assert with_shuffle.shuffle_seconds > 0

    def test_single_machine_shuffle_is_free(self):
        model = ClusterCostModel(ClusterSpec(machines=1, cores_per_machine=4))
        estimate = model.estimate(_synthetic_metrics(shuffle_bytes=10_000_000_000))
        assert estimate.shuffle_seconds == pytest.approx(0.0)

    def test_broadcast_cost_scales_with_machines(self):
        metrics = _synthetic_metrics(broadcast_bytes=1_000_000_000)
        few = ClusterCostModel(ClusterSpec(machines=2, cores_per_machine=4, network_gbps=10))
        many = ClusterCostModel(ClusterSpec(machines=10, cores_per_machine=4, network_gbps=10))
        assert many.estimate(metrics).broadcast_seconds > few.estimate(metrics).broadcast_seconds

    def test_broadcast_feasibility(self):
        cluster = ClusterSpec(machines=2, cores_per_machine=4, memory_per_machine_gb=1.0)
        model = ClusterCostModel(cluster)
        assert model.broadcast_fits(100_000_000)
        assert not model.broadcast_fits(10_000_000_000)
        with pytest.raises(CapacityExceededError):
            model.check_broadcast_fits(10_000_000_000, what="graph")
        estimate = model.estimate(_synthetic_metrics(broadcast_bytes=10_000_000_000))
        assert not estimate.feasible
        assert "memory" in estimate.infeasible_reason

    def test_estimate_scaled_graph_job(self):
        model = ClusterCostModel(ClusterSpec.paper_cluster())
        metrics = _synthetic_metrics(num_tasks=16, task_seconds=0.05)
        small = model.estimate_scaled_graph_job(
            metrics, measured_edges=1_000, target_edges=1_000
        )
        big = model.estimate_scaled_graph_job(
            metrics, measured_edges=1_000, target_edges=1_000_000
        )
        assert big.wall_clock_seconds > small.wall_clock_seconds

    def test_scaled_job_requires_positive_edges(self):
        model = ClusterCostModel(ClusterSpec())
        with pytest.raises(ValueError):
            model.estimate_scaled_graph_job(_synthetic_metrics(), 0, 10)

    def test_scaled_broadcast_model_becomes_infeasible(self):
        cluster = ClusterSpec(machines=10, cores_per_machine=16, memory_per_machine_gb=1.0)
        model = ClusterCostModel(cluster)
        metrics = _synthetic_metrics()
        estimate = model.estimate_scaled_graph_job(
            metrics, measured_edges=1_000, target_edges=10_000_000_000,
            is_broadcast_model=True,
        )
        assert not estimate.feasible
        rdd_estimate = model.estimate_scaled_graph_job(
            metrics, measured_edges=1_000, target_edges=10_000_000_000,
            is_broadcast_model=False,
        )
        assert rdd_estimate.feasible

    def test_estimate_to_dict(self):
        estimate = ClusterCostModel(ClusterSpec()).estimate(_synthetic_metrics())
        record = estimate.to_dict()
        assert record["feasible"] is True
        assert record["wall_clock_seconds"] > 0

    def test_paper_cluster_spec(self):
        spec = ClusterSpec.paper_cluster()
        assert spec.machines == 10
        assert spec.total_cores == 160
        assert spec.memory_per_machine_gb == pytest.approx(377.0)


def _square(value):
    return value * value


class TestBackends:
    def test_make_backend(self):
        assert BACKENDS == ("serial", "processes")
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("processes"), ProcessBackend)
        with pytest.raises(ConfigurationError):
            make_backend("quantum")

    @pytest.mark.parametrize("construct", [
        lambda: make_backend("threads"),
        lambda: ShardingParams(backend="threads"),
        lambda: ServiceParams(serve_backend="threads"),
    ], ids=["make_backend", "ShardingParams", "ServiceParams"])
    def test_threads_is_no_backend(self, construct):
        """The thread pool is gone; every place a backend is named refuses
        it with the names that remain."""
        with pytest.raises(ConfigurationError,
                           match=r"'serial', 'processes'.*'threads'"):
            construct()

    def test_serial_order_preserved(self):
        backend = SerialBackend()
        results = backend.run([lambda i=i: i * 2 for i in range(5)])
        assert results == [0, 2, 4, 6, 8]

    def test_process_backend_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(max_workers=0)

    def test_process_backend_rejects_unpicklable_closure(self):
        # A closure over a local lambda cannot be pickled; the backend must
        # refuse it up front instead of surfacing an opaque worker error.
        from functools import partial

        local_fn = lambda value: value + 1  # noqa: E731
        backend = ProcessBackend(max_workers=2)
        with pytest.raises(ConfigurationError, match="not picklable"):
            backend.run([partial(_square, 2), lambda: local_fn(1)])

    def test_process_backend_runs_picklable_tasks(self):
        from functools import partial

        with ProcessBackend(max_workers=2) as backend:
            results = backend.run([partial(_square, value) for value in range(4)])
        assert results == [0, 1, 4, 9]

    def test_executor_repr(self):
        assert "SerialBackend" in repr(SerialBackend())
