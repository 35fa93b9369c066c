"""Unit tests for ClusterContext, Broadcast, Accumulator and metrics."""

import numpy as np
import pytest

from repro.config import ClusterSpec, ExecutionOptions
from repro.engine.context import ClusterContext
from repro.engine.broadcast import Broadcast, estimate_size_bytes
from repro.graph import generators
from repro.graph.partition import HashPartitioner


@pytest.fixture()
def ctx():
    context = ClusterContext()
    yield context
    context.shutdown()


class TestBroadcast:
    def test_value_accessible(self, ctx):
        broadcast = ctx.broadcast({"a": 1})
        assert broadcast.value == {"a": 1}

    def test_destroy(self, ctx):
        broadcast = ctx.broadcast([1, 2, 3])
        broadcast.destroy()
        with pytest.raises(ValueError):
            _ = broadcast.value
        assert "destroyed" in repr(broadcast)

    def test_size_of_numpy_array(self):
        array = np.zeros(1000, dtype=np.float64)
        assert estimate_size_bytes(array) == array.nbytes

    def test_size_of_graph_uses_memory_bytes(self):
        graph = generators.cycle_graph(100)
        assert estimate_size_bytes(graph) == graph.memory_bytes()

    def test_size_of_tuple_of_arrays(self):
        arrays = (np.zeros(10), np.zeros(20))
        assert estimate_size_bytes(arrays) == arrays[0].nbytes + arrays[1].nbytes

    def test_size_override(self):
        broadcast = Broadcast([1], size_bytes=12345)
        assert broadcast.size_bytes == 12345

    def test_broadcast_usable_inside_tasks(self, ctx):
        lookup = ctx.broadcast({1: "one", 2: "two"})
        result = ctx.parallelize([1, 2, 1]).map(lambda x: lookup.value[x]).collect()
        assert result == ["one", "two", "one"]

    def test_broadcast_bytes_recorded_in_metrics(self, ctx):
        ctx.broadcast(np.zeros(1000))
        ctx.parallelize([1, 2, 3]).count()
        assert ctx.last_job_metrics.broadcast_bytes >= 8000


class TestAccumulator:
    def test_sum_accumulator(self, ctx):
        acc = ctx.accumulator(0)
        ctx.parallelize(range(10)).foreach(acc.add)
        assert acc.value == 45
        assert acc.updates == 10

    def test_custom_combine(self, ctx):
        acc = ctx.accumulator(1, combine=lambda a, b: a * b, name="product")
        for value in [2, 3, 4]:
            acc.add(value)
        assert acc.value == 24
        assert "product" in repr(acc)

    def test_reset(self, ctx):
        acc = ctx.accumulator(0)
        acc.add(5)
        acc.reset(0)
        assert acc.value == 0
        assert acc.updates == 0


class TestContext:
    def test_default_parallelism_from_cluster(self):
        ctx = ClusterContext(cluster=ClusterSpec(machines=2, cores_per_machine=3))
        try:
            assert ctx.default_parallelism == 6
        finally:
            ctx.shutdown()

    def test_default_parallelism_override(self):
        ctx = ClusterContext(ExecutionOptions(num_partitions=5))
        try:
            assert ctx.default_parallelism == 5
        finally:
            ctx.shutdown()

    def test_range(self, ctx):
        assert ctx.range(3).collect() == [0, 1, 2]
        assert ctx.range(2, 5).collect() == [2, 3, 4]

    def test_text_file(self, ctx, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("alpha\nbeta\ngamma\n")
        assert ctx.text_file(path).count() == 3

    def test_text_file_directory_of_parts(self, ctx, tmp_path):
        (tmp_path / "part-00000").write_text("a\nb\n")
        (tmp_path / "part-00001").write_text("c\n")
        assert sorted(ctx.text_file(tmp_path).collect()) == ["a", "b", "c"]

    def test_context_manager_shuts_down(self):
        with ClusterContext() as ctx:
            assert ctx.parallelize([1, 2]).count() == 2

    def test_repr(self, ctx):
        assert "ClusterContext" in repr(ctx)

    def test_graph_in_adjacency_rdd(self, ctx):
        graph = generators.star_graph(4)
        rdd = ctx.graph_in_adjacency_rdd(graph)
        records = dict(rdd.collect())
        assert len(records) == graph.n_nodes
        assert records[1].tolist() == [0]
        assert records[0].tolist() == []

    def test_graph_in_adjacency_rdd_with_partitioner(self, ctx):
        graph = generators.cycle_graph(12)
        partitioner = HashPartitioner(3)
        rdd = ctx.graph_in_adjacency_rdd(graph, partitioner=partitioner)
        assert rdd.num_partitions == 3
        assert len(rdd.collect()) == 12

    def test_graph_edges_rdd(self, ctx):
        graph = generators.cycle_graph(5)
        assert sorted(ctx.graph_edges_rdd(graph).collect()) == sorted(graph.edges())


class TestMetrics:
    def test_job_history_grows(self, ctx):
        before = len(ctx.job_history)
        ctx.parallelize([1, 2, 3]).count()
        ctx.parallelize([1, 2, 3]).map(lambda x: x).collect()
        assert len(ctx.job_history) == before + 2

    def test_narrow_job_has_single_stage_per_rdd_level(self, ctx):
        ctx.parallelize(range(10), 2).map(lambda x: x).collect()
        metrics = ctx.last_job_metrics
        assert metrics.num_stages == 2  # parallelize + map
        assert metrics.num_tasks == 4

    def test_shuffle_job_has_map_and_reduce_stages(self, ctx):
        ctx.parallelize([("a", 1), ("b", 2)], 2).reduce_by_key(lambda a, b: a + b).collect()
        kinds = [stage.kind for stage in ctx.last_job_metrics.stages]
        assert "shuffle-map" in kinds
        assert "shuffle-reduce" in kinds

    def test_shuffle_bytes_positive(self, ctx):
        pairs = [(i % 10, "x" * 50) for i in range(500)]
        ctx.parallelize(pairs, 4).group_by_key().collect()
        assert ctx.last_job_metrics.total_shuffle_bytes > 0

    def test_metrics_since_and_checkpoint(self, ctx):
        marker = ctx.checkpoint()
        ctx.parallelize([1]).count()
        ctx.parallelize([2]).count()
        merged = ctx.metrics_since(marker, action="phase")
        assert merged.num_stages >= 2
        assert merged.wall_clock_seconds > 0

    def test_metrics_to_dict(self, ctx):
        ctx.parallelize([("a", 1)]).reduce_by_key(lambda a, b: a + b).collect()
        record = ctx.last_job_metrics.to_dict()
        assert record["num_stages"] == len(record["stages"])
        assert record["action"] == "collect"

    def test_estimate_cost_requires_a_job(self):
        with ClusterContext() as fresh:
            with pytest.raises(ValueError):
                fresh.estimate_cost()
