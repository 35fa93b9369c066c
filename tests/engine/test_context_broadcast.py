"""Unit tests for ClusterContext, Broadcast and job metrics."""

import numpy as np
import pytest

from repro.config import ClusterSpec, ExecutionOptions
from repro.engine.context import ClusterContext
from repro.engine.broadcast import Broadcast, estimate_size_bytes
from repro.errors import ConfigurationError
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
        ctx.parallelize([1, 2, 3]).collect()
        assert ctx.job_history[-1].broadcast_bytes >= 8000
        # Only the first job after a broadcast carries its bytes.
        ctx.parallelize([1, 2, 3]).collect()
        assert ctx.job_history[-1].broadcast_bytes == 0

    def test_broadcast_bytes_add_up_across_broadcasts(self, ctx):
        ctx.broadcast([1], size_bytes=100)
        ctx.broadcast([2], size_bytes=23)
        ctx.parallelize([1]).collect()
        assert ctx.job_history[-1].broadcast_bytes == 123
        assert len(ctx.broadcasts) == 2


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

    def test_invalid_num_partitions_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionOptions(num_partitions=0)

    def test_context_manager_shuts_down(self):
        with ClusterContext() as ctx:
            rdd = ctx.parallelize([1, 2]).map(lambda x: x).persist()
            assert sorted(rdd.collect()) == [1, 2]
            assert ctx._cache
        assert not ctx._cache

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

    def test_graph_in_adjacency_rdd_default_partitions(self, ctx):
        rdd = ctx.graph_in_adjacency_rdd(generators.cycle_graph(30))
        assert rdd.num_partitions == ctx.default_parallelism

    def test_graph_edges_rdd(self, ctx):
        # The adjacency RDD holds every edge exactly once, as in-lists.
        graph = generators.cycle_graph(5)
        edges = ctx.graph_in_adjacency_rdd(graph, 2).flat_map(
            lambda record: [(int(source), record[0]) for source in record[1]]
        ).collect()
        assert sorted(edges) == sorted(graph.edges())

class TestMetrics:
    def test_job_history_grows(self, ctx):
        before = len(ctx.job_history)
        ctx.parallelize([1, 2, 3]).collect()
        ctx.parallelize([1, 2, 3]).map(lambda x: x).collect()
        assert len(ctx.job_history) == before + 2

    def test_narrow_job_has_single_stage_per_rdd_level(self, ctx):
        ctx.parallelize(range(10), 2).map(lambda x: x).collect()
        metrics = ctx.job_history[-1]
        assert metrics.num_stages == 2  # parallelize + map
        assert metrics.num_tasks == 4

    def test_shuffle_job_has_map_and_reduce_stages(self, ctx):
        ctx.parallelize([("a", 1), ("b", 2)], 2).reduce_by_key(lambda a, b: a + b).collect()
        kinds = [stage.kind for stage in ctx.job_history[-1].stages]
        assert "shuffle-map" in kinds
        assert "shuffle-reduce" in kinds

    def test_shuffle_bytes_positive(self, ctx):
        pairs = [(i % 10, "x" * 50) for i in range(500)]
        ctx.parallelize(pairs, 4).reduce_by_key(lambda a, b: a + b).collect()
        assert ctx.job_history[-1].total_shuffle_bytes > 0

    def test_metrics_since_and_checkpoint(self, ctx):
        marker = ctx.checkpoint()
        ctx.parallelize([1]).collect()
        ctx.parallelize([2]).collect()
        merged = ctx.metrics_since(marker, action="phase")
        assert merged.num_stages >= 2
        assert merged.wall_clock_seconds > 0

    def test_checkpoint_counts_jobs(self, ctx):
        assert ctx.checkpoint() == 0
        ctx.parallelize([1]).collect()
        marker = ctx.checkpoint()
        assert marker == 1
        ctx.parallelize([2], 1).map(lambda x: x).collect()
        merged = ctx.metrics_since(marker)
        assert merged.num_stages == 2
        assert merged.num_tasks == 2

    def test_metrics_to_dict(self, ctx):
        ctx.parallelize([("a", 1)]).reduce_by_key(lambda a, b: a + b).collect()
        record = ctx.job_history[-1].to_dict()
        assert record["num_stages"] == len(record["stages"])
        assert record["action"] == "collect"
