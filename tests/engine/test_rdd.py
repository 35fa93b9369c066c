"""Unit tests for RDD transformations and actions."""

import pytest

from repro.config import ExecutionOptions
from repro.engine.context import ClusterContext
from repro.errors import ConfigurationError, JobExecutionError


@pytest.fixture()
def ctx():
    context = ClusterContext()
    yield context
    context.shutdown()


class TestBasicTransformations:
    def test_map_collect(self, ctx):
        assert ctx.parallelize([1, 2, 3]).map(lambda x: x * 2).collect() == [2, 4, 6]

    def test_filter(self, ctx):
        result = ctx.range(10).filter(lambda x: x % 2 == 0).collect()
        assert sorted(result) == [0, 2, 4, 6, 8]

    def test_flat_map(self, ctx):
        result = ctx.parallelize(["a b", "c"]).flat_map(str.split).collect()
        assert sorted(result) == ["a", "b", "c"]

    def test_map_partitions(self, ctx):
        rdd = ctx.parallelize(range(10), num_partitions=3)
        sums = rdd.map_partitions(lambda records: [sum(records)]).collect()
        assert sum(sums) == 45
        assert len(sums) == 3

    def test_map_partitions_with_index(self, ctx):
        rdd = ctx.parallelize(range(6), num_partitions=2)
        tagged = rdd.map_partitions_with_index(
            lambda idx, records: [(idx, value) for value in records]
        ).collect()
        assert {idx for idx, _ in tagged} == {0, 1}

    def test_glom(self, ctx):
        rdd = ctx.parallelize(range(6), num_partitions=3)
        chunks = rdd.glom().collect()
        assert len(chunks) == 3
        assert sorted(x for chunk in chunks for x in chunk) == list(range(6))

    def test_union(self, ctx):
        left = ctx.parallelize([1, 2])
        right = ctx.parallelize([3])
        assert sorted(left.union(right).collect()) == [1, 2, 3]

    def test_distinct(self, ctx):
        assert sorted(ctx.parallelize([1, 1, 2, 2, 3]).distinct().collect()) == [1, 2, 3]

    def test_key_by_and_values(self, ctx):
        rdd = ctx.parallelize(["aa", "b"]).key_by(len)
        assert sorted(rdd.collect()) == [(1, "b"), (2, "aa")]
        assert sorted(rdd.keys().collect()) == [1, 2]
        assert sorted(rdd.values().collect()) == ["aa", "b"]

    def test_sample_deterministic(self, ctx):
        rdd = ctx.parallelize(range(1000), num_partitions=4)
        first = rdd.sample(0.1, seed=3).collect()
        second = rdd.sample(0.1, seed=3).collect()
        assert first == second
        assert 40 < len(first) < 200

    def test_sample_invalid_fraction(self, ctx):
        with pytest.raises(ConfigurationError):
            ctx.parallelize([1]).sample(1.5)

    def test_coalesce(self, ctx):
        rdd = ctx.parallelize(range(20), num_partitions=8).coalesce(2)
        assert rdd.num_partitions == 2
        assert sorted(rdd.collect()) == list(range(20))

    def test_zip_with_index(self, ctx):
        rdd = ctx.parallelize(["a", "b", "c", "d"], num_partitions=2)
        indexed = rdd.zip_with_index().collect()
        assert sorted(index for _value, index in indexed) == [0, 1, 2, 3]
        assert {value for value, _index in indexed} == {"a", "b", "c", "d"}

    def test_chained_laziness(self, ctx):
        jobs_before = len(ctx.job_history)
        rdd = ctx.range(100).map(lambda x: x + 1).filter(lambda x: x % 2)
        # No job runs until an action is called.
        assert len(ctx.job_history) == jobs_before
        assert rdd.count() == 50
        assert len(ctx.job_history) == jobs_before + 1


class TestPairOperations:
    def test_reduce_by_key(self, ctx):
        pairs = [("a", 1), ("b", 2), ("a", 3), ("b", 3)]
        result = dict(ctx.parallelize(pairs).reduce_by_key(lambda a, b: a + b).collect())
        assert result == {"a": 4, "b": 5}

    def test_group_by_key(self, ctx):
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        result = dict(ctx.parallelize(pairs).group_by_key().collect())
        assert sorted(result["a"]) == [1, 3]
        assert result["b"] == [2]

    def test_combine_by_key_average(self, ctx):
        pairs = [("a", 1.0), ("a", 3.0), ("b", 10.0)]
        combined = ctx.parallelize(pairs).combine_by_key(
            create_combiner=lambda v: (v, 1),
            merge_value=lambda acc, v: (acc[0] + v, acc[1] + 1),
            merge_combiners=lambda x, y: (x[0] + y[0], x[1] + y[1]),
        )
        averages = {k: total / count for k, (total, count) in combined.collect()}
        assert averages == {"a": 2.0, "b": 10.0}

    def test_map_values_and_flat_map_values(self, ctx):
        rdd = ctx.parallelize([("a", 2), ("b", 3)])
        assert dict(rdd.map_values(lambda v: v * 10).collect()) == {"a": 20, "b": 30}
        expanded = rdd.flat_map_values(range).collect()
        assert ("a", 0) in expanded and ("b", 2) in expanded
        assert len(expanded) == 5

    def test_join(self, ctx):
        left = ctx.parallelize([("a", 1), ("b", 2), ("a", 3)])
        right = ctx.parallelize([("a", "x"), ("c", "y")])
        joined = sorted(left.join(right).collect())
        assert joined == [("a", (1, "x")), ("a", (3, "x"))]

    def test_left_outer_join(self, ctx):
        left = ctx.parallelize([("a", 1), ("b", 2)])
        right = ctx.parallelize([("a", "x")])
        joined = dict(left.left_outer_join(right).collect())
        assert joined == {"a": (1, "x"), "b": (2, None)}

    def test_cogroup(self, ctx):
        left = ctx.parallelize([("a", 1), ("a", 2)])
        right = ctx.parallelize([("a", "x"), ("b", "y")])
        grouped = dict(left.cogroup(right).collect())
        assert sorted(grouped["a"][0]) == [1, 2]
        assert grouped["a"][1] == ["x"]
        assert grouped["b"] == ([], ["y"])

    def test_count_by_key(self, ctx):
        rdd = ctx.parallelize([("a", 1), ("a", 2), ("b", 1)])
        assert rdd.count_by_key() == {"a": 2, "b": 1}

    def test_collect_as_map(self, ctx):
        assert ctx.parallelize([("a", 1), ("b", 2)]).collect_as_map() == {"a": 1, "b": 2}

    def test_partition_by_preserves_all_records(self, ctx):
        from repro.engine.partitioner import HashKeyPartitioner

        pairs = [(i % 5, i) for i in range(50)]
        shuffled = ctx.parallelize(pairs).partition_by(HashKeyPartitioner(3))
        assert sorted(shuffled.collect()) == sorted(pairs)
        assert shuffled.num_partitions == 3


class TestSorting:
    def test_sort_by_ascending(self, ctx):
        data = [5, 3, 8, 1, 9, 2]
        assert ctx.parallelize(data, 3).sort_by(lambda x: x).collect() == sorted(data)

    def test_sort_by_descending(self, ctx):
        data = list(range(20))
        result = ctx.parallelize(data, 4).sort_by(lambda x: x, ascending=False).collect()
        assert result == sorted(data, reverse=True)

    def test_sort_by_key_function(self, ctx):
        words = ["ccc", "a", "bb"]
        assert ctx.parallelize(words).sort_by(len).collect() == ["a", "bb", "ccc"]


class TestActions:
    def test_count_and_sum(self, ctx):
        rdd = ctx.range(101)
        assert rdd.count() == 101
        assert rdd.sum() == 5050

    def test_reduce(self, ctx):
        assert ctx.parallelize([1, 2, 3, 4]).reduce(lambda a, b: a * b) == 24

    def test_reduce_empty_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.empty_rdd().reduce(lambda a, b: a + b)

    def test_take_and_first(self, ctx):
        rdd = ctx.parallelize([7, 8, 9])
        assert rdd.take(2) == [7, 8]
        assert rdd.take(0) == []
        assert rdd.first() == 7

    def test_first_empty_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.empty_rdd().first()

    def test_foreach(self, ctx):
        seen = []
        ctx.parallelize([1, 2, 3]).foreach(seen.append)
        assert sorted(seen) == [1, 2, 3]

    def test_collect_partitions(self, ctx):
        rdd = ctx.parallelize(range(10), num_partitions=5)
        parts = rdd.collect_partitions()
        assert len(parts) == 5
        assert sorted(x for part in parts for x in part) == list(range(10))

    def test_task_failure_raises_job_execution_error(self, ctx):
        rdd = ctx.parallelize([1, 0, 2]).map(lambda x: 1 // x)
        with pytest.raises(JobExecutionError) as excinfo:
            rdd.collect()
        assert isinstance(excinfo.value.cause, ZeroDivisionError)


class TestCachingAndBackends:
    def test_persist_reuses_partitions(self, ctx):
        calls = []

        def record(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(5)).map(record).persist()
        rdd.count()
        first_calls = len(calls)
        rdd.count()
        assert len(calls) == first_calls  # second job served from cache

    def test_unpersist_recomputes(self, ctx):
        calls = []

        def record(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(5)).map(record).persist()
        rdd.count()
        rdd.unpersist()
        rdd.count()
        assert len(calls) == 10

    def test_thread_backend_matches_serial(self):
        serial = ClusterContext(ExecutionOptions(backend="serial"))
        threads = ClusterContext(ExecutionOptions(backend="threads"))
        try:
            data = list(range(200))
            expected = serial.parallelize(data, 8).map(lambda x: x * x).sum()
            actual = threads.parallelize(data, 8).map(lambda x: x * x).sum()
            assert expected == actual
        finally:
            serial.shutdown()
            threads.shutdown()

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionOptions(backend="gpu")
