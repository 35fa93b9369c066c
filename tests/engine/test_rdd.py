"""Unit tests for the RDD operators the two execution models run.

The engine keeps only ``map``, ``flat_map``, ``map_partitions``,
``map_values``, ``union``, ``combine_by_key``, ``reduce_by_key``,
``cogroup``, ``persist`` and ``collect``.  The Spark idioms that used to
have operators of their own (filter, glom, distinct, join, count, …) are
checked here as the compositions of those operators that callers write.
"""

import pytest

from repro.engine.context import ClusterContext
from repro.engine.rdd import RDD
from repro.errors import ConfigurationError, JobExecutionError


@pytest.fixture()
def ctx():
    context = ClusterContext()
    yield context
    context.shutdown()


def _join(left, right):
    """Inner join on key: every pairing of the two sides' values."""
    return left.cogroup(right).flat_map(
        lambda group: [(group[0], (a, b)) for a in group[1][0] for b in group[1][1]]
    )


class TestBasicTransformations:
    def test_map_collect(self, ctx):
        assert ctx.parallelize([1, 2, 3]).map(lambda x: x * 2).collect() == [2, 4, 6]

    def test_filter(self, ctx):
        # A filter is a flat_map to zero or one record.
        result = (ctx.parallelize(range(10))
                  .flat_map(lambda x: [x] if x % 2 == 0 else []).collect())
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
        # The function runs once per partition and ``collect`` returns the
        # partitions' outputs in partition-index order.
        rdd = ctx.parallelize(range(6), num_partitions=2)
        tagged = rdd.map_partitions(lambda records: [tuple(records)]).collect()
        assert tagged == [(0, 2, 4), (1, 3, 5)]

    def test_map_partitions_receives_an_iterator(self, ctx):
        seen = []

        def record_type(records):
            seen.append(type(records))
            return []

        ctx.parallelize(range(4), 2).map_partitions(record_type).collect()
        assert len(seen) == 2
        assert all(hasattr(kind, "__next__") for kind in seen)

    def test_glom(self, ctx):
        rdd = ctx.parallelize(range(6), num_partitions=3)
        chunks = rdd.map_partitions(lambda records: [list(records)]).collect()
        assert len(chunks) == 3
        assert sorted(x for chunk in chunks for x in chunk) == list(range(6))

    def test_union(self, ctx):
        left = ctx.parallelize([1, 2])
        right = ctx.parallelize([3])
        assert sorted(left.union(right).collect()) == [1, 2, 3]

    def test_union_appends_right_partitions_after_left(self, ctx):
        left = ctx.parallelize([1, 2, 3, 4], 2)
        right = ctx.parallelize([5, 6, 7], 3)
        union = left.union(right)
        assert union.num_partitions == 5
        assert union.collect() == [1, 3, 2, 4, 5, 6, 7]

    def test_distinct(self, ctx):
        # Distinct is a shuffle keyed by the record itself.
        result = (ctx.parallelize([1, 1, 2, 2, 3]).map(lambda x: (x, None))
                  .reduce_by_key(lambda a, b: a).map(lambda pair: pair[0]).collect())
        assert sorted(result) == [1, 2, 3]

    def test_key_by_and_values(self, ctx):
        rdd = ctx.parallelize(["aa", "b"]).map(lambda word: (len(word), word))
        assert sorted(rdd.collect()) == [(1, "b"), (2, "aa")]
        assert sorted(rdd.map(lambda pair: pair[0]).collect()) == [1, 2]
        assert sorted(rdd.map(lambda pair: pair[1]).collect()) == ["aa", "b"]

    def test_chained_laziness(self, ctx):
        jobs_before = len(ctx.job_history)
        rdd = (ctx.parallelize(range(100)).map(lambda x: x + 1)
               .flat_map(lambda x: [x] if x % 2 else []))
        # No job runs until an action is called.
        assert len(ctx.job_history) == jobs_before
        assert len(rdd.collect()) == 50
        assert len(ctx.job_history) == jobs_before + 1

    def test_repr_names_the_rdd(self, ctx):
        rdd = ctx.parallelize([1, 2], 2).map(lambda x: x)
        text = repr(rdd)
        assert f"id={rdd.rdd_id}" in text
        assert "map(parallelize)" in text
        assert "partitions=2" in text

    def test_rdd_needs_a_partition(self, ctx):
        with pytest.raises(ConfigurationError):
            RDD(ctx, parents=[], num_partitions=0)


class TestParallelCollection:
    def test_round_robin_layout(self, ctx):
        rdd = ctx.parallelize(range(7), 3)
        assert rdd.map_partitions(lambda records: [list(records)]).collect() == [
            [0, 3, 6], [1, 4], [2, 5]]

    def test_partitions_capped_by_record_count(self, ctx):
        assert ctx.parallelize([1, 2], 8).num_partitions == 2

    def test_empty_collection_has_one_partition(self, ctx):
        rdd = ctx.parallelize([], 4)
        assert rdd.num_partitions == 1
        assert rdd.collect() == []

    def test_default_partitions_from_context(self, ctx):
        rdd = ctx.parallelize(range(100))
        assert rdd.num_partitions == ctx.default_parallelism


class TestPairOperations:
    def test_reduce_by_key(self, ctx):
        pairs = [("a", 1), ("b", 2), ("a", 3), ("b", 3)]
        result = dict(ctx.parallelize(pairs).reduce_by_key(lambda a, b: a + b).collect())
        assert result == {"a": 4, "b": 5}

    def test_group_by_key(self, ctx):
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        result = dict(ctx.parallelize(pairs).combine_by_key(
            lambda value: [value], lambda group, value: group + [value],
            lambda a, b: a + b,
        ).collect())
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
        expanded = rdd.flat_map(
            lambda pair: [(pair[0], value) for value in range(pair[1])]
        ).collect()
        assert ("a", 0) in expanded and ("b", 2) in expanded
        assert len(expanded) == 5

    def test_join(self, ctx):
        left = ctx.parallelize([("a", 1), ("b", 2), ("a", 3)])
        right = ctx.parallelize([("a", "x"), ("c", "y")])
        joined = sorted(_join(left, right).collect())
        assert joined == [("a", (1, "x")), ("a", (3, "x"))]

    def test_left_outer_join(self, ctx):
        left = ctx.parallelize([("a", 1), ("b", 2)])
        right = ctx.parallelize([("a", "x")])
        joined = dict(left.cogroup(right).flat_map(
            lambda group: [(group[0], (a, b))
                           for a in group[1][0] for b in (group[1][1] or [None])]
        ).collect())
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
        counts = rdd.map(lambda pair: (pair[0], 1)).reduce_by_key(lambda a, b: a + b)
        assert dict(counts.collect()) == {"a": 2, "b": 1}

    def test_collect_as_map(self, ctx):
        # A shuffle emits one record per key, so ``dict`` loses nothing.
        rdd = ctx.parallelize([("a", 1), ("b", 2), ("a", 3)], 2)
        records = rdd.reduce_by_key(lambda a, b: a + b).collect()
        assert len(records) == 2
        assert dict(records) == {"a": 4, "b": 2}

    def test_partition_by_preserves_all_records(self, ctx):
        pairs = [(i % 5, i) for i in range(50)]
        shuffled = ctx.parallelize(pairs).combine_by_key(
            lambda value: [value], lambda group, value: group + [value],
            lambda a, b: a + b, num_partitions=3,
        )
        assert shuffled.num_partitions == 3
        records = [(key, value) for key, group in shuffled.collect() for value in group]
        assert sorted(records) == sorted(pairs)


class TestShuffleAcrossPartitionCounts:
    """A shuffle's answer does not depend on how many partitions it uses."""

    PAIRS = [(i % 7, i) for i in range(60)] + [("s", 1), ("s", 2), ((1, 2), 3)]

    @pytest.mark.parametrize("num_partitions", [1, 2, 3, 7])
    def test_reduce_by_key(self, ctx, num_partitions):
        rdd = ctx.parallelize(self.PAIRS, 4).reduce_by_key(
            lambda a, b: a + b, num_partitions)
        assert rdd.num_partitions == num_partitions
        expected = {}
        for key, value in self.PAIRS:
            expected[key] = expected.get(key, 0) + value
        records = rdd.collect()
        assert len(records) == len(expected)
        assert dict(records) == expected

    @pytest.mark.parametrize("num_partitions", [1, 2, 3, 7])
    def test_cogroup(self, ctx, num_partitions):
        left = ctx.parallelize(self.PAIRS, 3)
        right = ctx.parallelize([(key, -value) for key, value in self.PAIRS[::5]], 2)
        grouped = dict(left.cogroup(right, num_partitions).collect())
        assert set(grouped) == {key for key, _value in self.PAIRS}
        for key, (mine, theirs) in grouped.items():
            assert sorted(mine) == sorted(v for k, v in self.PAIRS if k == key)
            assert sorted(theirs) == sorted(-v for k, v in self.PAIRS[::5] if k == key)

    @pytest.mark.parametrize("num_partitions", [1, 2, 3, 7])
    def test_each_key_lands_in_its_hash_partition(self, ctx, num_partitions):
        rdd = ctx.parallelize(self.PAIRS, 4).reduce_by_key(
            lambda a, b: a + b, num_partitions)
        layout = rdd.map_partitions(lambda records: [[key for key, _ in records]]).collect()
        for index, keys in enumerate(layout):
            assert all(hash(key) % num_partitions == index for key in keys)


class TestActions:
    def test_count_and_sum(self, ctx):
        # Partial results per partition, finished on the driver.
        def count_and_total(records):
            chunk = list(records)
            return [(len(chunk), sum(chunk))]

        partials = ctx.parallelize(range(101), 4).map_partitions(count_and_total).collect()
        assert sum(count for count, _total in partials) == 101
        assert sum(total for _count, total in partials) == 5050

    def test_reduce(self, ctx):
        product = ctx.parallelize([1, 2, 3, 4], 3).map(lambda x: (None, x)).reduce_by_key(
            lambda a, b: a * b).collect()
        assert product == [(None, 24)]

    def test_foreach(self, ctx):
        # Tasks run in the calling process, so their side effects are visible.
        seen = []
        ctx.parallelize([1, 2, 3]).map(seen.append).collect()
        assert sorted(seen) == [1, 2, 3]

    def test_collect_partitions(self, ctx):
        # ``collect`` concatenates the partitions in partition order.
        rdd = ctx.parallelize(range(10), num_partitions=5)
        parts = rdd.map_partitions(lambda records: [list(records)]).collect()
        assert len(parts) == 5
        assert rdd.collect() == [x for part in parts for x in part]
        assert sorted(rdd.collect()) == list(range(10))

    def test_task_failure_raises_job_execution_error(self, ctx):
        rdd = ctx.parallelize([1, 0, 2]).map(lambda x: 1 // x)
        with pytest.raises(JobExecutionError) as excinfo:
            rdd.collect()
        assert isinstance(excinfo.value.cause, ZeroDivisionError)

    def test_shuffle_failure_raises_job_execution_error(self, ctx):
        rdd = ctx.parallelize([("a", 1), ("a", 0)], 1).reduce_by_key(lambda a, b: a // b)
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
        rdd.collect()
        first_calls = len(calls)
        rdd.collect()
        assert len(calls) == first_calls  # second job served from cache

    def test_unpersist_recomputes(self, ctx):
        # Without ``persist`` every job recomputes the lineage.
        calls = []

        def record(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(5)).map(record)
        rdd.collect()
        rdd.collect()
        assert len(calls) == 10

    def test_persisted_side_of_cogroup_not_recomputed(self, ctx):
        # The RDD model persists the adjacency and cogroups it every step.
        calls = []

        def record(pair):
            calls.append(pair)
            return pair

        adjacency = ctx.parallelize([(0, "a"), (1, "b")], 2).map(record).persist()
        for step in range(3):
            walkers = ctx.parallelize([(0, step), (1, step)], 2)
            grouped = dict(walkers.cogroup(adjacency, 2).collect())
            assert grouped[1] == ([step], ["b"])
        assert len(calls) == 2
