"""Tests for scheduler helpers and shuffle key partitioners."""

import pytest

from repro.engine.context import ClusterContext
from repro.engine.rdd import HashKeyPartitioner, ShuffledRDD
from repro.engine.scheduler import estimate_records_bytes
from repro.errors import ConfigurationError


class TestEstimateRecordsBytes:
    def test_empty(self):
        assert estimate_records_bytes([[]]) == 0
        assert estimate_records_bytes([]) == 0

    def test_scales_with_record_count(self):
        small = estimate_records_bytes([[("key", "x" * 100)] * 10])
        large = estimate_records_bytes([[("key", "x" * 100)] * 1000])
        assert large > small * 50

    def test_handles_unpicklable_records(self):
        records = [[lambda: None for _ in range(5)]]
        assert estimate_records_bytes(records) > 0


class TestHashKeyPartitioner:
    def test_range_and_determinism(self):
        partitioner = HashKeyPartitioner(7)
        for key in ["a", 42, (1, 2), "node-17"]:
            index = partitioner.partition(key)
            assert 0 <= index < 7
            assert index == partitioner.partition(key)

    def test_equality(self):
        assert HashKeyPartitioner(3) == HashKeyPartitioner(3)
        assert HashKeyPartitioner(3) != HashKeyPartitioner(4)
        assert "num_partitions=3" in repr(HashKeyPartitioner(3))

    def test_matches_python_hash(self):
        partitioner = HashKeyPartitioner(5)
        for key in [0, 7, -3, "walker", (4, 9)]:
            assert partitioner.partition(key) == hash(key) % 5

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            HashKeyPartitioner(0)


def _add(a, b):
    return a + b


def _summing_shuffle(ctx, num_partitions):
    return ShuffledRDD(ctx.parallelize([0]), HashKeyPartitioner(num_partitions),
                       create_combiner=lambda value: value, merge_value=_add,
                       merge_combiners=_add)


class TestShuffleSides:
    def test_map_side_buckets_by_partitioner(self):
        with ClusterContext() as ctx:
            shuffle = _summing_shuffle(ctx, 3)
            buckets = shuffle.map_side([(0, 1), (1, 1), (2, 1), (4, 1)])
            assert len(buckets) == 3
            for index, bucket in enumerate(buckets):
                assert all(key % 3 == index for key in bucket)

    def test_map_side_precombines_same_key(self):
        with ClusterContext() as ctx:
            buckets = _summing_shuffle(ctx, 2).map_side([(1, 2), (1, 5), (3, 1)])
            assert buckets[1] == {1: 7, 3: 1}
            assert buckets[0] == {}

    def test_reduce_side_merges_buckets(self):
        with ClusterContext() as ctx:
            merged = _summing_shuffle(ctx, 2).reduce_side([{1: 2, 3: 1}, {1: 5}, {}])
            assert dict(merged) == {1: 7, 3: 1}
            assert len(merged) == 2

    def test_reduce_side_empty(self):
        with ClusterContext() as ctx:
            assert _summing_shuffle(ctx, 2).reduce_side([]) == []


class TestStageStructure:
    def test_cached_shuffle_not_recomputed(self):
        with ClusterContext() as ctx:
            calls = []

            def touch(pair):
                calls.append(pair)
                return pair

            grouped = (
                ctx.parallelize([("a", 1), ("b", 2), ("a", 3)], 2)
                .map(touch)
                .reduce_by_key(lambda x, y: x + y)
                .persist()
            )
            grouped.collect()
            first = len(calls)
            grouped.map(lambda pair: pair[0]).collect()
            assert len(calls) == first

    def test_job_metrics_stage_kinds_in_order(self):
        with ClusterContext() as ctx:
            ctx.parallelize([("a", 1)], 1).reduce_by_key(lambda x, y: x + y).collect()
            kinds = [stage.kind for stage in ctx.job_history[-1].stages]
            assert kinds == ["narrow", "shuffle-map", "shuffle-reduce"]

    def test_cogroup_shuffles_the_union_of_both_sides(self):
        with ClusterContext() as ctx:
            left = ctx.parallelize([("a", 1), ("b", 2)], 2)
            right = ctx.parallelize([("a", "x")], 1)
            left.cogroup(right, 4).collect()
            stages = ctx.job_history[-1].stages
            kinds = [stage.kind for stage in stages]
            assert kinds[-2:] == ["shuffle-map", "shuffle-reduce"]
            assert kinds.count("shuffle-map") == 1
            # One map task per union partition, one reduce task per output.
            assert len(stages[-2].tasks) == 3
            assert len(stages[-1].tasks) == 4

    def test_diamond_lineage_reuses_memoized_parent(self):
        with ClusterContext() as ctx:
            calls = []

            def touch(x):
                calls.append(x)
                return x

            base = ctx.parallelize(range(10), 2).map(touch)
            left = base.map(lambda x: x * 2)
            right = base.map(lambda x: x * 3)
            union = left.union(right)
            assert len(union.collect()) == 20
            # `base` is materialised once per job even though two children use it.
            assert len(calls) == 10
