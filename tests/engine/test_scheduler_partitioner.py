"""Tests for scheduler helpers and shuffle key partitioners."""

import pytest

from repro.engine.context import ClusterContext
from repro.engine.partitioner import HashKeyPartitioner, RangeKeyPartitioner
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

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            HashKeyPartitioner(0)


class TestRangeKeyPartitioner:
    def test_bounds_partitioning(self):
        partitioner = RangeKeyPartitioner([10, 20])
        assert partitioner.num_partitions == 3
        assert partitioner.partition(5) == 0
        assert partitioner.partition(10) == 0
        assert partitioner.partition(15) == 1
        assert partitioner.partition(99) == 2

    def test_from_sample_produces_balanced_bounds(self):
        keys = list(range(100))
        partitioner = RangeKeyPartitioner.from_sample(keys, 4)
        assignments = [partitioner.partition(key) for key in keys]
        counts = [assignments.count(p) for p in range(partitioner.num_partitions)]
        assert max(counts) <= 2 * min(count for count in counts if count)

    def test_from_sample_duplicate_keys_collapse(self):
        partitioner = RangeKeyPartitioner.from_sample([1, 1, 1, 1], 4)
        assert partitioner.num_partitions <= 2

    def test_from_sample_empty(self):
        partitioner = RangeKeyPartitioner.from_sample([], 3)
        assert partitioner.num_partitions == 1
        assert partitioner.partition("anything") == 0

    def test_from_sample_invalid(self):
        with pytest.raises(ConfigurationError):
            RangeKeyPartitioner.from_sample([1, 2], 0)


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
            kinds = [stage.kind for stage in ctx.last_job_metrics.stages]
            assert kinds == ["narrow", "shuffle-map", "shuffle-reduce"]

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
            assert union.count() == 20
            # `base` is materialised once per job even though two children use it.
            assert len(calls) == 10
