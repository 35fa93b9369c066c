"""Tests for the extended RDD API (fold, aggregate, stats, explain, ...)."""

import pytest

from repro.engine.context import ClusterContext


@pytest.fixture()
def ctx():
    context = ClusterContext()
    yield context
    context.shutdown()


class TestFoldAndAggregate:
    def test_fold_sum(self, ctx):
        assert ctx.range(11).fold(0, lambda acc, x: acc + x) == 55

    def test_fold_empty_with_identity_zero(self, ctx):
        # As in Spark, the zero value must be an identity element: it is
        # applied once per partition and once more when merging partials.
        assert ctx.empty_rdd().fold(0, lambda acc, x: acc + x) == 0

    def test_fold_non_identity_zero_counts_partitions(self, ctx):
        rdd = ctx.parallelize([1], 1)
        assert rdd.fold(10, lambda acc, x: acc + x) == 21

    def test_aggregate_mean(self, ctx):
        total, count = ctx.parallelize([2.0, 4.0, 6.0, 8.0], 3).aggregate(
            (0.0, 0),
            lambda acc, value: (acc[0] + value, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        assert total / count == pytest.approx(5.0)

    def test_aggregate_empty_with_identity_zero(self, ctx):
        assert ctx.empty_rdd().aggregate(0, lambda a, x: a + x, lambda a, b: a + b) == 0


class TestTakeOrderedAndStats:
    def test_take_ordered_ascending(self, ctx):
        rdd = ctx.parallelize([5, 1, 9, 3], 2)
        assert rdd.take_ordered(2) == [1, 3]

    def test_take_ordered_descending_with_key(self, ctx):
        rdd = ctx.parallelize(["bb", "a", "cccc"], 2)
        assert rdd.take_ordered(2, key=len, reverse=True) == ["cccc", "bb"]

    def test_take_ordered_zero(self, ctx):
        assert ctx.range(5).take_ordered(0) == []

    def test_stats(self, ctx):
        stats = ctx.parallelize([1.0, 2.0, 3.0, 4.0], 2).stats()
        assert stats["count"] == 4
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["stdev"] == pytest.approx(1.118, abs=1e-3)

    def test_stats_empty(self, ctx):
        import math

        stats = ctx.empty_rdd().stats()
        assert stats["count"] == 0
        assert math.isnan(stats["mean"])


class TestIntrospection:
    def test_explain_shows_lineage_and_shuffle(self, ctx):
        rdd = (
            ctx.parallelize([("a", 1), ("b", 2)], 2)
            .map(lambda pair: pair)
            .reduce_by_key(lambda a, b: a + b)
            .map(lambda pair: pair[1])
        )
        plan = rdd.explain()
        assert "ShuffledRDD" in plan
        assert "[shuffle]" in plan
        assert "ParallelCollectionRDD" in plan
        assert plan.count("+-") == rdd.lineage_depth()

    def test_explain_marks_cached(self, ctx):
        rdd = ctx.parallelize([1, 2]).map(lambda x: x).persist()
        assert "[cached]" in rdd.explain()

    def test_lineage_depth(self, ctx):
        base = ctx.parallelize([1, 2, 3])
        assert base.lineage_depth() == 1
        assert base.map(lambda x: x).filter(bool).lineage_depth() == 3
