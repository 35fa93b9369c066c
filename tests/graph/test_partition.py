"""Unit tests for graph partitioners."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph import generators
from repro.graph.partition import (
    EdgeBalancedPartitioner,
    HashPartitioner,
    RangePartitioner,
)


@pytest.fixture()
def skewed_graph():
    return generators.preferential_attachment_graph(400, out_degree=6, seed=3)


def _assignment(partitioner, graph):
    """Every node's partition, as the RDD model's ingestion routes it."""
    return np.array([partitioner.partition(node)
                     for node in range(graph.n_nodes)])


class TestHashPartitioner:
    def test_all_partitions_used(self, skewed_graph):
        partitioner = HashPartitioner(8)
        assignment = _assignment(partitioner, skewed_graph)
        assert set(assignment.tolist()) == set(range(8))

    def test_partition_in_range(self):
        partitioner = HashPartitioner(5)
        for node in range(100):
            assert 0 <= partitioner.partition(node) < 5

    def test_deterministic(self):
        partitioner = HashPartitioner(4)
        assert [partitioner.partition(i) for i in range(10)] == [
            partitioner.partition(i) for i in range(10)
        ]

    def test_invalid_partition_count(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)


class TestRangePartitioner:
    def test_contiguous_ranges(self):
        partitioner = RangePartitioner(4, n_nodes=100)
        assignment = [partitioner.partition(i) for i in range(100)]
        assert assignment == sorted(assignment)
        assert set(assignment) == set(range(4))

    def test_last_partition_catches_remainder(self):
        partitioner = RangePartitioner(3, n_nodes=10)
        assert partitioner.partition(9) == 2

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner(3, n_nodes=0)


class TestEdgeBalancedPartitioner:
    def test_balances_edges_better_than_range(self, skewed_graph):
        parts = 8
        balanced = EdgeBalancedPartitioner(parts, skewed_graph)
        range_part = RangePartitioner(parts, skewed_graph.n_nodes)
        degrees = skewed_graph.in_degrees()

        def loads(partitioner):
            assignment = _assignment(partitioner, skewed_graph)
            return [
                max(degrees[assignment == p].sum(), 1) for p in range(parts)
            ]

        # Equal totals, so the smaller maximum is the better balance.
        assert max(loads(balanced)) <= max(loads(range_part))
