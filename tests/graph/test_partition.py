"""Unit tests for graph partitioners."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph import generators
from repro.graph.partition import HashPartitioner


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
