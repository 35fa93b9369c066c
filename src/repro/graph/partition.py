"""Graph partitioners used by the RDD execution model.

The RDD model stores the graph's in-adjacency as a distributed collection of
``(node, in_neighbour_array)`` records.  How those records are assigned to
partitions determines shuffle traffic and load balance; this module provides
the partitioning strategies the benchmarks compare:

* :class:`HashPartitioner` — Spark's default; assigns by ``hash(node) % p``.
* :class:`RangePartitioner` — contiguous node-id ranges (good locality for
  generators that number nodes in arrival order).
* :class:`EdgeBalancedPartitioner` — greedy assignment that balances the
  number of *edges* (not nodes) per partition, which matters on power-law
  graphs where a few hubs dominate the work.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph


class Partitioner:
    """Base class: maps node ids to partition indices."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ConfigurationError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        self.num_partitions = int(num_partitions)

    def partition(self, node: int) -> int:
        """Return the partition index for ``node``."""
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Assign nodes to partitions by a multiplicative hash of their id.

    A multiplicative (Knuth) hash is used instead of ``node % p`` so that
    consecutively numbered nodes — which generators tend to give correlated
    degrees — spread across partitions.
    """

    _KNUTH = 2654435761

    def partition(self, node: int) -> int:
        return int(((int(node) * self._KNUTH) & 0xFFFFFFFF) % self.num_partitions)


class RangePartitioner(Partitioner):
    """Assign contiguous node-id ranges to partitions."""

    def __init__(self, num_partitions: int, n_nodes: int) -> None:
        super().__init__(num_partitions)
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        self._chunk = int(np.ceil(self.n_nodes / self.num_partitions))

    def partition(self, node: int) -> int:
        return min(int(node) // self._chunk, self.num_partitions - 1)


class EdgeBalancedPartitioner(Partitioner):
    """Greedily balance the number of in-edges per partition.

    Nodes are visited in decreasing in-degree order and each is assigned to
    the partition with the fewest edges so far (longest-processing-time
    heuristic).  The assignment is computed once per graph and cached.
    """

    def __init__(self, num_partitions: int, graph: DiGraph) -> None:
        super().__init__(num_partitions)
        degrees = graph.in_degrees()
        order = np.argsort(-degrees, kind="stable")
        loads = np.zeros(self.num_partitions, dtype=np.int64)
        assignment = np.zeros(graph.n_nodes, dtype=np.int64)
        for node in order:
            target = int(np.argmin(loads))
            assignment[node] = target
            loads[target] += max(int(degrees[node]), 1)
        self._assignment: Dict[int, int] = {
            int(node): int(part) for node, part in enumerate(assignment)
        }

    def partition(self, node: int) -> int:
        return self._assignment[int(node)]
