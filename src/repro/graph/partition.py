"""Graph partitioners for the RDD execution model's ingestion.

The RDD model stores the graph's in-adjacency as a distributed collection of
``(node, in_neighbour_array)`` records.  :meth:`repro.engine.context.
ClusterContext.graph_in_adjacency_rdd` places them round-robin unless its
``partitioner=`` (a :class:`Partitioner`) says otherwise;
:class:`HashPartitioner` assigns by a hash of the node id, like Spark's
default.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


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
