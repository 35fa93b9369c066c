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

:class:`ShardPlan` builds on the same partitioners to describe a *sharded
deployment*: a fixed, persistable assignment of every node (current and
future) to one of ``K`` index shards.  Where a partitioner is a transient
execution detail of one job, a shard plan is fixed for a service's lifetime — it
groups index rows into build and update tasks (queries never consult it),
and it must keep answering ``shard_of`` deterministically for node ids that
did not exist when the plan was made (live updates grow the graph).  See
:mod:`repro.core.sharding` for the build machinery and ``docs/sharding.md``
for the full lifecycle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

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

    def assign(self, graph: DiGraph) -> np.ndarray:
        """Return an array mapping every node of ``graph`` to a partition."""
        return np.array(
            [self.partition(node) for node in range(graph.n_nodes)], dtype=np.int64
        )

    def partition_nodes(self, graph: DiGraph) -> List[np.ndarray]:
        """Return, for each partition, the array of node ids assigned to it."""
        assignment = self.assign(graph)
        return [
            np.flatnonzero(assignment == p) for p in range(self.num_partitions)
        ]


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
        self._loads = loads

    def partition(self, node: int) -> int:
        return self._assignment[int(node)]

    @property
    def edge_loads(self) -> np.ndarray:
        """Number of (weighted) in-edges assigned to each partition."""
        return self._loads.copy()


class ShardPlan:
    """A persistable assignment of node ids to ``K`` index shards.

    The plan decides which build or update task estimates a node's row of
    the indexing system, and which shard's counters and version the node
    counts against; it is made once, at build, and persisted with every
    snapshot version.  Queries never consult it.

    A plan is a *total* function: :meth:`shard_of` answers for any
    non-negative node id, including ids beyond the graph the plan was made
    for — live edge insertions create such nodes, and they must route
    deterministically so every replica of the plan agrees on ownership.
    Strategy-backed plans guarantee this by construction (``hash`` and
    ``contiguous`` are closed-form); explicit-assignment plans (the
    ``partitioner`` strategy) fall back to the hash rule for unseen ids.

    Parameters
    ----------
    num_shards:
        ``K`` — number of shards (>= 1).
    strategy:
        ``"hash"``, ``"contiguous"`` or ``"partitioner"`` (see
        :class:`repro.config.ShardingParams`).
    assignment:
        Explicit shard of each node in ``0..len(assignment)-1``; required
        for (and implied by) the ``partitioner`` strategy, ignored
        otherwise.
    n_nodes:
        Size of the graph the plan was made for; required by the
        ``contiguous`` strategy to compute its range boundaries.
    """

    _KNUTH = 2654435761

    def __init__(
        self,
        num_shards: int,
        strategy: str = "hash",
        assignment: Optional[np.ndarray] = None,
        n_nodes: Optional[int] = None,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        if strategy not in ("hash", "contiguous", "partitioner"):
            raise ConfigurationError(
                f"unknown shard strategy {strategy!r}; expected 'hash', "
                f"'contiguous' or 'partitioner'"
            )
        self.num_shards = int(num_shards)
        self.strategy = strategy
        self._assignment: Optional[np.ndarray] = None
        if strategy == "contiguous":
            if n_nodes is None or n_nodes < 1:
                raise ConfigurationError(
                    "the 'contiguous' strategy needs the graph size (n_nodes >= 1)"
                )
            self.n_nodes = int(n_nodes)
            self._chunk = int(np.ceil(self.n_nodes / self.num_shards))
        elif strategy == "partitioner":
            if assignment is None:
                raise ConfigurationError(
                    "the 'partitioner' strategy needs an explicit assignment array"
                )
            self._assignment = np.asarray(assignment, dtype=np.int64).ravel()
            if len(self._assignment) == 0:
                raise ConfigurationError("assignment array must be non-empty")
            if self._assignment.min() < 0 or self._assignment.max() >= num_shards:
                raise ConfigurationError(
                    f"assignment entries must be in [0, {num_shards}), got range "
                    f"[{self._assignment.min()}, {self._assignment.max()}]"
                )
            self.n_nodes = len(self._assignment)
        else:
            self.n_nodes = int(n_nodes) if n_nodes is not None else None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def hashed(cls, num_shards: int) -> "ShardPlan":
        """Plan assigning nodes by a multiplicative (Knuth) hash of their id."""
        return cls(num_shards, strategy="hash")

    @classmethod
    def contiguous(cls, num_shards: int, n_nodes: int) -> "ShardPlan":
        """Plan assigning contiguous node-id ranges to shards.

        Ids at or beyond ``n_nodes`` (nodes created by later live updates)
        belong to the last shard.
        """
        return cls(num_shards, strategy="contiguous", n_nodes=n_nodes)

    @classmethod
    def from_partitioner(cls, partitioner: Partitioner, graph: DiGraph) -> "ShardPlan":
        """Freeze a partitioner's assignment of ``graph`` into a plan.

        The assignment is materialised once (plans must be persistable and
        identical across replicas, so re-running a stateful partitioner is
        not an option); ids beyond the materialised range fall back to the
        hash rule.
        """
        return cls(
            partitioner.num_partitions,
            strategy="partitioner",
            assignment=partitioner.assign(graph),
        )

    @classmethod
    def for_graph(cls, graph: DiGraph, num_shards: int,
                  strategy: str = "hash") -> "ShardPlan":
        """Build a plan for ``graph`` from a strategy name.

        This is the factory :class:`repro.config.ShardingParams` maps onto:
        ``"hash"`` and ``"contiguous"`` are closed-form, ``"partitioner"``
        computes an edge-balanced assignment from the graph's in-degrees.
        """
        if strategy == "hash":
            return cls.hashed(num_shards)
        if strategy == "contiguous":
            return cls.contiguous(num_shards, max(graph.n_nodes, 1))
        if strategy == "partitioner":
            if graph.n_nodes == 0:
                return cls.hashed(num_shards)
            return cls.from_partitioner(
                EdgeBalancedPartitioner(num_shards, graph), graph
            )
        raise ConfigurationError(
            f"unknown shard strategy {strategy!r}; expected 'hash', "
            f"'contiguous' or 'partitioner'"
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def shard_of(self, node: int) -> int:
        """Return the shard owning ``node`` (total over all ids >= 0)."""
        node = int(node)
        if node < 0:
            raise ConfigurationError(f"node ids must be >= 0, got {node}")
        if self.strategy == "contiguous":
            return min(node // self._chunk, self.num_shards - 1)
        if self._assignment is not None and node < len(self._assignment):
            return int(self._assignment[node])
        return int(((node * self._KNUTH) & 0xFFFFFFFF) % self.num_shards)

    def assign(self, n_nodes: int) -> np.ndarray:
        """Shard of every node in ``0..n_nodes-1`` as an int64 array.

        Vectorised (this runs on every applied update and snapshot save of
        the service), but elementwise identical to :meth:`shard_of`.
        """
        return self._shards_of(np.arange(n_nodes, dtype=np.int64))

    def _shards_of(self, ids: np.ndarray) -> np.ndarray:
        """:meth:`shard_of` of each of the non-negative int64 ``ids``.

        The hash keeps the low 32 bits of ``id * _KNUTH``, which int64
        arithmetic gets right even where the product wraps.
        """
        if self.strategy == "contiguous":
            return np.minimum(ids // self._chunk, self.num_shards - 1)
        shards = ((ids * np.int64(self._KNUTH)) & np.int64(0xFFFFFFFF)) \
            % self.num_shards
        if self._assignment is not None:
            known = ids < len(self._assignment)
            shards[known] = self._assignment[ids[known]]
        return shards

    def nodes_of(self, shard: int, n_nodes: int) -> np.ndarray:
        """Ascending node ids of ``shard`` among the first ``n_nodes`` nodes."""
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"shard must be in [0, {self.num_shards}), got {shard}"
            )
        return np.flatnonzero(self.assign(n_nodes) == shard)

    def group_nodes(self, nodes: Iterable[int]) -> Dict[int, List[int]]:
        """Group node ids by owning shard; each group is sorted ascending.

        Only shards that own at least one of ``nodes`` appear as keys — this
        is how the update path computes its *touched shard* set.
        """
        ids = np.sort(np.fromiter(nodes, dtype=np.int64))
        if len(ids) and ids[0] < 0:
            raise ConfigurationError(f"node ids must be >= 0, got {ids[0]}")
        shards = self._shards_of(ids)
        return {int(shard): ids[shards == shard].tolist()
                for shard in np.unique(shards)}

    def group_edges(
        self, edges: Iterable[Tuple[int, int]]
    ) -> Dict[int, List[Tuple[int, int]]]:
        """Group edges by the shard owning each edge's *head* (destination).

        An edge insertion ``u -> v`` changes the in-links of ``v``, so the
        shard that must re-estimate first is ``shard_of(v)``; the full
        affected set (the forward BFS ball of the heads) can of course spill
        into other shards — :meth:`group_nodes` of the affected set gives
        the complete touched-shard picture.
        """
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for u, v in edges:
            groups.setdefault(self.shard_of(v), []).append((int(u), int(v)))
        return groups

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        data: Dict[str, object] = {
            "num_shards": self.num_shards,
            "strategy": self.strategy,
            "n_nodes": self.n_nodes,
        }
        if self._assignment is not None:
            data["assignment"] = self._assignment.tolist()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardPlan":
        """Reconstruct a plan persisted by :meth:`to_dict`."""
        assignment = data.get("assignment")
        return cls(
            int(data["num_shards"]),
            strategy=str(data["strategy"]),
            assignment=np.asarray(assignment, dtype=np.int64)
            if assignment is not None else None,
            n_nodes=int(data["n_nodes"]) if data.get("n_nodes") is not None else None,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardPlan):
            return NotImplemented
        if (self.num_shards, self.strategy, self.n_nodes) != (
                other.num_shards, other.strategy, other.n_nodes):
            return False
        if (self._assignment is None) != (other._assignment is None):
            return False
        return self._assignment is None or np.array_equal(
            self._assignment, other._assignment
        )

    def __repr__(self) -> str:
        return (
            f"ShardPlan(num_shards={self.num_shards}, "
            f"strategy={self.strategy!r}, n_nodes={self.n_nodes})"
        )
