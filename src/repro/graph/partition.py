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
execution detail of one job, a shard plan is part of the serving state — it
routes queries and live edge insertions, and it must keep answering
``shard_of`` deterministically for node ids that did not exist when the plan
was made (live updates grow the graph).  See :mod:`repro.core.sharding` for
the build machinery and ``docs/sharding.md`` for the full lifecycle.

A live service re-plans from observed load: :func:`shard_loads` prices a
plan under per-node weights, :func:`load_balanced_plan` proposes a balanced
one, and :func:`evaluate_rebalance` decides whether migrating pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


def imbalance(loads: Sequence[float]) -> float:
    """Return max/mean load imbalance (1.0 = perfectly balanced)."""
    arr = np.asarray(list(loads), dtype=np.float64)
    if arr.size == 0 or arr.mean() == 0:
        return 1.0
    return float(arr.max() / arr.mean())


def shard_loads(plan: ShardPlan, n_nodes: int,
                weights: np.ndarray) -> np.ndarray:
    """Per-shard load of ``plan`` under per-node ``weights``.

    ``weights[node]`` is the observed (or predicted) cost of serving
    ``node`` — e.g. routed-source counts or scatter seconds attributed to
    it.  The result is the float64 sum of weights per shard, the quantity
    :func:`evaluate_rebalance` compares between
    the current and a proposed plan.
    """
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if len(weights) != n_nodes:
        raise ConfigurationError(
            f"weights must have one entry per node ({n_nodes}), "
            f"got {len(weights)}"
        )
    return np.bincount(plan.assign(n_nodes), weights=weights,
                       minlength=plan.num_shards).astype(np.float64)


def load_balanced_plan(num_shards: int, weights: np.ndarray) -> ShardPlan:
    """Propose a plan balancing observed per-node load across shards.

    The workload-adaptive analogue of :class:`EdgeBalancedPartitioner`
    (and of Tunable-LSH's adaptive re-clustering): nodes are visited in
    decreasing *observed-load* order and each is assigned to the shard
    with the least accumulated load so far (longest-processing-time
    heuristic, within 4/3 of optimal makespan).  The result is an
    explicit-assignment (``partitioner``-strategy) :class:`ShardPlan`, so
    node ids beyond the observed range fall back to the hash rule —
    routing stays total under live growth.

    Deterministic: ties in load order break by node id (stable argsort),
    ties in shard load break by shard id (``np.argmin``), so every
    replica proposing from the same counters proposes the same plan.
    """
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if len(weights) == 0:
        raise ConfigurationError("weights array must be non-empty")
    if not np.all(np.isfinite(weights)) or weights.min() < 0:
        raise ConfigurationError(
            "weights must be finite and >= 0 to plan a rebalance"
        )
    order = np.argsort(-weights, kind="stable")
    loads = np.zeros(num_shards, dtype=np.float64)
    assignment = np.zeros(len(weights), dtype=np.int64)
    for node in order:
        target = int(np.argmin(loads))
        assignment[node] = target
        loads[target] += weights[node]
    return ShardPlan(num_shards, strategy="partitioner", assignment=assignment)


# --------------------------------------------------------------------------- #
# Rebalance decision
# --------------------------------------------------------------------------- #
@dataclass
class RebalanceEstimate:
    """Predicted effect of migrating to a proposed shard plan.

    The scatter of a query batch is bounded by its slowest shard, so the
    critical path under a plan is the *maximum* per-shard load and the
    predicted improvement is the ratio of maxima.  Loads are whatever per-node
    weights the caller aggregated (routed sources, scatter seconds); the
    prediction only assumes load moves with the node it is attributed to.
    """

    current_loads: list
    proposed_loads: list
    current_makespan: float
    proposed_makespan: float
    predicted_improvement: float
    current_imbalance: float
    proposed_imbalance: float
    should_rebalance: bool
    reason: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary, floats rounded for logs and monitoring."""
        return {
            "current_loads": [round(load, 6) for load in self.current_loads],
            "proposed_loads": [round(load, 6) for load in self.proposed_loads],
            "current_makespan": round(self.current_makespan, 6),
            "proposed_makespan": round(self.proposed_makespan, 6),
            "predicted_improvement": round(self.predicted_improvement, 4),
            "current_imbalance": round(self.current_imbalance, 4),
            "proposed_imbalance": round(self.proposed_imbalance, 4),
            "should_rebalance": self.should_rebalance,
            "reason": self.reason,
        }


def evaluate_rebalance(
    current_loads: Sequence[float],
    proposed_loads: Sequence[float],
    improvement_threshold: float = 1.2,
    min_total_load: float = 0.0,
) -> RebalanceEstimate:
    """Decide whether a proposed plan's load split justifies migrating.

    Parameters
    ----------
    current_loads / proposed_loads:
        Per-shard load under the serving plan and under the proposal
        (same length; see :func:`shard_loads`).
    improvement_threshold:
        Minimum ``current_makespan / proposed_makespan`` ratio before
        ``should_rebalance`` is true (see
        :class:`repro.config.RebalanceParams`).
    min_total_load:
        Below this total observed load the counters are considered
        unrepresentative and the answer is "don't".
    """
    if len(current_loads) != len(proposed_loads) or len(current_loads) == 0:
        raise ConfigurationError(
            "current and proposed loads must be non-empty and the same "
            f"length, got {len(current_loads)} vs {len(proposed_loads)}"
        )
    if improvement_threshold < 1.0:
        raise ConfigurationError(
            f"improvement_threshold must be >= 1.0, got {improvement_threshold}"
        )
    current = [float(load) for load in current_loads]
    proposed = [float(load) for load in proposed_loads]
    current_makespan = max(current)
    proposed_makespan = max(proposed)
    total = sum(current)
    improvement = (current_makespan / proposed_makespan
                   if proposed_makespan > 0 else 1.0)
    if total < min_total_load:
        should = False
        reason = (f"observed load {total:.1f} below the representative "
                  f"minimum {min_total_load:.1f}")
    elif improvement >= improvement_threshold:
        should = True
        reason = (f"predicted critical-path improvement {improvement:.2f}x "
                  f"meets the {improvement_threshold:.2f}x threshold")
    else:
        should = False
        reason = (f"predicted critical-path improvement {improvement:.2f}x "
                  f"below the {improvement_threshold:.2f}x threshold")
    return RebalanceEstimate(
        current_loads=current,
        proposed_loads=proposed,
        current_makespan=current_makespan,
        proposed_makespan=proposed_makespan,
        predicted_improvement=improvement,
        current_imbalance=imbalance(current),
        proposed_imbalance=imbalance(proposed),
        should_rebalance=should,
        reason=reason,
    )
