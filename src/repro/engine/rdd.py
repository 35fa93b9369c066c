"""Lazy, lineage-based resilient distributed datasets (RDDs).

An :class:`RDD` is an immutable, partitioned collection plus the recipe to
compute it from its parents.  Transformations (``map``, ``cogroup``,
``reduce_by_key``, …) build new RDDs lazily; the one action, ``collect``,
hands the lineage graph to the DAG scheduler, which splits it into stages
at shuffle boundaries and runs them.

The operators are the ones the paper's execution models
(:mod:`repro.core.broadcast_impl`, :mod:`repro.core.rdd_impl`) run:
``map``, ``flat_map``, ``map_partitions``, ``cogroup``, ``reduce_by_key``,
``persist`` and ``collect``, plus the ``map_values``, ``union`` and
``combine_by_key`` that ``cogroup`` and ``reduce_by_key`` are built from.
The semantics match Spark's where they overlap.  Method names follow
PEP 8 (``flat_map`` instead of ``flatMap``).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")
U = TypeVar("U")
V = TypeVar("V")


class HashKeyPartitioner:
    """Send a shuffled ``(key, value)`` record to partition
    ``hash(key) % num_partitions`` (Spark's default).

    Independent of the *graph* partitioners in :mod:`repro.graph.partition`,
    which place nodes' adjacency records at ingestion time.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ConfigurationError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        self.num_partitions = int(num_partitions)

    def partition(self, key: Hashable) -> int:
        return hash(key) % self.num_partitions

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_partitions={self.num_partitions})"


class RDD:
    """Base class for all RDDs.

    Subclasses describe *how* to compute each partition from parent
    partitions; the actual execution lives in
    :class:`~repro.engine.scheduler.DAGScheduler`.
    """

    def __init__(self, context, parents: List["RDD"], num_partitions: int,
                 name: str = "rdd") -> None:
        if num_partitions < 1:
            raise ConfigurationError(
                f"an RDD needs at least one partition, got {num_partitions}"
            )
        self.context = context
        self.parents = parents
        self.num_partitions = int(num_partitions)
        self.name = name
        self.rdd_id = context._next_rdd_id()
        self.persisted = False

    # -- to be provided by subclasses ----------------------------------- #
    def partition_dependencies(self, index: int) -> List[Tuple[int, int]]:
        """Return ``(parent_position, parent_partition)`` pairs needed by
        partition ``index`` (narrow dependencies only)."""
        raise NotImplementedError

    def compute_partition(self, index: int, parent_data: List[List[Any]]) -> List[Any]:
        """Compute partition ``index`` given the parent partitions listed by
        :meth:`partition_dependencies` (same order)."""
        raise NotImplementedError

    # -- caching --------------------------------------------------------- #
    def persist(self) -> "RDD":
        """Keep the materialised partitions around for reuse across jobs."""
        self.persisted = True
        return self

    # -- transformations -------------------------------------------------- #
    def map(self, func: Callable[[T], U]) -> "RDD":
        """Apply ``func`` to every record."""
        return MappedPartitionsRDD(
            self, lambda records: map(func, records), name=f"map({self.name})"
        )

    def flat_map(self, func: Callable[[T], Iterable[U]]) -> "RDD":
        """Apply ``func`` to every record and flatten the results."""
        return MappedPartitionsRDD(
            self,
            lambda records: itertools.chain.from_iterable(map(func, records)),
            name=f"flat_map({self.name})",
        )

    def map_partitions(self, func: Callable[[Iterator[T]], Iterable[U]]) -> "RDD":
        """Apply ``func`` to each whole partition (an iterator of records)."""
        return MappedPartitionsRDD(
            self, lambda records: func(iter(records)), name=f"map_partitions({self.name})"
        )

    def map_values(self, func: Callable[[V], U]) -> "RDD":
        """Apply ``func`` to the value of each ``(key, value)`` pair."""
        return self.map(lambda pair: (pair[0], func(pair[1])))

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two RDDs (no deduplication, like Spark)."""
        return UnionRDD(self, other)

    # -- pair-RDD transformations (shuffles) ------------------------------ #
    def combine_by_key(
        self,
        create_combiner: Callable[[V], U],
        merge_value: Callable[[U, V], U],
        merge_combiners: Callable[[U, U], U],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        """General shuffle-with-aggregation (Spark's ``combineByKey``)."""
        partitioner = HashKeyPartitioner(
            num_partitions or self.context.default_parallelism
        )
        return ShuffledRDD(
            self,
            partitioner=partitioner,
            create_combiner=create_combiner,
            merge_value=merge_value,
            merge_combiners=merge_combiners,
            name=f"combine_by_key({self.name})",
        )

    def reduce_by_key(
        self, func: Callable[[V, V], V], num_partitions: Optional[int] = None
    ) -> "RDD":
        """Merge values with the same key using an associative ``func``."""
        return self.combine_by_key(
            create_combiner=lambda value: value,
            merge_value=func,
            merge_combiners=func,
            num_partitions=num_partitions,
        )

    def cogroup(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Group both RDDs by key: ``(key, (values_from_self, values_from_other))``."""
        tagged_self = self.map_values(lambda value: (0, value))
        tagged_other = other.map_values(lambda value: (1, value))

        def create(tagged: Tuple[int, Any]) -> Tuple[List[Any], List[Any]]:
            groups: Tuple[List[Any], List[Any]] = ([], [])
            groups[tagged[0]].append(tagged[1])
            return groups

        def merge_value(groups, tagged):
            left, right = list(groups[0]), list(groups[1])
            (left if tagged[0] == 0 else right).append(tagged[1])
            return (left, right)

        def merge_combiners(a, b):
            return (a[0] + b[0], a[1] + b[1])

        return tagged_self.union(tagged_other).combine_by_key(
            create, merge_value, merge_combiners, num_partitions
        )

    # -- actions ----------------------------------------------------------- #
    def collect(self) -> List[T]:
        """Materialise the RDD and return all records as one list."""
        partitions = self.context._run_job(self)
        return [record for partition in partitions for record in partition]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(id={self.rdd_id}, name={self.name!r}, "
            f"partitions={self.num_partitions})"
        )


class ParallelCollectionRDD(RDD):
    """An RDD backed by an in-driver collection split into partitions."""

    def __init__(self, context, data: Iterable[T], num_partitions: int,
                 name: str = "parallelize") -> None:
        records = list(data)
        num_partitions = max(1, min(num_partitions, max(len(records), 1)))
        super().__init__(context, parents=[], num_partitions=num_partitions, name=name)
        self._partitions: List[List[T]] = [[] for _ in range(self.num_partitions)]
        for position, record in enumerate(records):
            self._partitions[position % self.num_partitions].append(record)

    def partition_dependencies(self, index: int) -> List[Tuple[int, int]]:
        return []

    def compute_partition(self, index: int, parent_data: List[List[Any]]) -> List[Any]:
        return list(self._partitions[index])


class MappedPartitionsRDD(RDD):
    """Narrow transformation applying a function to each parent partition."""

    def __init__(self, parent: RDD, func: Callable[[List[Any]], Iterable[Any]],
                 name: str = "mapped") -> None:
        super().__init__(
            parent.context, parents=[parent], num_partitions=parent.num_partitions,
            name=name,
        )
        self._func = func

    def partition_dependencies(self, index: int) -> List[Tuple[int, int]]:
        return [(0, index)]

    def compute_partition(self, index: int, parent_data: List[List[Any]]) -> List[Any]:
        return list(self._func(parent_data[0]))


class UnionRDD(RDD):
    """Concatenation of two RDDs; partitions are simply appended."""

    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(
            left.context,
            parents=[left, right],
            num_partitions=left.num_partitions + right.num_partitions,
            name=f"union({left.name},{right.name})",
        )
        self._left_partitions = left.num_partitions

    def partition_dependencies(self, index: int) -> List[Tuple[int, int]]:
        if index < self._left_partitions:
            return [(0, index)]
        return [(1, index - self._left_partitions)]

    def compute_partition(self, index: int, parent_data: List[List[Any]]) -> List[Any]:
        return list(parent_data[0])


class ShuffledRDD(RDD):
    """Wide dependency: repartitions a pair RDD by key and aggregates values.

    The scheduler recognises this class and runs it as two stages:

    * *shuffle-map*: each parent partition bucketises and pre-combines its
      records per target partition;
    * *shuffle-reduce*: each output partition merges the buckets destined to
      it with ``merge_combiners``, one record per key.
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: HashKeyPartitioner,
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        name: str = "shuffled",
    ) -> None:
        super().__init__(
            parent.context,
            parents=[parent],
            num_partitions=partitioner.num_partitions,
            name=name,
        )
        self.partitioner = partitioner
        self.create_combiner = create_combiner
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners

    def partition_dependencies(self, index: int) -> List[Tuple[int, int]]:  # pragma: no cover
        raise RuntimeError("ShuffledRDD partitions are computed by the scheduler")

    def compute_partition(self, index: int, parent_data: List[List[Any]]) -> List[Any]:  # pragma: no cover
        raise RuntimeError("ShuffledRDD partitions are computed by the scheduler")

    # -- helpers used by the scheduler ------------------------------------ #
    def map_side(self, records: List[Tuple[Any, Any]]) -> List[Dict[Any, Any]]:
        """Bucketise one parent partition into per-target combiner maps."""
        buckets: List[Dict[Any, Any]] = [dict() for _ in range(self.num_partitions)]
        for key, value in records:
            target = self.partitioner.partition(key)
            bucket = buckets[target]
            if key in bucket:
                bucket[key] = self.merge_value(bucket[key], value)
            else:
                bucket[key] = self.create_combiner(value)
        return buckets

    def reduce_side(self, bucket_maps: List[Dict[Any, Any]]) -> List[Any]:
        """Merge all buckets destined to one output partition."""
        merged: Dict[Any, Any] = {}
        for bucket in bucket_maps:
            for key, combiner in bucket.items():
                if key in merged:
                    merged[key] = self.merge_combiners(merged[key], combiner)
                else:
                    merged[key] = combiner
        return list(merged.items())
