"""Lazy, lineage-based resilient distributed datasets (RDDs).

An :class:`RDD` is an immutable, partitioned collection plus the recipe to
compute it from its parents.  Transformations (``map``, ``filter``,
``reduce_by_key``, …) build new RDDs lazily; actions (``collect``, ``count``,
``reduce``, …) hand the lineage graph to the DAG scheduler, which splits it
into stages at shuffle boundaries and runs the stages on the configured local
backend.

The paper's execution models (:mod:`repro.core.broadcast_impl`,
:mod:`repro.core.rdd_impl`) run ``parallelize``, ``map``, ``flat_map``,
``map_partitions_with_index``, ``cogroup``, ``reduce_by_key``, ``persist``
and ``collect``; the other operators are general Spark-style utilities with
their own tests.  The semantics match Spark's where they overlap.
Method names follow PEP 8 (``flat_map`` instead of ``flatMap``).
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError
from repro.engine.partitioner import HashKeyPartitioner, KeyPartitioner, RangeKeyPartitioner

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")


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

    @property
    def is_shuffle(self) -> bool:
        """Whether computing this RDD requires a shuffle of its parent."""
        return False

    # -- caching --------------------------------------------------------- #
    def persist(self) -> "RDD":
        """Keep the materialised partitions around for reuse across jobs."""
        self.persisted = True
        return self

    cache = persist

    def unpersist(self) -> "RDD":
        """Drop any cached materialisation."""
        self.persisted = False
        self.context._evict(self.rdd_id)
        return self

    # -- transformations -------------------------------------------------- #
    def map(self, func: Callable[[T], U]) -> "RDD":
        """Apply ``func`` to every record."""
        return MappedPartitionsRDD(
            self, lambda _idx, records: map(func, records), name=f"map({self.name})"
        )

    def flat_map(self, func: Callable[[T], Iterable[U]]) -> "RDD":
        """Apply ``func`` to every record and flatten the results."""
        return MappedPartitionsRDD(
            self,
            lambda _idx, records: itertools.chain.from_iterable(map(func, records)),
            name=f"flat_map({self.name})",
        )

    def filter(self, predicate: Callable[[T], bool]) -> "RDD":
        """Keep only records for which ``predicate`` is true."""
        return MappedPartitionsRDD(
            self,
            lambda _idx, records: filter(predicate, records),
            name=f"filter({self.name})",
        )

    def map_partitions(self, func: Callable[[Iterator[T]], Iterable[U]]) -> "RDD":
        """Apply ``func`` to each whole partition (an iterator of records)."""
        return MappedPartitionsRDD(
            self, lambda _idx, records: func(iter(records)), name=f"map_partitions({self.name})"
        )

    def map_partitions_with_index(
        self, func: Callable[[int, Iterator[T]], Iterable[U]]
    ) -> "RDD":
        """Like :meth:`map_partitions` but also passes the partition index."""
        return MappedPartitionsRDD(
            self,
            lambda idx, records: func(idx, iter(records)),
            name=f"map_partitions_with_index({self.name})",
        )

    def glom(self) -> "RDD":
        """Turn each partition into a single list record."""
        return MappedPartitionsRDD(
            self, lambda _idx, records: [list(records)], name=f"glom({self.name})"
        )

    def key_by(self, func: Callable[[T], K]) -> "RDD":
        """Produce ``(func(record), record)`` pairs."""
        return self.map(lambda record: (func(record), record))

    def map_values(self, func: Callable[[V], U]) -> "RDD":
        """Apply ``func`` to the value of each ``(key, value)`` pair."""
        return self.map(lambda pair: (pair[0], func(pair[1])))

    def flat_map_values(self, func: Callable[[V], Iterable[U]]) -> "RDD":
        """Apply ``func`` to each value and emit one pair per produced item."""
        return self.flat_map(
            lambda pair: ((pair[0], item) for item in func(pair[1]))
        )

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two RDDs (no deduplication, like Spark)."""
        return UnionRDD(self, other)

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD":
        """Remove duplicate records (records must be hashable)."""
        return (
            self.map(lambda record: (record, None))
            .reduce_by_key(lambda left, _right: left, num_partitions)
            .map(lambda pair: pair[0])
        )

    def sample(self, fraction: float, seed: int = 0) -> "RDD":
        """Bernoulli-sample records with probability ``fraction``."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")

        def sampler(index: int, records: Iterator[T]) -> Iterator[T]:
            import random

            rng = random.Random(seed * 1_000_003 + index)
            return (record for record in records if rng.random() < fraction)

        return self.map_partitions_with_index(sampler)

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce (or change) the number of partitions without a shuffle key."""
        return CoalescedRDD(self, num_partitions)

    repartition = coalesce

    def zip_with_index(self) -> "RDD":
        """Pair every record with a global 0-based index.

        Like Spark, this triggers a lightweight job to learn partition sizes
        before building the result.
        """
        sizes = self.map_partitions(lambda records: [sum(1 for _ in records)]).collect()
        offsets = [0]
        for size in sizes[:-1]:
            offsets.append(offsets[-1] + size)

        def add_index(index: int, records: Iterator[T]) -> Iterator[Tuple[T, int]]:
            return (
                (record, offsets[index] + position)
                for position, record in enumerate(records)
            )

        return self.map_partitions_with_index(add_index)

    # -- pair-RDD transformations (shuffles) ------------------------------ #
    def partition_by(self, partitioner: KeyPartitioner) -> "RDD":
        """Repartition ``(key, value)`` pairs by ``partitioner`` (no combine)."""
        return ShuffledRDD(
            self,
            partitioner=partitioner,
            create_combiner=lambda value: [value],
            merge_value=lambda values, value: values + [value],
            merge_combiners=lambda left, right: left + right,
            flatten=True,
            name=f"partition_by({self.name})",
        )

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
            flatten=False,
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

    def group_by_key(self, num_partitions: Optional[int] = None) -> "RDD":
        """Group values by key into lists."""
        return self.combine_by_key(
            create_combiner=lambda value: [value],
            merge_value=lambda values, value: values + [value],
            merge_combiners=lambda left, right: left + right,
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

    def join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Inner join on keys: ``(key, (value_self, value_other))``."""
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda groups: (
                (left, right) for left in groups[0] for right in groups[1]
            )
        )

    def left_outer_join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Left outer join; missing right values appear as ``None``."""
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda groups: (
                (left, right)
                for left in groups[0]
                for right in (groups[1] if groups[1] else [None])
            )
        )

    def sort_by(
        self,
        key_func: Callable[[T], Any],
        ascending: bool = True,
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        """Globally sort records by ``key_func`` using a range shuffle."""
        num_partitions = num_partitions or self.num_partitions
        sample_keys = (
            self.map(key_func).sample(min(1.0, 1000.0 / max(self.count(), 1)), seed=17).collect()
            or self.map(key_func).take(1000)
        )
        partitioner = RangeKeyPartitioner.from_sample(sample_keys, num_partitions)
        shuffled = self.key_by(key_func).partition_by(partitioner)

        def sort_partition(records: Iterator[Tuple[Any, T]]) -> Iterable[T]:
            ordered = sorted(records, key=lambda pair: pair[0], reverse=not ascending)
            return [value for _key, value in ordered]

        sorted_rdd = shuffled.map_partitions(sort_partition)
        if not ascending:
            # Range partitions are ascending; reverse their order for output.
            return ReversedPartitionsRDD(sorted_rdd)
        return sorted_rdd

    def values(self) -> "RDD":
        """Drop keys from a pair RDD."""
        return self.map(lambda pair: pair[1])

    def keys(self) -> "RDD":
        """Drop values from a pair RDD."""
        return self.map(lambda pair: pair[0])

    # -- actions ----------------------------------------------------------- #
    def collect(self) -> List[T]:
        """Materialise the RDD and return all records as one list."""
        partitions = self.context._run_job(self, action="collect")
        return [record for partition in partitions for record in partition]

    def collect_partitions(self) -> List[List[T]]:
        """Materialise and return the records grouped by partition."""
        return self.context._run_job(self, action="collect_partitions")

    def count(self) -> int:
        """Number of records."""
        partitions = self.context._run_job(self, action="count")
        return sum(len(partition) for partition in partitions)

    def take(self, count: int) -> List[T]:
        """Return the first ``count`` records (driver-side truncation)."""
        if count <= 0:
            return []
        return self.collect()[:count]

    def first(self) -> T:
        """Return the first record; raises ``ValueError`` on an empty RDD."""
        records = self.take(1)
        if not records:
            raise ValueError(f"RDD {self.name!r} is empty")
        return records[0]

    def reduce(self, func: Callable[[T, T], T]) -> T:
        """Reduce all records with an associative binary ``func``."""
        import functools

        partitions = self.context._run_job(self, action="reduce")
        partials = [
            functools.reduce(func, partition)
            for partition in partitions
            if partition
        ]
        if not partials:
            raise ValueError(f"cannot reduce empty RDD {self.name!r}")
        return functools.reduce(func, partials)

    def sum(self) -> Any:
        """Sum of all records (0 for an empty RDD)."""
        partitions = self.context._run_job(self, action="sum")
        return sum(sum(partition) for partition in partitions if partition)

    def count_by_key(self) -> Dict[Any, int]:
        """Count records per key of a pair RDD."""
        counts: Dict[Any, int] = {}
        for key, _value in self.collect():
            counts[key] = counts.get(key, 0) + 1
        return counts

    def collect_as_map(self) -> Dict[Any, Any]:
        """Collect a pair RDD into a dict (later duplicates win, as in Spark)."""
        return dict(self.collect())

    def fold(self, zero: U, func: Callable[[U, T], U]) -> U:
        """Fold all records into ``zero`` with ``func`` (left fold per
        partition, then across partitions; ``func`` must tolerate that)."""
        partitions = self.context._run_job(self, action="fold")
        partials = []
        for partition in partitions:
            accumulator = zero
            for record in partition:
                accumulator = func(accumulator, record)
            partials.append(accumulator)
        result = zero
        for partial in partials:
            result = func(result, partial)  # type: ignore[arg-type]
        return result

    def aggregate(self, zero: U, seq_func: Callable[[U, T], U],
                  comb_func: Callable[[U, U], U]) -> U:
        """Aggregate with separate within-partition and across-partition
        functions (Spark's ``aggregate``)."""
        partitions = self.context._run_job(self, action="aggregate")
        partials = []
        for partition in partitions:
            accumulator = zero
            for record in partition:
                accumulator = seq_func(accumulator, record)
            partials.append(accumulator)
        result = zero
        for partial in partials:
            result = comb_func(result, partial)
        return result

    def take_ordered(self, count: int, key: Optional[Callable[[T], Any]] = None,
                     reverse: bool = False) -> List[T]:
        """The ``count`` smallest records (or largest with ``reverse=True``)."""
        if count <= 0:
            return []
        records = self.collect()
        return sorted(records, key=key, reverse=reverse)[:count]

    def stats(self) -> Dict[str, float]:
        """Count / mean / min / max / stdev of a numeric RDD."""
        values = [float(value) for value in self.collect()]
        if not values:
            return {"count": 0, "mean": float("nan"), "min": float("nan"),
                    "max": float("nan"), "stdev": float("nan")}
        count = len(values)
        mean = sum(values) / count
        variance = sum((value - mean) ** 2 for value in values) / count
        return {
            "count": count,
            "mean": mean,
            "min": min(values),
            "max": max(values),
            "stdev": variance ** 0.5,
        }

    def foreach(self, func: Callable[[T], None]) -> None:
        """Apply ``func`` to every record for its side effects."""
        for partition in self.context._run_job(self, action="foreach"):
            for record in partition:
                func(record)

    # -- introspection ----------------------------------------------------- #
    def explain(self) -> str:
        """Describe the lineage of this RDD as an indented tree.

        Shuffle boundaries (where the DAG scheduler will cut stages) are
        marked with ``[shuffle]``; cached RDDs with ``[cached]``.
        """
        lines: List[str] = []

        def walk(rdd: "RDD", depth: int) -> None:
            marker = ""
            if rdd.is_shuffle:
                marker += " [shuffle]"
            if rdd.persisted:
                marker += " [cached]"
            lines.append(
                f"{'  ' * depth}+- {type(rdd).__name__}(id={rdd.rdd_id}, "
                f"partitions={rdd.num_partitions}, name={rdd.name!r}){marker}"
            )
            for parent in rdd.parents:
                walk(parent, depth + 1)

        walk(self, 0)
        return "\n".join(lines)

    def lineage_depth(self) -> int:
        """Length of the longest parent chain (useful to spot runaway plans)."""
        if not self.parents:
            return 1
        return 1 + max(parent.lineage_depth() for parent in self.parents)

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

    def __init__(self, parent: RDD, func: Callable[[int, List[Any]], Iterable[Any]],
                 name: str = "mapped") -> None:
        super().__init__(
            parent.context, parents=[parent], num_partitions=parent.num_partitions,
            name=name,
        )
        self._func = func

    def partition_dependencies(self, index: int) -> List[Tuple[int, int]]:
        return [(0, index)]

    def compute_partition(self, index: int, parent_data: List[List[Any]]) -> List[Any]:
        return list(self._func(index, parent_data[0]))


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


class CoalescedRDD(RDD):
    """Change the partition count without a key-based shuffle."""

    def __init__(self, parent: RDD, num_partitions: int) -> None:
        super().__init__(
            parent.context, parents=[parent], num_partitions=num_partitions,
            name=f"coalesce({parent.name})",
        )
        self._parent_partitions = parent.num_partitions

    def partition_dependencies(self, index: int) -> List[Tuple[int, int]]:
        return [
            (0, parent_index)
            for parent_index in range(self._parent_partitions)
            if parent_index % self.num_partitions == index
        ]

    def compute_partition(self, index: int, parent_data: List[List[Any]]) -> List[Any]:
        merged: List[Any] = []
        for chunk in parent_data:
            merged.extend(chunk)
        return merged


class ReversedPartitionsRDD(RDD):
    """Read the parent's partitions in reverse order (used by sort_by desc)."""

    def __init__(self, parent: RDD) -> None:
        super().__init__(
            parent.context, parents=[parent], num_partitions=parent.num_partitions,
            name=f"reversed({parent.name})",
        )

    def partition_dependencies(self, index: int) -> List[Tuple[int, int]]:
        return [(0, self.num_partitions - 1 - index)]

    def compute_partition(self, index: int, parent_data: List[List[Any]]) -> List[Any]:
        return list(parent_data[0])


class ShuffledRDD(RDD):
    """Wide dependency: repartitions a pair RDD by key and aggregates values.

    The scheduler recognises this class and runs it as two stages:

    * *shuffle-map*: each parent partition bucketises (and optionally
      pre-combines) its records per target partition;
    * *shuffle-reduce*: each output partition merges the buckets destined to
      it with ``merge_combiners``.

    ``flatten=True`` makes the output one record per original value (used by
    :meth:`RDD.partition_by`), otherwise one record per key.
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: KeyPartitioner,
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        flatten: bool = False,
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
        self.flatten = flatten

    @property
    def is_shuffle(self) -> bool:
        return True

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
        if self.flatten:
            return [
                (key, value) for key, values in merged.items() for value in values
            ]
        return list(merged.items())
