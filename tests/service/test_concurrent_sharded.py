"""Concurrency stress: interleaved updates and batches on a sharded service.

A :class:`~repro.service.QueryService` on the serial backend receives live
edge insertions (immediate *and* deferred) from one thread while two other
threads hammer it with query batches.  The invariants pinned here:

* ``index_version`` observed by each query thread is monotone;
* **no torn reads** — every :class:`~repro.service.service.BatchAnswers`
  is bitwise-equal to a single-threaded reference service's answers *at
  the version the batch reports*, so a batch can never mix two index
  generations;
* the cache accounting still adds up after the dust settles (aggregate ==
  sum of shards, size == inserts - evictions - invalidations).

The reference map is deterministic because the stress driver applies one
edit batch at a time and waits for its version bump before the next, so
every drain — whether performed by ``add_edges`` itself or by whichever
query thread flushes the deferred queue first — applies exactly one batch.
"""

import threading
import time

import numpy as np

from repro.config import ServiceParams, ShardingParams, SimRankParams
from repro.graph import generators
from repro.service import (
    PairQuery,
    QueryService,
    SourceQuery,
    TopKQuery,
)

PARAMS = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                       index_walkers=15, query_walkers=40, seed=17)
QUERIES = [PairQuery(3, 7), SourceQuery(12), TopKQuery(5, k=4),
           TopKQuery(2, k=200)]
#: One version bump each; every batch contains at least one fresh edge.
EDIT_BATCHES = [
    [(0, 40)],
    [(1, 55), (2, 63)],
    [(4, 70)],
    [(6, 80), (80, 3)],
]
#: Positions applied via ``defer=True`` (drained by a concurrent batch).
DEFERRED = {1, 3}


def _reference_by_version(graph):
    """Single-threaded single-shard answers for every index version."""
    reference = QueryService.build(graph, PARAMS)
    by_version = {reference.index_version: reference.run_batch(QUERIES)}
    for batch in EDIT_BATCHES:
        result = reference.add_edges(batch)
        assert result is not None, "every stress edit batch must apply"
        by_version[reference.index_version] = reference.run_batch(QUERIES)
    return by_version


def _assert_equal(expected, answers):
    for left, right in zip(expected, answers):
        if isinstance(left, float):
            assert left == right
        elif isinstance(left, list):
            assert left == right
        else:
            assert np.array_equal(left, right)


def test_concurrent_updates_and_batches_are_never_torn():
    graph = generators.copying_model_graph(90, out_degree=4, seed=3)
    by_version = _reference_by_version(graph)

    observations = {0: [], 1: []}
    errors = []
    stop = threading.Event()

    with QueryService.build(
        graph, PARAMS,
        service_params=ServiceParams(cache_capacity=64),
        sharding=ShardingParams(num_shards=3),
    ) as service:
        def query_worker(slot):
            try:
                while not stop.is_set():
                    answers = service.run_batch(QUERIES)
                    observations[slot].append(
                        (answers.index_version, list(answers))
                    )
            except Exception as exc:  # noqa: BLE001 — surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=query_worker, args=(slot,))
                   for slot in observations]
        for thread in threads:
            thread.start()

        expected_version = 1
        for position, batch in enumerate(EDIT_BATCHES):
            if position in DEFERRED:
                service.add_edges(batch, defer=True)
                # A concurrent batch drains the queue; flush ourselves only
                # if the query threads are starved past the deadline.
                deadline = time.monotonic() + 10.0
                while (service.index_version == expected_version
                       and time.monotonic() < deadline):
                    time.sleep(0.002)
                if service.index_version == expected_version:
                    service.flush_updates()
            else:
                service.add_edges(batch)
            expected_version += 1
            assert service.index_version == expected_version
            time.sleep(0.02)  # let some batches land on this version

        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = service.stats()

    final_version = len(EDIT_BATCHES) + 1
    assert stats["index_version"] == final_version
    assert stats["pending_updates"] == 0

    total_batches = 0
    for slot, seen in observations.items():
        versions = [version for version, _answers in seen]
        assert versions == sorted(versions), (
            f"thread {slot} observed index_version going backwards: {versions}"
        )
        assert all(1 <= version <= final_version for version in versions)
        for version, answers in seen:
            _assert_equal(by_version[version], answers)
            total_batches += 1
    assert total_batches > 0, "stress run produced no concurrent batches"

    # Cache accounting adds up after concurrent traffic.  Inserts and
    # evictions count both entry kinds; score entries leave on every
    # applied update, distributions only inside an update's ball.
    assert stats["cache_size"] + stats["cache_score_entries"] == (
        stats["cache_inserts"] - stats["cache_evictions"]
        - stats["cache_invalidations"] - stats["cache_score_dropped"])
    lookups = stats["cache_hits"] + stats["cache_misses"]
    assert lookups > 0
    assert stats["cache_hit_rate"] == stats["cache_hits"] / lookups


def test_deferred_and_immediate_interleave_single_threaded_baseline():
    """The same edit script applied without concurrency lands on the same
    versions and answers — the stress test's reference map is itself
    pinned against the deferred/immediate drain semantics."""
    graph = generators.copying_model_graph(90, out_degree=4, seed=3)
    by_version = _reference_by_version(graph)
    with QueryService.build(
        graph, PARAMS,
        sharding=ShardingParams(num_shards=3),
    ) as service:
        _assert_equal(by_version[1], service.run_batch(QUERIES))
        for position, batch in enumerate(EDIT_BATCHES):
            service.add_edges(batch, defer=position in DEFERRED)
            answers = service.run_batch(QUERIES)  # drains any deferred queue
            assert answers.index_version == position + 2
            _assert_equal(by_version[position + 2], answers)
