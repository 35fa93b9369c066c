#!/usr/bin/env python3
"""Sharded builds and serving, end to end.

There is one serving class, ``QueryService``; ``ShardingParams(num_shards=K)``
splits the rows an index build or update estimates into at most
``min(K, workers)`` row tasks — one on the default ``serial`` backend —
and the default ``K = 1`` is the same program.  Every query is
served from one cache of ``cache_capacity × K`` entries per kind.  This
example:

1. builds the same index with one shard and with 4 shards on a two-worker
   process pool, and verifies the diagonals are *bitwise-identical*;
2. serves pair / source / top-k queries at ``K = 4`` and checks every
   answer against the one-shard service;
3. inserts edges live and re-estimates only the rows the edit can change,
   while the cache drops only the affected sources;
4. snapshots the 4-shard deployment (index and system) and cold-starts a
   second service from it at ``K = 2``: the lineage does not record K.

The 4-shard service builds its rows on a ``processes`` pool
(``ShardingParams.backend``) and would send a batch's cache misses to a
``processes`` serve pool (``ServiceParams.serve_backend``) once the batch
carries the scatter grain — this example's toy batches never do, so they
are walked in the serving thread.  It is closed at the end: ``close()``
releases the serve pool and the walker's build backend.

Run with::

    PYTHONPATH=src python examples/sharded_serving.py
"""

import tempfile

import numpy as np

from repro import ServiceParams, ShardingParams, SimRankParams
from repro.graph import generators
from repro.service import PairQuery, QueryService, TopKQuery


def main() -> None:
    graph = generators.copying_model_graph(n=300, out_degree=5, copy_prob=0.6,
                                           seed=7)
    params = SimRankParams.fast_defaults()
    print(f"graph: {graph}")

    # 1. One-shard vs 4-shard build: same diagonal, bit for bit.  On two
    # pool workers the 4-shard build runs min(4, 2) = 2 row tasks.
    single = QueryService.build(graph, params)
    sharded = QueryService.build(
        graph, params,
        service_params=ServiceParams(serve_backend="processes",
                                     serve_workers=2),
        sharding=ShardingParams(num_shards=4, backend="processes",
                                max_workers=2),
    )
    identical = np.array_equal(single.index.diagonal, sharded.index.diagonal)
    print(f"4-shard build bitwise-identical to single-shard: {identical}")

    # 2. Every answer at K = 4 matches the one-shard service's.
    queries = [PairQuery(3, 17), TopKQuery(3, k=5), PairQuery(40, 41)]
    reference = single.run_batch(queries)
    answers = sharded.run_batch(queries)
    print(f"answers match single-shard: {list(reference) == list(answers)}")
    print(f"top-5 for node 3: {answers[1]}")

    # 3. A live edit: only the rows whose walks met a head re-estimate.
    result = sharded.add_edges([(2, 120), (5, 120)])
    print(f"edit affected {result.affected_rows} rows; re-estimated "
          f"{result.estimated_rows} in at most 2 tasks")
    single.add_edges([(2, 120), (5, 120)])
    post = sharded.run_batch(queries)
    print(f"post-update answers match single-shard: "
          f"{list(single.run_batch(queries)) == list(post)}")

    # 4. Snapshot: index and system, restored at another K.
    with tempfile.TemporaryDirectory() as snapshot_dir:
        version, where = sharded.save_snapshot(snapshot_dir)
        print(f"sharded snapshot v{version} written to {where}")
        restored = QueryService.from_snapshot(
            sharded.graph, snapshot_dir,
            sharding=ShardingParams(num_shards=2))
        match = list(restored.run_batch(queries)) == list(post)
        print(f"restored service (version {restored.index_version}, "
              f"{restored.num_shards} shards) answers match: {match}")

    stats = sharded.stats()
    print(f"{stats['sources_simulated']} sources simulated; one cache of "
          f"{stats['cache_size']} distributions")

    # 5. Release the persistent scatter/build pools.
    single.close()
    sharded.close()
    restored.close()
    print("pools released (close is idempotent; a later batch would revive them)")


if __name__ == "__main__":
    main()
