#!/usr/bin/env python3
"""Live updates: insert edges into a served index without rebuilding it.

Demonstrates the full online-update path of :mod:`repro.service`:

1. build an update-ready query service (``QueryService.build``);
2. answer queries, noting the ``index_version`` tag on every batch;
3. insert edges — immediately and deferred — and watch the affected ball
   stay small while untouched cache entries stay hot;
4. verify the incrementally updated index answers *bitwise-identically*
   to one rebuilt from scratch on the updated graph;
5. snapshot the index + linear system and cold-start a second service
   from the snapshot.

Run with::

    PYTHONPATH=src python examples/live_updates.py
"""

import tempfile

import numpy as np

from repro import SimRankParams, UpdateParams
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.service import PairQuery, QueryService, TopKQuery


def main() -> None:
    # A small web-like graph and cheap deterministic parameters.
    graph = generators.copying_model_graph(n=300, out_degree=5, copy_prob=0.6,
                                           seed=7)
    params = SimRankParams.fast_defaults()
    print(f"graph: {graph}")

    with tempfile.TemporaryDirectory() as snapshot_dir:
        service = QueryService.build(
            graph, params,
            update_params=UpdateParams(snapshot_dir=snapshot_dir),
        )

        # Warm the cache with some traffic; the batch carries the version.
        answers = service.run_batch(
            [PairQuery(3, 9), TopKQuery(3, k=5), PairQuery(9, 3)]
        )
        print(f"index version {answers.index_version}: "
              f"s(3, 9) = {answers[0]:.6f}")

        # Insert edges: only the forward BFS ball of the heads is affected.
        result = service.add_edges([(2, 150), (7, 150)])
        print(f"live update: {result.edges_added} edges inserted, "
              f"{result.affected_rows}/{service.graph.n_nodes} rows affected, "
              f"{result.estimated_rows} re-estimated, "
              f"{service.stats()['cache_invalidations']} cache "
              f"entries invalidated")

        # Deferred updates queue up and drain at the next batch, as one
        # combined re-index.
        service.add_edges([(5, 11)], defer=True)
        service.add_edges([(6, 11)], defer=True)
        answers = service.run_batch([PairQuery(3, 9)])
        print(f"after deferred drain: version {answers.index_version}, "
              f"s(3, 9) = {answers[0]:.6f}")

        # The updated index is bitwise-identical to a fresh build on the
        # updated graph — incremental maintenance is exact, not approximate.
        merged = DiGraph(
            service.graph.n_nodes, service.graph.edge_array(), name=graph.name
        )
        rebuilt = QueryService.build(merged, params)
        match = all(
            np.array_equal(service.single_source(node),
                           rebuilt.single_source(node))
            for node in (0, 3, 9, 150, 299)
        )
        print(f"bitwise-equal to full rebuild: {match}")

        # Snapshot the index + system; a restarted service resumes from it.
        version, path = service.save_snapshot()
        print(f"snapshot v{version} written")
        restarted = QueryService.from_snapshot(service.graph, snapshot_dir)
        print(f"restarted at version {restarted.index_version}, "
              f"s(3, 9) = {restarted.single_pair(3, 9):.6f}")


if __name__ == "__main__":
    main()
