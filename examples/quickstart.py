#!/usr/bin/env python3
"""Quickstart: index a graph with CloudWalker and run the three query types.

Run with::

    python examples/quickstart.py
"""

from repro import CloudWalker, SimRankParams
from repro.graph import generators


def main() -> None:
    # A small synthetic web graph (the copying model produces the shared
    # in-neighbour structure SimRank is designed to exploit).
    graph = generators.copying_model_graph(n=500, out_degree=6, copy_prob=0.6, seed=42)
    print(f"graph: {graph}")

    # CloudWalker with the paper's parameters, but a reduced Monte-Carlo
    # budget so the example runs in a couple of seconds.
    params = SimRankParams.paper_defaults().with_(index_walkers=100, query_walkers=2_000)
    walker = CloudWalker(graph, params=params)

    # Offline phase: estimate the diagonal correction (the only index needed).
    index = walker.build_index()
    print(
        f"index built in {index.build_info.total_seconds:.3f}s "
        f"({index.build_info.system_nnz} non-zeros in the linear system, "
        f"index size {index.memory_bytes / 1024:.1f} KiB)"
    )

    # Online queries.
    print(f"\nsingle-pair  s(10, 25) = {walker.single_pair(10, 25):.4f}")
    print(f"single-pair  s(10, 10) = {walker.single_pair(10, 10):.4f}")

    scores = walker.single_source(10)
    print(f"\nsingle-source from node 10: mean={scores.mean():.4f}, max={scores.max():.4f}")

    print("\ntop-5 nodes most similar to node 10:")
    for rank, (node, score) in enumerate(walker.top_k(10, k=5), start=1):
        print(f"  {rank}. node {node:4d}  score {score:.4f}")

    # The index is a single vector; persist and reload it.
    walker.save_index("/tmp/cloudwalker-quickstart-index.npz")
    reloaded = CloudWalker(graph, params=params)
    reloaded.load_index("/tmp/cloudwalker-quickstart-index.npz")
    print(f"\nreloaded index answers s(10, 25) = {reloaded.single_pair(10, 25):.4f}")

    # ------------------------------------------------------------------ #
    # Serving queries: batch + cache instead of one-shot library calls.
    # ------------------------------------------------------------------ #
    from repro import ServiceParams
    from repro.service import PairQuery, QueryService, TopKQuery

    # Cold-start a service from the persisted index (no re-indexing); the
    # cache keeps each hot source's walk distributions resident and the
    # batch API answers queries sharing a source from one simulation.
    service = QueryService.from_index_file(
        graph, "/tmp/cloudwalker-quickstart-index.npz",
        service_params=ServiceParams(cache_capacity=512),
    )
    batch = [PairQuery(10, 25), PairQuery(25, 10), TopKQuery(10, k=5),
             PairQuery(10, 77)]
    answers = service.run_batch(batch)
    print(f"\nservice batch: s(10, 25)={answers[0]:.4f} "
          f"s(25, 10)={answers[1]:.4f} s(10, 77)={answers[3]:.4f}")
    # A repeated batch is served from the cache — same answers, no new walks.
    service.run_batch(batch)
    stats = service.stats()
    print(f"service stats: {stats['queries']} queries, "
          f"{stats['sources_simulated']} simulations, "
          f"cache hit rate {stats['cache_hit_rate']:.0%}")


if __name__ == "__main__":
    main()
