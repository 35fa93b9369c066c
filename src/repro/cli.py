"""Command-line interface for the CloudWalker reproduction.

The CLI covers the operational workflow a user of the original system would
have: inspect datasets, generate or ingest a graph, build the offline index,
validate it, and answer queries — all from the shell.

Every serving and maintenance command (``query-batch``, ``serve``,
``serve-http``, ``replay``, ``update``, ``rebalance``, ``snapshot``) has one
deployment shape for every ``--shards K``: a single machine is the K = 1
cluster, so K = 1 runs the same :class:`~repro.service.ShardedQueryService`
and writes the same snapshot layout (``shard_plan.json`` plus one
``shard-NN/`` store per shard) as any other K.

Examples
--------
::

    python -m repro datasets
    python -m repro generate --model copying --nodes 1000 --output graph.tsv
    python -m repro stats --graph graph.tsv
    python -m repro index --graph graph.tsv --output index.npz --walkers 100
    python -m repro index --graph graph.tsv --output index.npz --shards 4
    python -m repro validate --graph graph.tsv --index index.npz
    python -m repro query pair --graph graph.tsv --index index.npz --source 3 --target 17
    python -m repro query topk --graph graph.tsv --index index.npz --source 3 --k 10
    python -m repro query-batch --graph graph.tsv --index index.npz --queries queries.txt
    python -m repro serve --graph graph.tsv --index index.npz
    python -m repro serve --graph graph.tsv --index index.npz --shards 4 \
        --serve-backend threads --serve-workers 4
    python -m repro serve-http --graph graph.tsv --index index.npz --shards 4 \
        --serve-backend threads --port 8080 --coalesce-window 0.002
    python -m repro update --graph graph.tsv --index index.npz \
        --edges new_edges.tsv --snapshot-dir snapshots/ --output index.npz
    python -m repro rebalance --graph graph.tsv --snapshot-dir snapshots/ --force
    python -m repro snapshot list --dir snapshots/
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.config import (
    RebalanceParams,
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.core.cloudwalker import CloudWalker
from repro.core.index import DiagonalIndex, ShardedIndex, ShardedSnapshotStore
from repro.errors import CloudWalkerError
from repro.graph import datasets, generators, io, stats
from repro.graph.digraph import DiGraph
from repro.graph.partition import ShardPlan


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _load_graph(args: argparse.Namespace) -> DiGraph:
    """Load the graph referenced by ``--graph`` or ``--dataset``."""
    if getattr(args, "dataset", None):
        return datasets.load(args.dataset)
    path = args.graph
    if path is None:
        raise CloudWalkerError("either --graph or --dataset is required")
    if str(path).endswith(".npz"):
        return io.load_binary(path)
    return io.read_edge_list(path, relabel=False)


def _params_from_args(args: argparse.Namespace) -> SimRankParams:
    defaults = SimRankParams.paper_defaults()
    return SimRankParams(
        c=getattr(args, "decay", defaults.c),
        walk_steps=getattr(args, "steps", defaults.walk_steps),
        jacobi_iterations=getattr(args, "jacobi", defaults.jacobi_iterations),
        index_walkers=getattr(args, "walkers", defaults.index_walkers),
        query_walkers=getattr(args, "query_walkers", defaults.query_walkers),
        seed=getattr(args, "seed", defaults.seed),
    )


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="edge-list (.tsv) or binary (.npz) graph file")
    parser.add_argument(
        "--dataset", help="name of a registered dataset stand-in (see 'datasets')"
    )


def _add_sharding_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = ShardingParams()
    parser.add_argument("--shards", type=int, default=defaults.num_shards,
                        help="number of index shards K (default: "
                             "%(default)s)")
    parser.add_argument("--shard-strategy", dest="shard_strategy",
                        default=defaults.strategy,
                        choices=["hash", "contiguous", "partitioner"],
                        help="node-to-shard assignment (default: %(default)s)")
    parser.add_argument("--shard-backend", dest="shard_backend",
                        default=defaults.backend,
                        choices=["serial", "threads", "processes"],
                        help="executor backend for concurrent shard builds "
                             "(default: %(default)s)")
    parser.add_argument("--shard-workers", dest="shard_workers", type=int,
                        default=defaults.max_workers,
                        help="worker bound for threads/processes backends "
                             "(default: %(default)s)")


def _sharding_from_args(args: argparse.Namespace) -> ShardingParams:
    """Build (and validate) :class:`ShardingParams` from ``--shard-*`` args."""
    return ShardingParams(
        num_shards=args.shards,
        strategy=args.shard_strategy,
        backend=args.shard_backend,
        max_workers=args.shard_workers,
    )


def _rebalance_from_args(args: argparse.Namespace) -> RebalanceParams:
    """Build :class:`RebalanceParams` from the ``--rebalance-*`` args."""
    defaults = RebalanceParams()
    return RebalanceParams(
        improvement_threshold=getattr(args, "rebalance_threshold",
                                      defaults.improvement_threshold),
        check_interval=getattr(args, "rebalance_interval",
                               defaults.check_interval),
    )


def _add_param_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = SimRankParams.paper_defaults()
    parser.add_argument("--decay", type=float, default=defaults.c,
                        help="SimRank decay factor c (default: %(default)s)")
    parser.add_argument("--steps", type=int, default=defaults.walk_steps,
                        help="walk steps T (default: %(default)s)")
    parser.add_argument("--jacobi", type=int, default=defaults.jacobi_iterations,
                        help="Jacobi iterations L (default: %(default)s)")
    parser.add_argument("--walkers", type=int, default=defaults.index_walkers,
                        help="index walkers R (default: %(default)s)")
    parser.add_argument("--query-walkers", dest="query_walkers", type=int,
                        default=defaults.query_walkers,
                        help="query walkers R' (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="random seed (default: %(default)s)")


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _cmd_datasets(args: argparse.Namespace, out) -> int:
    print(f"{'name':<15} {'tier':<7} {'paper size':<22} description", file=out)
    for name in datasets.names():
        spec = datasets.get(name)
        paper = f"{spec.paper.human_nodes} nodes / {spec.paper.human_edges} edges"
        print(f"{spec.name:<15} {spec.tier:<7} {paper:<22} {spec.description[:60]}",
              file=out)
    return 0


def _cmd_generate(args: argparse.Namespace, out) -> int:
    builders = {
        "erdos-renyi": lambda: generators.erdos_renyi_graph(
            args.nodes, avg_degree=args.degree, seed=args.seed),
        "preferential": lambda: generators.preferential_attachment_graph(
            args.nodes, out_degree=max(int(args.degree), 1), seed=args.seed),
        "power-law": lambda: generators.power_law_graph(
            args.nodes, avg_degree=args.degree, seed=args.seed),
        "copying": lambda: generators.copying_model_graph(
            args.nodes, out_degree=max(int(args.degree), 1), seed=args.seed),
    }
    if args.model not in builders:
        print(f"unknown model {args.model!r}; choose from {sorted(builders)}", file=out)
        return 2
    graph = builders[args.model]()
    if args.output.endswith(".npz"):
        io.save_binary(graph, args.output)
    else:
        io.write_edge_list(graph, args.output)
    print(f"wrote {graph.n_nodes} nodes / {graph.n_edges} edges to {args.output}",
          file=out)
    return 0


def _cmd_stats(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    info = stats.compute_stats(graph)
    for key, value in info.to_dict().items():
        print(f"{key:<28} {value}", file=out)
    return 0


def _cmd_index(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    params = _params_from_args(args)
    if args.mode != "local":
        if args.shards != 1:
            raise CloudWalkerError(
                "--shards composes with the default 'local' mode only; the "
                "'broadcasting'/'rdd' execution models have their own "
                "partitioning"
            )
        walker = CloudWalker(graph, params=params, mode=args.mode)
        start = time.perf_counter()
        index = walker.build_index()
        elapsed = time.perf_counter() - start
        index.save(args.output)
        print(f"indexed {graph.n_nodes} nodes / {graph.n_edges} edges "
              f"in {elapsed:.2f}s using the {args.mode!r} execution model",
              file=out)
        print(f"index written to {args.output} "
              f"({index.memory_bytes / 1024:.1f} KiB, residual "
              f"{index.build_info.jacobi_residual:.4f})", file=out)
        walker.shutdown()
        return 0
    from repro.core.sharding import build_sharded_index

    # One builder for every K (1 included): per-source streams, the index a
    # service's own build or update would produce.
    sharding = _sharding_from_args(args)
    start = time.perf_counter()
    index, sharded_walker = build_sharded_index(graph, sharding, params=params)
    elapsed = time.perf_counter() - start
    sharded_walker.backend.close()
    index.save(args.output)
    per_shard = sharded_walker.shard_build_seconds
    critical_path = max(per_shard.values()) if per_shard else 0.0
    print(f"indexed {graph.n_nodes} nodes / {graph.n_edges} edges "
          f"in {elapsed:.2f}s across {sharding.num_shards} "
          f"{sharding.strategy!r} shards ({sharding.backend} backend); "
          f"slowest shard {critical_path:.2f}s", file=out)
    print(f"index written to {args.output} "
          f"({index.memory_bytes / 1024:.1f} KiB, residual "
          f"{index.build_info.jacobi_residual:.4f}); bitwise-identical "
          "for any --shards value", file=out)
    return 0


def _cmd_validate(args: argparse.Namespace, out) -> int:
    from repro.analysis.validation import validate_index

    graph = _load_graph(args)
    index = DiagonalIndex.load(args.index)
    report = validate_index(graph, index, spot_check_pairs=args.spot_checks)
    for key, value in report.checks.items():
        print(f"{key:<30} {value:.6f}", file=out)
    for issue in report.issues:
        print(str(issue), file=out)
    print("OK" if report.ok else "FAILED", file=out)
    return 0 if report.ok else 1


def _cmd_query(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    params = _params_from_args(args)
    walker = CloudWalker(graph, params=params)
    walker.load_index(args.index)
    if args.query_type == "pair":
        if args.target is None:
            print("query pair requires --target", file=out)
            return 2
        value = walker.single_pair(args.source, args.target)
        print(f"s({args.source}, {args.target}) = {value:.6f}", file=out)
    elif args.query_type == "source":
        scores = walker.single_source(args.source)
        print(f"single-source scores from node {args.source}: "
              f"mean={scores.mean():.6f} max={scores.max():.6f}", file=out)
    else:  # topk
        for rank, (node, score) in enumerate(walker.top_k(args.source, k=args.k), 1):
            print(f"{rank:>3}. node {node:<8} score {score:.6f}", file=out)
    return 0


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = ServiceParams()
    parser.add_argument("--cache-capacity", dest="cache_capacity", type=int,
                        default=defaults.cache_capacity,
                        help="cached walk distributions (and, counted "
                             "apart, ranked top-k answers), 0 disables "
                             "(default: %(default)s)")
    parser.add_argument("--serve-backend", dest="serve_backend",
                        default=defaults.serve_backend,
                        choices=["serial", "threads", "processes"],
                        help="executor backend for the cache-miss walk "
                             "simulation, one task per serve worker "
                             "(default: %(default)s)")
    parser.add_argument("--serve-workers", dest="serve_workers", type=int,
                        default=defaults.serve_workers,
                        help="worker bound for the threads/processes serve "
                             "backend (default: %(default)s)")
    parser.add_argument("--accuracy-budget", dest="accuracy_budget",
                        type=float, default=defaults.accuracy_budget,
                        help="serve approximately within this mean-error "
                             "budget (reduced walkers/steps calibrated at "
                             "startup against exact ground truth, quadratic "
                             "in graph size); omit for exact serving "
                             "(default: exact)")
    parser.add_argument("--approx-walkers", dest="approx_walkers", type=int,
                        default=defaults.approx_walkers,
                        help="explicit approximate-mode query walkers "
                             "(skips calibration; needs --accuracy-budget)")
    parser.add_argument("--approx-steps", dest="approx_steps", type=int,
                        default=defaults.approx_steps,
                        help="explicit approximate-mode walk steps "
                             "(needs --accuracy-budget)")


def _make_service(args: argparse.Namespace):
    from repro.service import ShardedQueryService

    graph = _load_graph(args)
    service_params = ServiceParams(
        cache_capacity=args.cache_capacity,
        serve_backend=args.serve_backend, serve_workers=args.serve_workers,
        accuracy_budget=args.accuracy_budget,
        approx_walkers=args.approx_walkers, approx_steps=args.approx_steps,
    )
    # Parameters default to the ones persisted in the index so a cold-started
    # service answers exactly like the process that built the index.
    return ShardedQueryService.from_index_file(
        graph, args.index, service_params=service_params,
        sharding=_sharding_from_args(args),
        rebalance_params=_rebalance_from_args(args),
    )


def _format_answer(query, answer) -> str:
    from repro.service import PairQuery, SourceQuery

    if isinstance(query, PairQuery):
        return f"s({query.source}, {query.target}) = {answer:.6f}"
    if isinstance(query, SourceQuery):
        return (f"source {query.source}: mean={answer.mean():.6f} "
                f"max={answer.max():.6f}")
    ranked = " ".join(f"{node}={score:.6f}" for node, score in answer)
    return f"topk {query.source} (k={query.k}): {ranked}"


def _print_service_stats(service, out) -> None:
    stats = service.stats()
    print(f"served {stats['queries']} queries in {stats['batches']} batches "
          f"({stats['pair_queries']} pair / {stats['source_queries']} source / "
          f"{stats['topk_queries']} topk)", file=out)
    print(f"walk simulations: {stats['sources_simulated']} run, "
          f"{stats['sources_deduplicated']} deduplicated, "
          f"cache hit rate {stats['cache_hit_rate']:.2%} "
          f"({stats['cache_size']}/{stats['cache_capacity']} distributions, "
          f"{stats['cache_ranking_entries']} ranked answers)", file=out)


def _cmd_query_batch(args: argparse.Namespace, out) -> int:
    from repro.service import parse_query

    queries = [parse_query(line, default_k=args.k)
               for line in _read_lines(args.queries, "queries")]
    if not queries:
        print("no queries found", file=out)
        return 2
    service = _make_service(args)
    try:
        start = time.perf_counter()
        answers = service.run_batch(queries)
        elapsed = time.perf_counter() - start
        for query, answer in zip(queries, answers):
            print(_format_answer(query, answer), file=out)
        print(f"answered {len(queries)} queries in {elapsed:.3f}s "
              f"({len(queries) / max(elapsed, 1e-9):.1f} q/s)", file=out)
        _print_service_stats(service, out)
    finally:
        service.close()
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from repro.service import parse_edge, parse_query

    service = _make_service(args)
    try:
        sharded = f" across {args.shards} shards" if args.shards > 1 else ""
        print(f"serving SimRank queries over {service.graph.name!r} "
              f"({service.graph.n_nodes} nodes{sharded}); one query per line "
              "('pair i j', 'source i', 'topk i [k]'), 'add i j' to insert an "
              "edge live, 'version', 'stats' or 'quit'",
              file=out)
        try:
            for line in sys.stdin:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if line.lower() in ("quit", "exit"):
                    break
                if line.lower() == "stats":
                    _print_service_stats(service, out)
                    continue
                if line.lower() == "version":
                    print(f"index version {service.index_version}", file=out)
                    continue
                try:
                    if line.lower().startswith("add "):
                        result = service.add_edges([parse_edge(line[4:])])
                        if result is None:
                            print("edge already present; nothing to do", file=out)
                        else:
                            print(f"edge added: {result.affected_rows} rows "
                                  f"re-estimated, index now version "
                                  f"{service.index_version}", file=out)
                        continue
                    query = parse_query(line, default_k=args.k)
                    print(_format_answer(query, service.run_batch([query])[0]),
                          file=out)
                except CloudWalkerError as exc:
                    print(f"error: {exc}", file=out)
        except (KeyboardInterrupt, EOFError):
            # A Ctrl-C (or EOF from a wrapper) mid-command must not unwind
            # past the prompt handling: announce, fall through to the
            # stats epilogue, and let `finally` release the pools once.
            print("interrupted; shutting down", file=out)
        _print_service_stats(service, out)
    finally:
        # Releases the persistent scatter pools of a sharded service.
        service.close()
    return 0


def _cmd_serve_http(args: argparse.Namespace, out) -> int:
    from repro.service.http import HttpServiceServer

    service = _make_service(args)
    try:
        sharded = f" across {args.shards} shards" if args.shards > 1 else ""
        print(f"serving SimRank queries over {service.graph.name!r} "
              f"({service.graph.n_nodes} nodes{sharded}) via HTTP; "
              "POST /query, POST /update, POST /rebalance, "
              "GET /healthz|/version|/stats; "
              "SIGTERM or Ctrl-C drains gracefully"
              + ("; auto-rebalance on" if args.auto_rebalance else ""),
              file=out)
        server = HttpServiceServer(
            service, host=args.host, port=args.port,
            coalesce_window=args.coalesce_window,
            max_in_flight=args.max_in_flight,
            auto_rebalance=args.auto_rebalance,
        )
        try:
            server.run(out=out)
        except KeyboardInterrupt:
            # Only reachable where asyncio signal handlers are unsupported;
            # the graceful path handles SIGINT inside the loop.
            print("interrupted; shutting down", file=out)
    finally:
        # The graceful drain already closed the service; close() is
        # idempotent, so this is a no-op then — and the release path when
        # startup failed before the server took ownership.
        service.close()
    return 0


def _cmd_replay(args: argparse.Namespace, out) -> int:
    from repro.service import scenarios

    graph = _load_graph(args)
    if args.trace:
        trace = scenarios.read_trace(args.trace)
    else:
        trace = scenarios.generate_trace(
            args.scenario, graph.n_nodes, n_events=args.events,
            seed=args.trace_seed,
        )
    if args.save_trace:
        scenarios.write_trace(trace, args.save_trace)
        print(f"trace {trace.name!r} ({len(trace.events)} events) "
              f"written to {args.save_trace}", file=out)
    options = scenarios.ReplayOptions(
        batch_size=args.batch_size,
        rebalance_every=args.rebalance_every,
        max_retry_seconds=args.max_retry_seconds,
    )
    service = _make_service(args)
    try:
        result = scenarios.replay_trace(service, trace, options)
    finally:
        service.close()
    record = result.to_record()
    print(f"scenario {result.scenario!r} [{result.transport}, {result.mode}]: "
          f"{result.n_queries} queries + {result.n_updates} updates in "
          f"{result.n_batches} batches, {result.duration_seconds:.3f}s "
          f"({result.qps:.1f} q/s)", file=out)
    print(f"  p50 {result.p50_latency_seconds * 1e3:.2f}ms  "
          f"p99 {result.p99_latency_seconds * 1e3:.2f}ms  "
          f"cache hit rate {result.cache_hit_rate:.2f}  "
          f"rebalances {result.rebalances_applied}", file=out)
    print(f"  index versions {record['index_versions']}  "
          f"answers sha256 {result.answer_checksum[:16]}…", file=out)
    if result.realized_mean_error is not None:
        print(f"  realized mean error {result.realized_mean_error:.5f} "
              f"(budget {result.accuracy_budget})", file=out)
    if args.output:
        scenarios.write_records([result], args.output)
        print(f"record appended to {args.output}", file=out)
    return 0


def _read_lines(source: str, what: str) -> List[str]:
    """The non-blank, non-comment lines of a file (or stdin for ``-``)."""
    if source == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise CloudWalkerError(f"cannot read {what} file: {exc}") from exc
    return [line for line in lines
            if line.strip() and not line.lstrip().startswith("#")]


def _load_update_service(args: argparse.Namespace, update_params: UpdateParams,
                         graph: DiGraph, out):
    """Resolve the service an ``update`` run mutates, plus its description.

    A ``--snapshot-dir`` holding a consistent snapshot wins over
    ``--index`` and keeps its own shard count; otherwise ``--index``
    starts a lineage with ``--shards K`` shards.
    """
    from repro.service import ShardedQueryService

    sharding = _sharding_from_args(args)
    store = ShardedSnapshotStore(args.snapshot_dir, retain=args.retain) \
        if args.snapshot_dir else None
    if store is not None and store.latest_version() is not None:
        service = ShardedQueryService.from_snapshot(
            graph, args.snapshot_dir, update_params=update_params,
            sharding=sharding,
        )
        shards = service.num_shards
        if args.shards > 1 and args.shards != shards:
            print(f"note: a lineage's shard count is immutable (assignments "
                  f"migrate via 'rebalance', the count never does); keeping "
                  f"the directory's {shards}-shard plan (ignoring "
                  f"--shards {args.shards})", file=out)
        if store.describe(service.index_version)["systems"] < shards:
            print("note: snapshot carries no linear system; estimating it once",
                  file=out)
        return service, (f"snapshot v{service.index_version} in "
                         f"{args.snapshot_dir} ({shards}-shard plan)")
    plan = None
    if store is not None and (store.directory / store.PLAN_FILE).exists():
        # A crashed first save leaves the plan with no consistent version;
        # recover from --index under the directory's plan so the lineage
        # stays writable, instead of hard-failing.
        if not args.index:
            raise CloudWalkerError(
                f"{args.snapshot_dir} has no consistent sharded snapshot "
                "(crashed first save?); pass --index to restart the "
                "lineage or use a fresh directory"
            )
        plan = store.load_plan()
        sharding = sharding.with_(num_shards=plan.num_shards,
                                  strategy=plan.strategy)
        print(f"note: {args.snapshot_dir} has no consistent sharded "
              f"snapshot; restarting the lineage from {args.index} under "
              f"its persisted {plan.num_shards}-shard plan", file=out)
    elif not args.index:
        raise CloudWalkerError(
            "update requires --index or a non-empty --snapshot-dir")
    print("note: plain index carries no linear system; estimating it once "
          "(snapshots avoid this)", file=out)
    service = ShardedQueryService.from_index_file(
        graph, args.index, update_params=update_params, sharding=sharding,
        plan=plan,
    )
    return service, f"{args.index} ({service.num_shards}-shard plan)"


def _cmd_update(args: argparse.Namespace, out) -> int:
    from repro.service import parse_edge

    graph = _load_graph(args)
    edges = [parse_edge(line) for line in _read_lines(args.edges, "edges")]
    if not edges:
        print("no edges found", file=out)
        return 2
    update_params = UpdateParams(snapshot_retain=args.retain)
    service, source = _load_update_service(args, update_params, graph, out)
    try:
        start = time.perf_counter()
        result = service.add_edges(edges)
        elapsed = time.perf_counter() - start
        print(f"loaded {source}", file=out)
        if result is None:
            print(f"all {len(edges)} edges already present; nothing to update",
                  file=out)
        else:
            print(f"applied {result.edges_added} edge insertions in "
                  f"{elapsed:.2f}s: {result.affected_rows}/"
                  f"{service.graph.n_nodes} rows re-estimated "
                  f"({result.new_nodes} new nodes), index now version "
                  f"{service.index_version}", file=out)
        if args.snapshot_dir:
            written = service.stats()["snapshots_written"]
            version, path = service.save_snapshot(args.snapshot_dir)
            if service.stats()["snapshots_written"] > written:
                print(f"snapshot v{version} written to {path}", file=out)
            else:
                print(f"snapshot v{version} already on disk in {path}",
                      file=out)
            if result is not None and not args.output_graph:
                print("warning: snapshot records the UPDATED graph but "
                      "--output-graph was not given; pass the updated edge list "
                      "next time or the snapshot will reject the stale graph",
                      file=out)
        if args.output:
            service.index.save(args.output)
            print(f"updated index written to {args.output}", file=out)
        if args.output_graph:
            io.write_edge_list(service.graph, args.output_graph)
            print(f"updated graph ({service.graph.n_edges} edges) written to "
                  f"{args.output_graph}", file=out)
    finally:
        service.close()
    return 0


def _cmd_rebalance(args: argparse.Namespace, out) -> int:
    """Offline plan migration: re-balance a lineage's shard assignment.

    Loads the service exactly like ``update`` (snapshot directory first,
    ``--index`` fallback), weights every node by its **in-degree** — the
    structural stand-in for query load available offline (a node's scatter
    and ranking cost scales with how much of the graph points at it) —
    and migrates when the cost model clears the threshold (or always,
    under ``--force``).  A migration into ``--snapshot-dir`` persists the
    new governing plan alongside the re-sliced shard systems, so the next
    ``serve-http``/``update`` against the directory serves the new plan;
    answers are bitwise-unchanged either way.  A one-shard lineage has
    nothing to migrate: its proposed plan equals the serving plan.
    """
    graph = _load_graph(args)
    update_params = UpdateParams(
        snapshot_dir=args.snapshot_dir or None,
        snapshot_retain=args.retain,
    )
    service, source = _load_update_service(args, update_params, graph, out)
    try:
        service.rebalance_params = service.rebalance_params.with_(
            improvement_threshold=args.rebalance_threshold,
            # Offline weights are structural, not observed-query counters,
            # so the representativeness minimum does not apply.
            min_sources=0,
        )
        weights = graph.in_degrees().astype(float)
        print(f"loaded {source}", file=out)
        start = time.perf_counter()
        report = service.rebalance(node_loads=weights, force=args.force)
        elapsed = time.perf_counter() - start
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
        if report["applied"]:
            print(f"migrated to plan generation {report['plan_generation']} "
                  f"in {elapsed:.2f}s (answers unchanged)", file=out)
        else:
            print(f"no migration: {report['reason']}", file=out)
    finally:
        service.close()
    return 0


def _cmd_snapshot(args: argparse.Namespace, out) -> int:
    """``snapshot list|save|prune`` over a lineage of any shard count.

    ``list`` shows the *consistent* versions (present in every shard
    store) and how many shards saved their system block; ``save`` writes
    an index file's diagonal into every shard store with no system blocks
    (a new directory gets a one-shard plan), so the first update estimates
    the system once; ``prune`` bounds every shard store.
    """
    store = ShardedSnapshotStore(args.dir, retain=args.retain)
    if args.action == "list":
        versions = store.versions()
        if not versions:
            print(f"no snapshots in {args.dir}", file=out)
            return 0
        plan = store.load_plan()
        print(f"{plan.num_shards}-shard {plan.strategy!r} lineage", file=out)
        print(f"{'version':<9} {'nodes':<9} {'edges':<10} {'systems':<8} path",
              file=out)
        for version in versions:
            info = store.describe(version)
            systems = f"{info['systems']}/{info['num_shards']}"
            print(f"{version:<9} {info['n_nodes']:<9} {info['n_edges']:<10} "
                  f"{systems:<8} {args.dir}", file=out)
        return 0
    if args.action == "save":
        if not args.index:
            print("snapshot save requires --index", file=out)
            return 2
        plan = store.load_plan() \
            if (store.directory / store.PLAN_FILE).exists() else ShardPlan.hashed(1)
        version = store.save_snapshot(
            ShardedIndex(index=DiagonalIndex.load(args.index), plan=plan))
        print(f"snapshot v{version} written to {args.dir} "
              f"({plan.num_shards}-shard plan, no linear system)", file=out)
        return 0
    removed = store.prune()
    if removed:
        print(f"pruned versions {removed}; kept {store.versions()}", file=out)
    else:
        print(f"nothing to prune; kept {store.versions()}", file=out)
    return 0


# --------------------------------------------------------------------------- #
# Parser wiring
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CloudWalker: parallel SimRank computation (paper reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list registered dataset stand-ins")

    generate = subparsers.add_parser("generate", help="generate a synthetic graph")
    generate.add_argument("--model", default="copying",
                          help="erdos-renyi | preferential | power-law | copying")
    generate.add_argument("--nodes", type=int, default=1_000)
    generate.add_argument("--degree", type=float, default=8.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True)

    stats_parser = subparsers.add_parser("stats", help="print graph statistics")
    _add_graph_arguments(stats_parser)

    index = subparsers.add_parser(
        "index", help="build the CloudWalker index",
        description="Build the CloudWalker index.  The default 'local' mode "
                    "estimates every row from its own (seed, source) random "
                    "stream, so the file is bitwise-identical for any "
                    "--shards value and to the index a query service builds.")
    _add_graph_arguments(index)
    _add_param_arguments(index)
    _add_sharding_arguments(index)
    index.add_argument("--mode", default="local",
                       choices=["local", "broadcasting", "rdd"],
                       help="execution model (default: %(default)s)")
    index.add_argument("--output", required=True, help="where to write the .npz index")

    validate = subparsers.add_parser("validate", help="validate an index against a graph")
    _add_graph_arguments(validate)
    validate.add_argument("--index", required=True)
    validate.add_argument("--spot-checks", dest="spot_checks", type=int, default=20)

    query = subparsers.add_parser("query", help="answer SimRank queries")
    query.add_argument("query_type", choices=["pair", "source", "topk"])
    _add_graph_arguments(query)
    _add_param_arguments(query)
    query.add_argument("--index", required=True)
    query.add_argument("--source", type=int, required=True)
    query.add_argument("--target", type=int)
    query.add_argument("--k", type=int, default=10)

    query_batch = subparsers.add_parser(
        "query-batch",
        help="answer a file of queries as one deduplicated, cached batch",
    )
    _add_graph_arguments(query_batch)
    _add_service_arguments(query_batch)
    query_batch.add_argument("--index", required=True)
    query_batch.add_argument(
        "--queries", required=True,
        help="file of query lines ('pair i j' | 'source i' | 'topk i [k]'); "
             "'-' reads stdin",
    )
    query_batch.add_argument("--k", type=int, default=10,
                             help="default k for 'topk i' lines without one")
    _add_sharding_arguments(query_batch)

    serve = subparsers.add_parser(
        "serve",
        help="interactive query service: read query lines from stdin "
             "against a persistently loaded index",
    )
    _add_graph_arguments(serve)
    _add_service_arguments(serve)
    _add_sharding_arguments(serve)
    serve.add_argument("--index", required=True)
    serve.add_argument("--k", type=int, default=10,
                       help="default k for 'topk i' lines without one")

    service_defaults = ServiceParams()
    serve_http = subparsers.add_parser(
        "serve-http",
        help="networked HTTP/JSON query service: cross-connection batch "
             "coalescing, backpressure (429/503) and graceful drain on "
             "SIGTERM",
    )
    _add_graph_arguments(serve_http)
    _add_service_arguments(serve_http)
    _add_sharding_arguments(serve_http)
    serve_http.add_argument("--index", required=True)
    serve_http.add_argument("--host", default="127.0.0.1",
                            help="bind address (default: %(default)s)")
    serve_http.add_argument("--port", type=int,
                            default=service_defaults.http_port,
                            help="TCP port; 0 picks an ephemeral port, "
                                 "announced on startup (default: %(default)s)")
    serve_http.add_argument("--coalesce-window", dest="coalesce_window",
                            type=float,
                            default=service_defaults.coalesce_window,
                            help="seconds to collect concurrent clients' "
                                 "queries into one batch; 0 disables the "
                                 "wait (default: %(default)s)")
    serve_http.add_argument("--max-in-flight", dest="max_in_flight", type=int,
                            default=service_defaults.max_in_flight,
                            help="admitted-but-unanswered query bound before "
                                 "503s (default: %(default)s)")
    rebalance_defaults = RebalanceParams()
    serve_http.add_argument("--auto-rebalance", dest="auto_rebalance",
                            action=argparse.BooleanOptionalAction,
                            default=False,
                            help="periodically migrate to a better-balanced "
                                 "shard plan when the observed query load "
                                 "justifies it; a no-op at --shards 1 "
                                 "(default: %(default)s)")
    serve_http.add_argument("--rebalance-threshold",
                            dest="rebalance_threshold", type=float,
                            default=rebalance_defaults.improvement_threshold,
                            help="minimum predicted critical-path improvement "
                                 "(x) before an auto-rebalance migrates "
                                 "(default: %(default)s)")
    serve_http.add_argument("--rebalance-interval", dest="rebalance_interval",
                            type=float,
                            default=rebalance_defaults.check_interval,
                            help="seconds between auto-rebalance checks "
                                 "(default: %(default)s)")

    replay = subparsers.add_parser(
        "replay",
        help="replay a traffic trace (recorded JSONL or a synthetic "
             "scenario) against a served index and emit a normalized "
             "per-scenario record",
    )
    _add_graph_arguments(replay)
    _add_service_arguments(replay)
    _add_sharding_arguments(replay)
    replay.add_argument("--index", required=True)
    replay.add_argument("--trace",
                        help="JSONL trace file to replay (wins over "
                             "--scenario)")
    replay.add_argument("--scenario", default="uniform",
                        choices=["uniform", "zipf", "bursty", "update_storm",
                                 "multi_tenant"],
                        help="synthetic trace generator "
                             "(default: %(default)s)")
    replay.add_argument("--events", type=int, default=200,
                        help="query events of the synthetic trace "
                             "(default: %(default)s)")
    replay.add_argument("--trace-seed", dest="trace_seed", type=int, default=0,
                        help="seed of the synthetic trace "
                             "(default: %(default)s)")
    replay.add_argument("--save-trace", dest="save_trace",
                        help="also write the replayed trace as JSONL here")
    replay.add_argument("--batch-size", dest="batch_size", type=int,
                        default=32,
                        help="max consecutive query events answered as one "
                             "batch (default: %(default)s)")
    replay.add_argument("--rebalance-every", dest="rebalance_every", type=int,
                        default=0,
                        help="ask for a rebalance check every N batches; "
                             "0 disables (default: %(default)s)")
    replay.add_argument("--max-retry-seconds", dest="max_retry_seconds",
                        type=float, default=30.0,
                        help="cumulative backoff budget per event before an "
                             "HTTP replay gives up on persistent 429/503 "
                             "backpressure (default: %(default)s)")
    replay.add_argument("--output",
                        help="append the per-scenario JSONL record here")

    rebalance = subparsers.add_parser(
        "rebalance",
        help="migrate a snapshot lineage to a load-balanced shard plan "
             "(offline; answers are bitwise-unchanged)",
    )
    _add_graph_arguments(rebalance)
    _add_sharding_arguments(rebalance)
    rebalance.add_argument("--snapshot-dir", dest="snapshot_dir",
                           help="snapshot lineage to migrate and write the "
                                "new plan generation into")
    rebalance.add_argument("--index",
                           help="index .npz fallback when --snapshot-dir has "
                                "no consistent snapshot yet")
    rebalance.add_argument("--retain", type=int,
                           default=UpdateParams().snapshot_retain,
                           help="snapshot versions to keep (default: "
                                "%(default)s)")
    rebalance.add_argument("--rebalance-threshold",
                           dest="rebalance_threshold", type=float,
                           default=rebalance_defaults.improvement_threshold,
                           help="minimum predicted critical-path improvement "
                                "(x) before migrating (default: %(default)s)")
    rebalance.add_argument("--force", action="store_true",
                           help="migrate even below the improvement threshold")

    update = subparsers.add_parser(
        "update",
        help="insert edges into an indexed graph: incremental re-index of "
             "affected rows only, with optional versioned snapshots",
    )
    _add_graph_arguments(update)
    _add_sharding_arguments(update)
    update.add_argument(
        "--edges", required=True,
        help="file of '<src> <dst>' edge lines to insert; '-' reads stdin",
    )
    update.add_argument("--index",
                        help="index .npz to update (not needed when "
                             "--snapshot-dir already holds a snapshot)")
    update.add_argument("--snapshot-dir", dest="snapshot_dir",
                        help="snapshot directory to resume from and write the "
                             "updated version into")
    update.add_argument("--retain", type=int, default=UpdateParams().snapshot_retain,
                        help="snapshot versions to keep (default: %(default)s)")
    update.add_argument("--output", help="also write the updated index here")
    update.add_argument("--output-graph", dest="output_graph",
                        help="also write the updated edge list here")

    snapshot = subparsers.add_parser(
        "snapshot",
        help="inspect and manage versioned index snapshots",
    )
    snapshot.add_argument("action", choices=["list", "save", "prune"])
    snapshot.add_argument("--dir", required=True, help="snapshot directory")
    snapshot.add_argument("--index",
                          help="index .npz to save, without a linear system "
                               "(snapshot save)")
    snapshot.add_argument("--retain", type=int, default=UpdateParams().snapshot_retain,
                          help="snapshot versions to keep (default: %(default)s)")

    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "index": _cmd_index,
    "validate": _cmd_validate,
    "query": _cmd_query,
    "query-batch": _cmd_query_batch,
    "serve": _cmd_serve,
    "serve-http": _cmd_serve_http,
    "replay": _cmd_replay,
    "rebalance": _cmd_rebalance,
    "update": _cmd_update,
    "snapshot": _cmd_snapshot,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except CloudWalkerError as exc:
        print(f"error: {exc}", file=out)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
