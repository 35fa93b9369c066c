"""Command-line interface for the CloudWalker reproduction.

The CLI covers the operational workflow a user of the original system would
have: inspect datasets, generate or ingest a graph, build the offline index,
validate it, and answer queries — all from the shell.

Every serving and maintenance command (``query-batch``, ``serve``,
``serve-http``, ``replay``, ``update``, ``snapshot``) has one
deployment shape for every ``--shards K``: a single machine is the K = 1
cluster of the same :class:`~repro.service.QueryService`, K only splits
index builds and updates into row tasks, and every K writes and reads the
same snapshot layout (per version ``index-vN.npz`` and an optional
``system-vN.npz``).

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
        --serve-backend processes --serve-workers 4
    python -m repro serve-http --graph graph.tsv --index index.npz --shards 4 \
        --port 8080 --coalesce-window 0.002
    python -m repro update --graph graph.tsv --index index.npz \
        --edges new_edges.tsv --snapshot-dir snapshots/ --output index.npz
    python -m repro snapshot list --dir snapshots/
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.config import (
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.core.cloudwalker import CloudWalker
from repro.core.index import DiagonalIndex, SnapshotStore
from repro.engine.executor import BACKENDS
from repro.errors import CloudWalkerError
from repro.graph import datasets, generators, io, stats
from repro.graph.digraph import DiGraph


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
    """The ``index`` command's SimRank parameters (see ``_add_param_arguments``)."""
    return SimRankParams(
        c=args.decay,
        walk_steps=args.steps,
        jacobi_iterations=args.jacobi,
        index_walkers=args.walkers,
        query_walkers=args.query_walkers,
        seed=args.seed,
    )


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="edge-list (.tsv) or binary (.npz) graph file")
    parser.add_argument(
        "--dataset", help="name of a registered dataset stand-in (see 'datasets')"
    )


def _add_sharding_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = ShardingParams()
    parser.add_argument("--shards", type=int, default=defaults.num_shards,
                        help="number of index shards K: the most row tasks "
                             "a build or an update runs (default: "
                             "%(default)s)")
    parser.add_argument("--shard-backend", dest="shard_backend",
                        default=defaults.backend,
                        choices=BACKENDS,
                        help="executor backend for the row tasks of a build "
                             "or an update, min(shards, workers) of them "
                             "(default: %(default)s)")
    parser.add_argument("--shard-workers", dest="shard_workers", type=int,
                        default=defaults.max_workers,
                        help="worker bound for the processes backend "
                             "(default: %(default)s)")


def _sharding_from_args(args: argparse.Namespace) -> ShardingParams:
    """Build (and validate) :class:`ShardingParams` from ``--shard-*`` args."""
    return ShardingParams(
        num_shards=args.shards,
        backend=args.shard_backend,
        max_workers=args.shard_workers,
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
          f"shards ({len(per_shard)} row tasks, {sharding.backend} "
          f"backend); slowest task {critical_path:.2f}s", file=out)
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
    # Answer at the parameters the index was solved with, as query-batch,
    # serve and replay do.
    index = DiagonalIndex.load(args.index)
    walker = CloudWalker(graph, params=index.params)
    walker.set_index(index)
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
                        help="cached walk distributions per shard (and, "
                             "counted apart, source score records), 0 "
                             "disables (default: %(default)s)")
    parser.add_argument("--serve-backend", dest="serve_backend",
                        default=defaults.serve_backend,
                        choices=BACKENDS,
                        help="executor pool a batch's cache-miss walk "
                             "simulation crosses to, one run per serve "
                             "worker, once each run carries the scatter "
                             "grain of 2M walker-steps; lighter batches are "
                             "walked in the serving thread "
                             "(default: %(default)s)")
    parser.add_argument("--serve-workers", dest="serve_workers", type=int,
                        default=defaults.serve_workers,
                        help="worker bound for the processes serve "
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
    from repro.service import QueryService

    graph = _load_graph(args)
    service_params = ServiceParams(
        cache_capacity=args.cache_capacity,
        serve_backend=args.serve_backend, serve_workers=args.serve_workers,
        accuracy_budget=args.accuracy_budget,
        approx_walkers=args.approx_walkers, approx_steps=args.approx_steps,
    )
    # Parameters default to the ones persisted in the index so a cold-started
    # service answers exactly like the process that built the index.
    return QueryService.from_index_file(
        graph, args.index, service_params=service_params,
        sharding=_sharding_from_args(args),
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
          f"{stats['dead_end_pairs']} dead-end and "
          f"{stats['unmeetable_pairs']} unmeetable pairs skipped, "
          f"cache hit rate {stats['cache_hit_rate']:.2%} "
          f"({stats['cache_size']}/{stats['cache_capacity']} distributions, "
          f"{stats['cache_score_entries']} scored sources)", file=out)


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
                                  f"affected, {result.estimated_rows} rows "
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
        # Releases the service's persistent scatter pools.
        service.close()
    return 0


def _cmd_serve_http(args: argparse.Namespace, out) -> int:
    from repro.service.http import HttpServiceServer

    service = _make_service(args)
    try:
        sharded = f" across {args.shards} shards" if args.shards > 1 else ""
        print(f"serving SimRank queries over {service.graph.name!r} "
              f"({service.graph.n_nodes} nodes{sharded}) via HTTP; "
              "POST /query, POST /update, "
              "GET /healthz|/version|/stats; "
              "SIGTERM or Ctrl-C drains gracefully",
              file=out)
        server = HttpServiceServer(
            service, host=args.host, port=args.port,
            coalesce_window=args.coalesce_window,
            max_in_flight=args.max_in_flight,
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
    service = _make_service(args)
    try:
        result = scenarios.replay_trace(service, trace,
                                        batch_size=args.batch_size)
    finally:
        service.close()
    record = result.to_record()
    print(f"scenario {result.scenario!r} [{result.mode}]: "
          f"{result.n_queries} queries + {result.n_updates} updates in "
          f"{result.n_batches} batches, {result.duration_seconds:.3f}s "
          f"({result.qps:.1f} q/s)", file=out)
    print(f"  p50 {result.p50_latency_seconds * 1e3:.2f}ms  "
          f"p99 {result.p99_latency_seconds * 1e3:.2f}ms  "
          f"cache hit rate {result.cache_hit_rate:.2f}", file=out)
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

    A ``--snapshot-dir`` holding a snapshot wins over ``--index``;
    either way the service runs at ``--shards K``.
    """
    from repro.service import QueryService

    sharding = _sharding_from_args(args)
    store = SnapshotStore(args.snapshot_dir, retain=args.retain) \
        if args.snapshot_dir else None
    if store is not None and store.latest_version() is not None:
        service = QueryService.from_snapshot(
            graph, args.snapshot_dir, update_params=update_params,
            sharding=sharding,
        )
        if not store.describe(service.index_version)["has_system"]:
            print("note: snapshot carries no linear system; estimating it once",
                  file=out)
        return service, (f"snapshot v{service.index_version} in "
                         f"{args.snapshot_dir} (shards: {service.num_shards})")
    if not args.index:
        raise CloudWalkerError(
            "update requires --index or a non-empty --snapshot-dir")
    print("note: plain index carries no linear system; estimating it once "
          "(snapshots avoid this)", file=out)
    service = QueryService.from_index_file(
        graph, args.index, update_params=update_params, sharding=sharding,
    )
    return service, f"{args.index} (shards: {service.num_shards})"


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
                  f"{service.graph.n_nodes} rows affected, "
                  f"{result.estimated_rows} rows re-estimated "
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


def _cmd_snapshot(args: argparse.Namespace, out) -> int:
    """``snapshot list|save|prune`` over a lineage of any shard count.

    ``list`` shows the committed versions and whether each carries the
    linear system; ``save`` writes an index file's diagonal as a new
    version with no system, so the first update estimates the system
    once; ``prune`` keeps the newest ``--retain`` versions.
    """
    store = SnapshotStore(args.dir, retain=args.retain)
    if args.action == "list":
        versions = store.versions()
        if not versions:
            print(f"no snapshots in {args.dir}", file=out)
            return 0
        print(f"{'version':<9} {'nodes':<9} {'edges':<10} {'system':<8} path",
              file=out)
        for version in versions:
            info = store.describe(version)
            system = "yes" if info["has_system"] else "no"
            print(f"{version:<9} {info['n_nodes']:<9} {info['n_edges']:<10} "
                  f"{system:<8} {store.index_path(version)}", file=out)
        return 0
    if args.action == "save":
        if not args.index:
            print("snapshot save requires --index", file=out)
            return 2
        version = store.save_snapshot(DiagonalIndex.load(args.index))
        print(f"snapshot v{version} written to {args.dir} "
              "(no linear system)", file=out)
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
                       help="execution model (default: %(default)s); "
                            "'broadcasting' writes the 'local' index byte "
                            "for byte, 'rdd' an estimate of its own")
    index.add_argument("--output", required=True, help="where to write the .npz index")

    validate = subparsers.add_parser("validate", help="validate an index against a graph")
    _add_graph_arguments(validate)
    validate.add_argument("--index", required=True)
    validate.add_argument("--spot-checks", dest="spot_checks", type=int, default=20)

    query = subparsers.add_parser("query", help="answer SimRank queries")
    query.add_argument("query_type", choices=["pair", "source", "topk"])
    _add_graph_arguments(query)
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
    replay.add_argument("--output",
                        help="append the per-scenario JSONL record here")

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
