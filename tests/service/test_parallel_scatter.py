"""Seeded randomized parallel-scatter identity tests.

The contract of the parallel serving path: for random graphs, any shard
count K in {1, 2, 5}, any serve backend in {serial, processes} and worker
counts from 1 to 8, every answer of the sharded
service — pair, source and top-k (including the score-descending /
node-id-ascending tie order of the canonical ranking) — is
bitwise-identical to the single-shard :class:`~repro.service.QueryService`,
before *and* after random edge batches.

These are deterministic seeded-random sweeps (``numpy.random.default_rng``
with fixed seeds) rather than hypothesis properties, so the expensive
``processes`` configurations run a bounded, reproducible number of trials.

Toy batches carry far fewer walker-steps than
:data:`repro.service.sharded.SCATTER_GRAIN`, so every test here lowers the
grain to one walker-step: each batch then crosses to the pool whenever the
pool has more than one worker, which is the route under test.  The
``"serial-pool"`` rows run the same route at serial cost: serial backends
are patched to split work as a pool of that many workers would, running
the runs back to back in process.
"""

import numpy as np
import pytest

from repro.config import ServiceParams, ShardingParams, SimRankParams
from repro.engine.executor import SerialBackend
from repro.graph.digraph import DiGraph
from repro.service import (
    PairQuery,
    QueryService,
    SourceQuery,
    TopKQuery,
)

#: backends x workers grid; processes runs fewer trials.
BACKEND_GRID = [
    ("serial", 1), ("serial", 4),
    ("serial-pool", 2), ("serial-pool", 4), ("serial-pool", 8),
    ("processes", 1), ("processes", 2), ("processes", 4),
]
SHARD_COUNTS = (1, 2, 5)
K_VALUES = (1, 2, 5)


@pytest.fixture(autouse=True)
def _every_batch_crosses(monkeypatch):
    import repro.service.sharded as sharded_module

    monkeypatch.setattr(sharded_module, "SCATTER_GRAIN", 1)


def _random_graph(rng):
    n_nodes = int(rng.integers(6, 18))
    n_edges = int(rng.integers(0, 4 * n_nodes))
    edges = [(int(u), int(v))
             for u, v in rng.integers(0, n_nodes, size=(n_edges, 2))]
    return DiGraph(n_nodes, edges)


def _random_params(rng):
    return SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                         index_walkers=12, query_walkers=30,
                         seed=int(rng.integers(10_000)))


def _random_queries(rng, n_nodes):
    queries = []
    for _ in range(2):
        queries.append(PairQuery(int(rng.integers(n_nodes)),
                                 int(rng.integers(n_nodes))))
        queries.append(SourceQuery(int(rng.integers(n_nodes))))
    for k in K_VALUES:
        queries.append(TopKQuery(int(rng.integers(n_nodes)), k=k))
    return queries


def _random_edges(rng, n_nodes):
    # Endpoints up to n_nodes: may duplicate existing edges (a no-op) or
    # grow the graph by one node — both paths must stay identical.
    count = int(rng.integers(1, 4))
    return [(int(rng.integers(n_nodes + 1)), int(rng.integers(n_nodes + 1)))
            for _ in range(count)]


def _assert_equal(reference, answers):
    assert answers.index_version == reference.index_version
    for left, right in zip(reference, answers):
        if isinstance(left, float):
            assert left == right
        elif isinstance(left, list):
            assert left == right
        else:
            assert np.array_equal(left, right)


def _assert_canonical_order(answers):
    """Every top-k list obeys the score-desc / node-id-asc total order."""
    for answer in answers:
        if not isinstance(answer, list):
            continue
        keys = [(-score, node) for node, score in answer]
        assert keys == sorted(keys), f"tie order violated: {answer}"


def _serve_on(backend, workers, monkeypatch):
    """The ``serve_backend`` to configure for a grid row ``backend``."""
    if backend != "serial-pool":
        return backend
    monkeypatch.setattr(SerialBackend, "max_workers", workers)
    return "serial"


@pytest.mark.parametrize("backend,workers", BACKEND_GRID)
def test_parallel_scatter_bitwise_identical_to_single_shard(backend, workers,
                                                            monkeypatch):
    trials = 1 if backend == "processes" else 3
    rng = np.random.default_rng(20_150_731 + 13 * workers)
    for _trial in range(trials):
        graph = _random_graph(rng)
        params = _random_params(rng)
        queries = _random_queries(rng, graph.n_nodes)
        edges = _random_edges(rng, graph.n_nodes)
        for num_shards in SHARD_COUNTS:
            single = QueryService.build(graph, params)
            with QueryService.build(
                graph, params,
                service_params=ServiceParams(
                    serve_backend=_serve_on(backend, workers, monkeypatch),
                    serve_workers=workers,
                ),
                sharding=ShardingParams(num_shards=num_shards),
            ) as sharded:
                reference = single.run_batch(queries)
                answers = sharded.run_batch(queries)
                _assert_equal(reference, answers)
                _assert_canonical_order(answers)
                # Second pass serves from the per-shard caches.
                _assert_equal(single.run_batch(queries),
                              sharded.run_batch(queries))

                single_result = single.add_edges(edges)
                sharded_result = sharded.add_edges(edges)
                assert (single_result is None) == (sharded_result is None)
                after_reference = single.run_batch(queries)
                after = sharded.run_batch(queries)
                _assert_equal(after_reference, after)
                _assert_canonical_order(after)


def _count_scatters(monkeypatch):
    """Record ``(kind, tasks)`` of every ``run_shard_tasks`` call the sharded
    service makes, the kind read from the task function's name."""
    import repro.service.sharded as sharded_module

    scatters = []
    real = sharded_module.run_shard_tasks

    def counting(backend_, tasks):
        name = next(iter(tasks.values())).func.__name__
        scatters.append(("simulate" if "simulate" in name else "rank",
                         len(tasks)))
        return real(backend_, tasks)

    monkeypatch.setattr(sharded_module, "run_shard_tasks", counting)
    return scatters


@pytest.mark.parametrize("backend", ["serial", "serial-pool", "processes"])
def test_misses_of_every_shard_simulate_in_one_scatter(backend, monkeypatch):
    """A batch's misses, whichever rows they are, simulate with one
    ``run_shard_tasks`` call of at most ``min(workers, misses)`` runs — one
    on ``serial`` — and answers like the single-shard service."""
    from repro.graph import generators

    graph = generators.copying_model_graph(90, out_degree=4, seed=11)
    params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=2,
                           index_walkers=20, query_walkers=60, seed=8)
    queries = [SourceQuery(node) for node in range(0, 90, 9)] + [
        PairQuery(1, 2), TopKQuery(4, k=6)]
    scatters = _count_scatters(monkeypatch)
    with QueryService.build(
        graph, params,
        service_params=ServiceParams(
            serve_backend=_serve_on(backend, 2, monkeypatch), serve_workers=2),
        sharding=ShardingParams(num_shards=3),
    ) as sharded:
        misses = {source for query in queries
                  for source in (query.source, getattr(query, "target", None))
                  if source is not None}
        answers = sharded.run_batch(queries)
        simulate = [tasks for kind, tasks in scatters if kind == "simulate"]
        assert len(simulate) == 1
        assert simulate[0] == (1 if backend == "serial" else min(2, len(misses)))
        assert sharded.stats()["sources_simulated"] == len(misses)
    _assert_equal(QueryService.build(graph, params).run_batch(queries), answers)


@pytest.mark.parametrize("backend", ["serial", "serial-pool", "processes"])
def test_batch_scores_each_source_once_and_scatters_once(backend,
                                                         monkeypatch):
    """A batch that repeats sources answers like one-query batches, from at
    most one scatter (simulate) however many top-k queries it has: ranking
    runs inline, over each source's support."""
    from repro.graph import generators

    graph = generators.copying_model_graph(150, out_degree=5, seed=3)
    params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=2,
                           index_walkers=20, query_walkers=80, seed=5)
    queries = [
        TopKQuery(3, k=5), SourceQuery(3), TopKQuery(3, k=5),
        TopKQuery(3, k=9), TopKQuery(40, k=5), PairQuery(3, 40),
        SourceQuery(3), SourceQuery(77), TopKQuery(77, k=400),
        TopKQuery(5, k=1), TopKQuery(6, k=2), TopKQuery(7, k=3),
    ]
    scatters = _count_scatters(monkeypatch)
    service_params = ServiceParams(
        serve_backend=_serve_on(backend, 2, monkeypatch), serve_workers=2)
    with QueryService.build(
        graph, params, service_params=service_params,
        sharding=ShardingParams(num_shards=3),
    ) as sharded, QueryService.build(
        graph, params, service_params=service_params,
        sharding=ShardingParams(num_shards=3),
    ) as one_at_a_time:
        for _pass in ("cold", "cached"):
            scatters.clear()
            answers = sharded.run_batch(queries)
            # Cold: one simulate scatter of one run per serve worker (one on
            # serial); cached: every ranking is a cache entry, so nothing
            # scatters.
            simulate_runs = 1 if backend == "serial" else 2
            assert scatters == ([("simulate", simulate_runs)]
                                if _pass == "cold" else [])
            expected = [one_at_a_time.run_batch([query])[0]
                        for query in queries]
            for left, right in zip(expected, answers):
                if isinstance(left, np.ndarray):
                    assert left.tobytes() == right.tobytes()
                else:
                    assert left == right
        stats = sharded.stats()
        assert (stats["topk_queries"], stats["source_queries"],
                stats["pair_queries"]) == (16, 6, 2)    # queries, not work
    # Repeated queries get equal but distinct objects that own their memory.
    assert answers[0] == answers[2] and answers[0] is not answers[2]
    assert not np.shares_memory(answers[1], answers[6])
    assert all(answers[i].base is None for i in (1, 6, 7))
