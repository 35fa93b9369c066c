"""The shard count as a row-task count: identity, restarts and atomicity.

``ShardingParams.num_shards`` (``K``) only splits the rows a build or an
update estimates into tasks; nothing about the split is kept.  Three
layers:

* **identity at any K**: a service at any ``K``, with live updates
  interleaved, answers bitwise like a single-shard reference;
* **restarts at any K**: a lineage saved at one ``K`` continues at
  another, byte-equal to a from-scratch build, in the same directory;
* **atomic updates**: concurrent query threads racing live updates see,
  at every version, exactly the reference's answers at that version.
"""

import threading

import numpy as np
import pytest

from repro.config import (
    ServiceParams,
    ShardingParams,
    SimRankParams,
)
from repro.core.index import SnapshotStore
from repro.graph import generators
from repro.service import (
    PairQuery,
    QueryService,
    SourceQuery,
    TopKQuery,
)

QUERIES = [
    PairQuery(3, 7), PairQuery(7, 3), PairQuery(9, 9), SourceQuery(12),
    TopKQuery(3, k=6), TopKQuery(50, k=10_000), SourceQuery(3),
]

STRESS_PARAMS = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                              index_walkers=15, query_walkers=40, seed=17)


def assert_answers_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        if isinstance(a, float):
            assert a == b
        elif isinstance(a, list):
            assert a == b
        else:
            assert np.array_equal(a, b)


@pytest.mark.parametrize("num_shards", [1, 3])
def test_stats_carry_no_plan_keys(make_sharded, num_shards):
    stats = make_sharded(num_shards=num_shards).stats()
    assert stats["num_shards"] == num_shards
    for key in ("shards", "shard_strategy", "plan_generation",
                "observed_sources", "rebalances_applied"):
        assert key not in stats


@pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 8])
def test_new_nodes_are_served_at_any_shard_count(num_shards):
    """An update that grows the graph serves the new node like a
    single-shard reference does."""
    graph = generators.copying_model_graph(90, out_degree=4, seed=3)
    new_node = graph.n_nodes
    edges = [(3, new_node), (new_node, 7)]
    queries = [SourceQuery(new_node), TopKQuery(7, k=5), PairQuery(3, 7)]
    with QueryService.build(graph, STRESS_PARAMS) as reference, \
            QueryService.build(
                graph, STRESS_PARAMS,
                sharding=ShardingParams(num_shards=num_shards)) as sharded:
        reference.add_edges(edges)
        assert sharded.add_edges(edges) is not None
        answers = sharded.run_batch(queries)
        assert answers[0][new_node] == 1.0
        assert_answers_equal(reference.run_batch(queries), answers)


@pytest.mark.parametrize("num_shards", [1, 3, 5, 8])
def test_cache_holds_capacity_times_k_entries(make_sharded, num_shards):
    """``K`` still sizes the cache: ``cache_capacity × K`` entries per
    kind, whatever sources the batch touches."""
    service = make_sharded(num_shards=num_shards, cache_capacity=2)
    service.run_batch([SourceQuery(node) for node in range(40)])
    stats = service.stats()
    assert stats["num_shards"] == num_shards
    assert stats["cache_capacity"] == 2 * num_shards
    assert 0 < stats["cache_size"] <= 2 * num_shards


# --------------------------------------------------------------------------- #
# A lineage restarts at any K
# --------------------------------------------------------------------------- #
def _bytes(answers):
    return [np.asarray(answer).tobytes() if isinstance(answer, np.ndarray)
            else repr(answer) for answer in answers]


@pytest.mark.parametrize("restart_shards", [1, 2, 3, 4, 8])
def test_lineage_restarts_at_any_shard_count(tmp_path, restart_shards):
    """A K = 4 lineage, saved after one update, restarts at another K:
    answers, system and diagonal byte-equal to a from-scratch build on the
    updated graph, the version sequence continues, and the next save lands
    in the same directory."""
    graph = generators.copying_model_graph(90, out_degree=4, seed=3)
    queries = [PairQuery(3, 7), SourceQuery(12), TopKQuery(5, k=4)]
    first, second = [(1, 50), (2, 60)], [(4, 70)]
    with QueryService.build(graph, STRESS_PARAMS,
                            sharding=ShardingParams(num_shards=4)) as writer:
        writer.add_edges(first)
        version, _directory = writer.save_snapshot(tmp_path)
        updated = writer.graph
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"index-v{version:08d}.npz", f"system-v{version:08d}.npz"]

    sharding = ShardingParams(num_shards=restart_shards)
    with QueryService.from_snapshot(updated, tmp_path, params=STRESS_PARAMS,
                                    sharding=sharding) as restored, \
            QueryService.build(updated, STRESS_PARAMS) as fresh:
        assert restored.num_shards == restart_shards
        assert restored.index_version == version
        assert restored.index.diagonal.tobytes() == \
            fresh.index.diagonal.tobytes()
        assert _bytes(restored.run_batch(queries)) == \
            _bytes(fresh.run_batch(queries))
        restored.add_edges(second)
        fresh.add_edges(second)
        assert restored.index_version == version + 1
        for name in ("indptr", "indices", "data"):
            assert getattr(restored._walker.system, name).tobytes() == \
                getattr(fresh._walker.system, name).tobytes()
        assert _bytes(restored.run_batch(queries)) == \
            _bytes(fresh.run_batch(queries))
        assert restored.save_snapshot(tmp_path)[0] == version + 1
    assert SnapshotStore(tmp_path).versions() == [version, version + 1]


# --------------------------------------------------------------------------- #
# Property tests: random graphs, K in {1, 2, 3, 4, 5, 6, 8, 200}
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("num_shards,seed", [
    (1, 5), (2, 11), (5, 29), (3, 41), (6, 37), (4, 13), (8, 23), (200, 3),
])
def test_any_shard_count_answers_like_one(num_shards, seed):
    """At any K, before and after interleaved live updates, every answer
    equals a single-shard reference's."""
    rng = np.random.default_rng(seed)
    graph = generators.copying_model_graph(
        80 + int(rng.integers(0, 40)), out_degree=4,
        copy_prob=float(rng.uniform(0.3, 0.7)), seed=seed,
    )
    n = graph.n_nodes
    queries = [PairQuery(3, 7), SourceQuery(int(rng.integers(0, n))),
               TopKQuery(int(rng.integers(0, n)), k=6), PairQuery(9, 9)]
    batches = [[(int(rng.integers(0, n)), int(rng.integers(0, n)))
                for _ in range(3)] for _ in range(2)]

    reference = QueryService.build(graph, STRESS_PARAMS)
    with QueryService(
        graph, reference.index, STRESS_PARAMS,
        sharding=ShardingParams(num_shards=num_shards),
    ) as sharded:
        assert_answers_equal(reference.run_batch(queries),
                             sharded.run_batch(queries))
        for edges in batches:
            reference.add_edges(edges)
            sharded.add_edges(edges)
            assert sharded.index_version == reference.index_version
            assert_answers_equal(reference.run_batch(queries),
                                 sharded.run_batch(queries))
    reference.close()


def test_queries_during_updates_are_never_torn():
    """Concurrent query threads racing live updates observe, at every
    version, bitwise the single-shard reference's answers at that version
    — the swap-in of an update is atomic."""
    graph = generators.copying_model_graph(90, out_degree=4, seed=3)
    queries = [PairQuery(3, 7), SourceQuery(12), TopKQuery(5, k=4)]
    edges = [(u, v) for u, v in [(1, 50), (2, 60), (4, 70), (6, 80)]
             if not graph.has_edge(u, v)]
    expected = {}
    with QueryService.build(graph, STRESS_PARAMS) as reference:
        expected[reference.index_version] = reference.run_batch(queries)
        for edge in edges:
            reference.add_edges([edge])
            expected[reference.index_version] = reference.run_batch(queries)

    errors = []
    seen = []
    stop = threading.Event()

    with QueryService.build(
        graph, STRESS_PARAMS,
        sharding=ShardingParams(num_shards=3),
        service_params=ServiceParams(cache_capacity=0),
    ) as sharded:

        def hammer():
            try:
                versions = []
                while not stop.is_set():
                    answers = sharded.run_batch(queries)
                    assert_answers_equal(expected[answers.index_version],
                                         answers)
                    versions.append(answers.index_version)
                assert versions == sorted(versions), "version went backwards"
                seen.extend(versions)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for edge in edges:
                assert sharded.add_edges([edge]) is not None
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors
        assert sharded.index_version == max(expected)
        assert seen and set(seen) <= set(expected)
