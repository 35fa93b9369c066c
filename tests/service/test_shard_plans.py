"""The shard plan as a fixed grouping of index rows: counters and identity.

A service's :class:`~repro.graph.partition.ShardPlan` is made at build
and never changes; it decides which task estimates a row and which
shard's counters a node counts against.  Three layers:

* the **per-shard counters** in ``stats()["shards"]`` (routed and
  simulated sources per owning shard), which the spine benchmark reads;
* **identity under any plan**: a service under an explicit or random
  plan, with live updates interleaved, answers bitwise like a
  single-shard reference, and its snapshots restore under that plan;
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
from repro.core.diagonal import build_diagonal_index
from repro.core.index import SnapshotStore
from repro.graph import generators
from repro.graph.partition import ShardPlan
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


# --------------------------------------------------------------------------- #
# Per-shard counters
# --------------------------------------------------------------------------- #
class TestLoadAccounting:
    def test_cumulative_counters_sum_batch_timings(self, make_sharded):
        # A shard's cumulative sources_simulated grows exactly in the
        # batches that simulate one of its sources, by their number; the
        # last two batches are fully cached (score entries) and add
        # nothing.
        sharded = make_sharded(num_shards=3)
        rows = sharded.stats()["shards"]
        grew = []
        for batch, fresh in (([TopKQuery(3, k=5)], {3}), ([SourceQuery(7)], {7}),
                             ([TopKQuery(3, k=5), TopKQuery(9, k=2)], {9}),
                             ([SourceQuery(7)], set()), ([TopKQuery(9, k=2)], set())):
            sharded.run_batch(batch)
            previous, rows = rows, sharded.stats()["shards"]
            growth = [new["sources_simulated"] - old["sources_simulated"]
                      for old, new in zip(previous, rows)]
            assert growth == [sum(sharded.shard_of(source) == shard
                                  for source in fresh) for shard in range(3)]
            grew.append(sum(amount > 0 for amount in growth))
        assert grew[0] == 1 and grew[-2:] == [0, 0]

    @pytest.mark.parametrize("num_shards", [1, 3, 5, 8])
    def test_every_shard_has_one_counter_row(self, make_sharded, num_shards):
        # One row per shard, in shard order; the rows partition the nodes
        # and the simulated sources, and carry no ranking timer.
        sharded = make_sharded(num_shards=num_shards)
        sharded.run_batch(QUERIES)
        stats = sharded.stats()
        rows = stats["shards"]
        assert [row["shard"] for row in rows] == list(range(num_shards))
        assert sum(row["nodes"] for row in rows) == sharded.graph.n_nodes
        assert sum(row["sources_simulated"] for row in rows) \
            == stats["sources_simulated"] > 0
        for row in rows:
            assert "scatter_seconds" not in row and "rank_seconds" not in row

    def test_sources_routed_counts_cached_lookups(self, make_sharded):
        sharded = make_sharded(num_shards=3)
        sharded.run_batch([SourceQuery(5)])
        sharded.run_batch([SourceQuery(5)])  # cached; still routed
        shard = sharded.shard_of(5)
        row = sharded.stats()["shards"][shard]
        assert row["sources_routed"] == 2
        assert row["sources_simulated"] == 1

    def test_routed_sources_count_each_distinct_source_once(self, make_sharded):
        sharded = make_sharded(num_shards=2)
        assert sum(row["sources_routed"]
                   for row in sharded.stats()["shards"]) == 0
        sharded.run_batch([SourceQuery(5), PairQuery(3, 7), TopKQuery(5, k=3)])
        rows = sharded.stats()["shards"]
        # source 5 (asked twice in the batch), plus pair sources 3 and 7.
        assert sum(row["sources_routed"] for row in rows) == 3
        for node in (3, 5, 7):
            assert rows[sharded.shard_of(node)]["sources_routed"] >= 1


    def test_shard_rows_keep_their_keys(self, make_sharded):
        # The per-shard rows are what the spine benchmark reads
        # (``sources_routed``); they carry bookkeeping only.
        sharded = make_sharded(num_shards=3)
        sharded.run_batch(QUERIES)
        for row in sharded.stats()["shards"]:
            assert set(row) == {"shard", "nodes", "version", "edges_routed",
                                "sources_simulated", "sources_routed"}

    def test_stats_carry_no_plan_migration_keys(self, make_sharded):
        stats = make_sharded(num_shards=3).stats()
        for key in ("plan_generation", "observed_sources",
                    "rebalances_applied"):
            assert key not in stats


@pytest.mark.parametrize("strategy", ["hash", "contiguous", "partitioner"])
def test_new_nodes_route_by_the_fixed_plan(strategy):
    """An update that grows the graph routes its edges, and counts its
    new node, by the plan the service was built with; the plan itself
    never changes."""
    graph = generators.copying_model_graph(90, out_degree=4, seed=3)
    with QueryService.build(
        graph, STRESS_PARAMS,
        sharding=ShardingParams(num_shards=3, strategy=strategy),
    ) as sharded:
        plan = sharded.plan
        before = sharded.stats()["shards"]
        new_node = graph.n_nodes
        assert sharded.add_edges([(3, new_node), (new_node, 7)]) is not None
        after = sharded.stats()["shards"]
        assert sharded.plan is plan
        routed = [row["edges_routed"] - old["edges_routed"]
                  for old, row in zip(before, after)]
        expected = [0, 0, 0]
        for head in (new_node, 7):
            expected[plan.shard_of(head)] += 1
        assert routed == expected
        grown = [row["nodes"] - old["nodes"] for old, row in zip(before, after)]
        assert grown == [int(shard == plan.shard_of(new_node))
                         for shard in range(3)]
        assert sharded.run_batch([SourceQuery(new_node)])[0][new_node] == 1.0


# --------------------------------------------------------------------------- #
# Explicit plans: snapshots restore under the plan they were saved with
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("target", ["hash", "partitioner", "contiguous"])
def test_snapshot_under_explicit_plan_round_trips(tmp_path, target):
    # A service under an explicit plan persists that plan next to the
    # maintained system; a restart serves under it and answers like the
    # service it was saved from.
    graph = generators.copying_model_graph(90, out_degree=4, seed=3)
    queries = [PairQuery(3, 7), SourceQuery(12), TopKQuery(5, k=4)]
    plan = {
        "hash": ShardPlan(3, strategy="hash"),
        "partitioner": ShardPlan(
            3, strategy="partitioner",
            assignment=np.random.default_rng(1)
            .integers(0, 3, size=graph.n_nodes).astype(np.int64)),
        "contiguous": ShardPlan.contiguous(3, graph.n_nodes),
    }[target]
    with QueryService(
        graph, build_diagonal_index(graph, STRESS_PARAMS), STRESS_PARAMS,
        service_params=ServiceParams(cache_capacity=0), plan=plan,
    ) as sharded:
        sharded.add_edges([(1, 50), (2, 60)])
        expected = sharded.run_batch(queries)
        version, _directory = sharded.save_snapshot(tmp_path)
        updated_graph = sharded.graph
        system = sharded._walker.system
    _loaded_version, loaded, gathered = SnapshotStore(tmp_path).load()
    assert loaded.plan == plan
    assert (gathered - system).nnz == 0
    with QueryService.from_snapshot(
            updated_graph, tmp_path, params=STRESS_PARAMS,
            service_params=ServiceParams(cache_capacity=0)) as restored:
        assert restored.index_version == version
        assert restored.plan == plan
        assert_answers_equal(expected, restored.run_batch(queries))


# --------------------------------------------------------------------------- #
# Property tests: random graphs and plans, K in {1, 2, 3, 5, 6}
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("num_shards,seed", [
    (1, 5), (2, 11), (5, 29), (3, 41), (6, 37),
])
def test_random_plan_identity_on_random_graphs(num_shards, seed):
    """Under a random plan, before and after interleaved live updates,
    every answer equals a single-shard reference's."""
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
    random_plan = ShardPlan(
        num_shards, strategy="partitioner",
        assignment=rng.integers(0, num_shards, size=n).astype(np.int64),
    )

    reference = QueryService.build(graph, STRESS_PARAMS)
    with QueryService(
        graph, build_diagonal_index(graph, STRESS_PARAMS), STRESS_PARAMS,
        plan=random_plan,
    ) as sharded:
        assert_answers_equal(reference.run_batch(queries),
                             sharded.run_batch(queries))
        for edges in batches:
            reference.add_edges(edges)
            sharded.add_edges(edges)
            assert sharded.index_version == reference.index_version
            assert_answers_equal(reference.run_batch(queries),
                                 sharded.run_batch(queries))
        assert sharded.plan == random_plan
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
        sharding=ShardingParams(num_shards=3, strategy="contiguous",
                                backend="threads"),
        service_params=ServiceParams(serve_backend="threads",
                                     cache_capacity=0),
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
