"""Workload-adaptive rebalancing: planner, cost model, accounting, migration.

Four layers, bottom-up:

* the **LPT planner** (:func:`repro.graph.partition.load_balanced_plan`)
  and per-shard load aggregation (:func:`~repro.graph.partition.shard_loads`);
* the **rebalance decision** (:func:`repro.graph.partition.evaluate_rebalance`) —
  makespan ratios, the improvement threshold, the representativeness gate;
* the **load accounting** the planner feeds on (routed sources per node
  and shard) and the per-shard ``sources_simulated`` monitor row;
* **live plan migration** (:meth:`~repro.service.QueryService.
  rebalance`): the headline invariant is that every answer — before,
  *during* (concurrent query threads) and after a migration, with live
  updates interleaved — is bitwise-identical to a never-migrated
  single-shard reference.  A rebalance moves work, never results.
"""

import threading

import numpy as np
import pytest

from repro.config import (
    RebalanceParams,
    ServiceParams,
    ShardingParams,
    SimRankParams,
)
from repro.core.index import SnapshotStore
from repro.errors import CloudWalkerError, ConfigurationError
from repro.graph import generators
from repro.graph.partition import (
    ShardPlan,
    evaluate_rebalance,
    load_balanced_plan,
    shard_loads,
)
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
# Planner
# --------------------------------------------------------------------------- #
class TestLoadBalancedPlan:
    def test_distributes_uniform_weights_evenly(self):
        plan = load_balanced_plan(4, np.ones(20))
        loads = shard_loads(plan, 20, np.ones(20))
        assert loads.tolist() == [5.0, 5.0, 5.0, 5.0]

    def test_splits_hot_nodes_across_shards(self):
        # Three hot nodes must land on three different shards: LPT places
        # the heaviest items first, each on the least-loaded shard.
        weights = np.ones(30)
        weights[[4, 11, 23]] = 100.0
        plan = load_balanced_plan(3, weights)
        assignment = plan.assign(30)
        assert len({assignment[4], assignment[11], assignment[23]}) == 3
        loads = shard_loads(plan, 30, weights)
        assert loads.max() / loads.min() < 1.2

    def test_deterministic_under_ties(self):
        weights = np.ones(17)
        first = load_balanced_plan(5, weights).assign(17)
        second = load_balanced_plan(5, weights).assign(17)
        assert np.array_equal(first, second)

    def test_beats_contiguous_on_skew(self):
        # The scenario the tentpole exists for: a contiguous plan whose
        # first shard owns every hot node.
        weights = np.ones(40)
        weights[:5] = 50.0
        contiguous = ShardPlan(4, strategy="contiguous", n_nodes=40)
        balanced = load_balanced_plan(4, weights)
        before = shard_loads(contiguous, 40, weights).max()
        after = shard_loads(balanced, 40, weights).max()
        assert before / after > 2.0

    def test_assignment_extends_beyond_observed_range(self):
        # Nodes beyond the weight vector (added live, later) still route.
        plan = load_balanced_plan(3, np.ones(10))
        assignment = plan.assign(25)
        assert len(assignment) == 25
        assert set(assignment.tolist()) <= {0, 1, 2}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            load_balanced_plan(0, np.ones(5))
        with pytest.raises(ConfigurationError):
            load_balanced_plan(2, np.array([]))
        with pytest.raises(ConfigurationError):
            load_balanced_plan(2, np.array([1.0, -2.0]))
        with pytest.raises(ConfigurationError):
            load_balanced_plan(2, np.array([1.0, np.inf]))
        with pytest.raises(ConfigurationError):
            shard_loads(ShardPlan(2), 5, np.ones(4))


# --------------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------------- #
class TestEvaluateRebalance:
    def test_improvement_is_makespan_ratio(self):
        estimate = evaluate_rebalance([8.0, 2.0], [5.0, 5.0],
                                      improvement_threshold=1.2)
        assert estimate.predicted_improvement == pytest.approx(1.6)
        assert estimate.should_rebalance

    def test_threshold_gates_migration(self):
        estimate = evaluate_rebalance([6.0, 5.0], [5.5, 5.5],
                                      improvement_threshold=1.5)
        assert not estimate.should_rebalance
        assert "below" in estimate.reason

    def test_min_total_load_gates_unrepresentative_counters(self):
        estimate = evaluate_rebalance([3.0, 0.0], [1.5, 1.5],
                                      improvement_threshold=1.2,
                                      min_total_load=100.0)
        assert not estimate.should_rebalance
        assert "representative" in estimate.reason

    def test_zero_proposed_makespan_is_no_improvement(self):
        estimate = evaluate_rebalance([0.0, 0.0], [0.0, 0.0])
        assert estimate.predicted_improvement == 1.0
        assert not estimate.should_rebalance

    def test_to_dict_round_trips_the_decision(self):
        payload = evaluate_rebalance([8.0, 2.0], [5.0, 5.0]).to_dict()
        assert payload["should_rebalance"] is True
        assert payload["current_makespan"] == 8.0
        assert payload["proposed_loads"] == [5.0, 5.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            evaluate_rebalance([1.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            evaluate_rebalance([], [])
        with pytest.raises(ConfigurationError):
            evaluate_rebalance([1.0], [1.0], improvement_threshold=0.5)


# --------------------------------------------------------------------------- #
# Load accounting (the planner's input; satellite-4 regression pins)
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

    def test_observed_sources_and_generation_in_stats(self, make_sharded):
        sharded = make_sharded(num_shards=2)
        stats = sharded.stats()
        assert stats["plan_generation"] == 1
        assert stats["observed_sources"] == 0.0
        sharded.run_batch([SourceQuery(5), PairQuery(3, 7)])
        stats = sharded.stats()
        # source 5, plus pair sources 3 and 7.
        assert stats["observed_sources"] == 3.0


# --------------------------------------------------------------------------- #
# Migration mechanics
# --------------------------------------------------------------------------- #
class TestMigration:
    def test_forced_migration_preserves_answers(self, make_service,
                                                make_sharded):
        single = make_service()
        sharded = make_sharded(num_shards=3, strategy="contiguous")
        reference = single.run_batch(QUERIES)
        assert_answers_equal(reference, sharded.run_batch(QUERIES))
        report = sharded.rebalance(force=True)
        assert report["applied"]
        assert report["plan_generation"] == 2
        assert_answers_equal(reference, sharded.run_batch(QUERIES))

    def test_migration_bumps_version_and_counters(self, make_sharded):
        sharded = make_sharded(num_shards=3, strategy="contiguous")
        before = sharded.index_version
        sharded.run_batch([SourceQuery(3)])
        report = sharded.rebalance(force=True)
        assert report["applied"]
        assert sharded.index_version == before + 1
        stats = sharded.stats()
        assert stats["rebalances_applied"] == 1
        assert stats["plan_generation"] == 2
        assert all(version == sharded.index_version
                   for version in sharded.shard_versions)

    def test_migration_keeps_the_cache(self, make_sharded):
        sharded = make_sharded(num_shards=3, strategy="contiguous")
        answers = sharded.run_batch(QUERIES)
        before = sharded.stats()
        assert before["cache_size"] > 0
        assert sharded.rebalance(force=True)["applied"]
        after = sharded.stats()
        assert after["cache_size"] == before["cache_size"]
        assert after["cache_score_entries"] == before["cache_score_entries"]
        assert_answers_equal(answers, sharded.run_batch(QUERIES))
        assert sharded.stats()["sources_simulated"] == before["sources_simulated"]

    def test_identical_proposal_is_a_no_op(self, make_sharded):
        sharded = make_sharded(num_shards=3, strategy="contiguous")
        report = sharded.rebalance(
            plan=ShardPlan(3, strategy="contiguous", n_nodes=120), force=True)
        assert not report["applied"]
        assert "equals the serving plan" in report["reason"]
        assert sharded.stats()["rebalances_applied"] == 0

    def test_shard_count_change_is_rejected(self, make_sharded):
        sharded = make_sharded(num_shards=3)
        with pytest.raises(CloudWalkerError, match="shard count"):
            sharded.rebalance(plan=ShardPlan(4), force=True)

    def test_threshold_gates_unforced_migration(self, make_sharded):
        # Uniform observed load on a hash plan: no improvement available,
        # so an unforced rebalance must decline.
        sharded = make_sharded(
            num_shards=2,
            rebalance=RebalanceParams(min_sources=0,
                                      improvement_threshold=1.2),
        )
        sharded.run_batch([SourceQuery(i) for i in range(20)])
        report = sharded.rebalance()
        assert not report["applied"]

    def test_min_sources_gates_cold_service(self, make_sharded):
        sharded = make_sharded(
            num_shards=2,
            rebalance=RebalanceParams(min_sources=1_000),
        )
        sharded.run_batch([SourceQuery(3)])
        report = sharded.maybe_rebalance()
        assert not report["applied"]

    def test_skewed_load_triggers_unforced_migration(self, make_service,
                                                     make_sharded):
        # Hammer sources owned by one contiguous shard; the planner must
        # clear the threshold on observed load alone, and the periodic
        # auto-rebalance tick must apply the migration without changing
        # an answer.
        sharded = make_sharded(
            num_shards=3, strategy="contiguous",
            rebalance=RebalanceParams(min_sources=0, cold_weight=0.01,
                                      improvement_threshold=1.5),
        )
        hot = [SourceQuery(i) for i in range(10)] + [
            PairQuery(0, 1), TopKQuery(2, k=6)]
        for _ in range(4):
            before = sharded.run_batch(hot)
        proposal, estimate = sharded.plan_rebalance()
        assert estimate.should_rebalance, estimate.reason
        report = sharded.maybe_rebalance()
        assert report["applied"]
        assert sharded.plan.strategy == "partitioner"
        reference = make_service().run_batch(hot)
        assert_answers_equal(reference, before)
        assert_answers_equal(reference, sharded.run_batch(hot))

    def test_migration_after_live_update(self, make_service, make_sharded):
        single = make_service()
        sharded = make_sharded(num_shards=3, strategy="contiguous")
        edges = [(1, 50), (2, 60)]
        single.add_edges(edges)
        sharded.add_edges(edges)
        sharded.rebalance(force=True)
        assert_answers_equal(single.run_batch(QUERIES),
                             sharded.run_batch(QUERIES))

    def test_update_after_migration(self, make_service, make_sharded):
        single = make_service()
        sharded = make_sharded(num_shards=3, strategy="contiguous")
        sharded.run_batch(QUERIES)
        sharded.rebalance(force=True)
        edges = [(4, 70), (5, 80)]
        single.add_edges(edges)
        sharded.add_edges(edges)
        assert_answers_equal(single.run_batch(QUERIES),
                             sharded.run_batch(QUERIES))

    def test_deferred_updates_drain_before_migration(self, make_service,
                                                     make_sharded):
        # A migration replaces the mutator, so edges still queued in it
        # must be applied first — never dropped.
        single = make_service()
        sharded = make_sharded(num_shards=3, strategy="contiguous")
        edges = [(7, 90), (8, 95)]
        single.add_edges(edges)
        sharded.add_edges(edges, defer=True)
        assert sharded.pending_updates == 2
        report = sharded.rebalance(force=True)
        assert report["applied"]
        assert sharded.pending_updates == 0
        assert_answers_equal(single.run_batch(QUERIES),
                             sharded.run_batch(QUERIES))

    def test_repeated_migrations_stay_identical(self, make_service,
                                                make_sharded):
        single = make_service()
        sharded = make_sharded(num_shards=3, strategy="contiguous")
        reference = single.run_batch(QUERIES)
        generation = 1
        for plan in (load_balanced_plan(3, np.arange(120, dtype=float) + 1.0),
                     ShardPlan(3, strategy="hash"),
                     ShardPlan(3, strategy="contiguous", n_nodes=120)):
            report = sharded.rebalance(plan=plan, force=True)
            assert report["applied"]
            generation += 1
            assert report["plan_generation"] == generation
            assert_answers_equal(reference, sharded.run_batch(QUERIES))

    def test_node_loads_survive_migration(self, make_sharded):
        sharded = make_sharded(
            num_shards=3, strategy="contiguous",
            rebalance=RebalanceParams(min_sources=0),
        )
        # Two batches: within a batch the planner dedups sources, so the
        # same source queried twice in one batch routes (and counts) once.
        sharded.run_batch([SourceQuery(3)])
        sharded.run_batch([SourceQuery(3)])
        sharded.rebalance(force=True)
        # Observed per-node load is plan-independent state: the planner
        # keeps learning across migrations.
        assert sharded.stats()["observed_sources"] == 2.0

    @pytest.mark.parametrize("target", ["hash", "partitioner", "balanced"])
    def test_snapshot_after_migration_round_trips(self, tmp_path, target):
        # The migrated lineage persists the new plan's shard blocks; they
        # gather to the maintained system and a restart under that plan
        # answers like the service it was saved from.
        graph = generators.copying_model_graph(90, out_degree=4, seed=3)
        queries = [PairQuery(3, 7), SourceQuery(12), TopKQuery(5, k=4)]
        plan = {
            "hash": ShardPlan(3, strategy="hash"),
            "partitioner": ShardPlan(
                3, strategy="partitioner",
                assignment=np.random.default_rng(1)
                .integers(0, 3, size=graph.n_nodes).astype(np.int64)),
            "balanced": load_balanced_plan(
                3, np.arange(graph.n_nodes, dtype=float) + 1.0),
        }[target]
        with QueryService.build(
            graph, STRESS_PARAMS,
            service_params=ServiceParams(cache_capacity=0),
            sharding=ShardingParams(num_shards=3, strategy="contiguous"),
        ) as sharded:
            assert sharded.rebalance(plan=plan, force=True)["applied"]
            sharded.add_edges([(1, 50), (2, 60)])
            expected = sharded.run_batch(queries)
            version, _directory = sharded.save_snapshot(tmp_path)
            updated_graph = sharded.graph
            system = sharded._walker.system
        _loaded_version, loaded, gathered = \
            SnapshotStore(tmp_path).load()
        assert loaded.plan == plan
        assert (gathered - system).nnz == 0
        with QueryService.from_snapshot(
                updated_graph, tmp_path, params=STRESS_PARAMS,
                service_params=ServiceParams(cache_capacity=0)) as restored:
            assert restored.index_version == version
            assert restored.plan == plan
            assert_answers_equal(expected, restored.run_batch(queries))


# --------------------------------------------------------------------------- #
# Property tests: random graphs and plans, K in {1, 2, 5}
# --------------------------------------------------------------------------- #
STRESS_PARAMS = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                              index_walkers=15, query_walkers=40, seed=17)


@pytest.mark.parametrize("num_shards,seed", [
    (1, 5), (2, 11), (5, 29), (3, 41), (6, 37),
])
def test_migration_identity_on_random_graphs(num_shards, seed):
    """Before / after migration, with interleaved live updates, every
    answer equals a never-migrated single-shard reference's."""
    rng = np.random.default_rng(seed)
    graph = generators.copying_model_graph(
        80 + int(rng.integers(0, 40)), out_degree=4,
        copy_prob=float(rng.uniform(0.3, 0.7)), seed=seed,
    )
    n = graph.n_nodes
    queries = [PairQuery(3, 7), SourceQuery(int(rng.integers(0, n))),
               TopKQuery(int(rng.integers(0, n)), k=6), PairQuery(9, 9)]
    edges = [(int(rng.integers(0, n)), int(rng.integers(0, n)))
             for _ in range(3)]

    reference = QueryService.build(graph, STRESS_PARAMS)
    with QueryService.build(
        graph, STRESS_PARAMS,
        sharding=ShardingParams(num_shards=num_shards, strategy="contiguous"),
        rebalance_params=RebalanceParams(min_sources=0),
    ) as sharded:
        assert_answers_equal(reference.run_batch(queries),
                             sharded.run_batch(queries))
        # Migrate to a random plan, then to the balanced one.
        random_plan = ShardPlan(
            num_shards, strategy="partitioner",
            assignment=rng.integers(0, num_shards, size=n).astype(np.int64),
        )
        sharded.rebalance(plan=random_plan, force=True)
        assert_answers_equal(reference.run_batch(queries),
                             sharded.run_batch(queries))
        reference.add_edges(edges)
        sharded.add_edges(edges)
        assert_answers_equal(reference.run_batch(queries),
                             sharded.run_batch(queries))
        sharded.rebalance(force=True)
        assert_answers_equal(reference.run_batch(queries),
                             sharded.run_batch(queries))
    reference.close()


def test_queries_during_migration_are_never_torn():
    """Concurrent query threads racing a live migration observe bitwise
    single-shard answers throughout — the plan flip is atomic."""
    graph = generators.copying_model_graph(90, out_degree=4, seed=3)
    queries = [PairQuery(3, 7), SourceQuery(12), TopKQuery(5, k=4)]
    reference = QueryService.build(graph, STRESS_PARAMS)
    expected = reference.run_batch(queries)
    reference.close()

    errors = []
    stop = threading.Event()

    with QueryService.build(
        graph, STRESS_PARAMS,
        sharding=ShardingParams(num_shards=3, strategy="contiguous",
                                backend="threads"),
        service_params=ServiceParams(serve_backend="threads",
                                     cache_capacity=0),
        rebalance_params=RebalanceParams(min_sources=0),
    ) as sharded:

        def hammer():
            try:
                versions = []
                while not stop.is_set():
                    answers = sharded.run_batch(queries)
                    assert_answers_equal(expected, answers)
                    versions.append(answers.index_version)
                assert versions == sorted(versions), "version went backwards"
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            plans = [
                ShardPlan(3, strategy="partitioner",
                          assignment=np.random.default_rng(step)
                          .integers(0, 3, size=graph.n_nodes).astype(np.int64))
                for step in range(4)
            ]
            for plan in plans:
                report = sharded.rebalance(plan=plan, force=True)
                assert report["applied"]
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors
        assert sharded.stats()["rebalances_applied"] == 4
