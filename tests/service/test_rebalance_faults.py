"""Fault injection for plan migration and its persistence.

A migration has three failure surfaces, and each must leave the system
serving correct answers:

* a **walker build dying mid-migration** (adopting the system under the
  new plan fails) must leave the service byte-for-byte on the old plan —
  the new walker is built entirely before anything served changes;
* a **crash between the new plan record and the index file** that commits
  it leaves debris on disk; the store must roll back to the previous
  version *under its own plan* on the next load, and a subsequent save
  must replace the debris, never adopt it;
* a **corrupt plan record** excludes its version (rollback), while a
  lineage whose every plan record is corrupt is refused loudly — its
  identity is gone, silence would serve garbage.

Plus the resource invariant: a failed migration followed by ``close()``
leaves no resident shared-memory segments behind.
"""

import json
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.core.index as index_module
import repro.service.sharded as sharded_module
from repro.config import (
    RebalanceParams,
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.core.index import ShardedIndex, SnapshotStore
from repro.core.sharding import ShardedIncrementalWalker
from repro.errors import CloudWalkerError
from repro.graph import generators
from repro.graph.partition import ShardPlan, load_balanced_plan
from repro.service import (
    PairQuery,
    QueryService,
    SourceQuery,
    TopKQuery,
)

PARAMS = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=3,
                       index_walkers=30, query_walkers=80, seed=11)
QUERIES = [PairQuery(3, 7), SourceQuery(12), TopKQuery(5, k=6)]


def _graph(n=100, seed=19):
    return generators.copying_model_graph(n, out_degree=4, seed=seed)


def _service(graph, tmp_path=None, **kwargs):
    update_params = None
    if tmp_path is not None:
        update_params = UpdateParams(snapshot_dir=str(tmp_path))
    return QueryService.build(
        graph, PARAMS,
        sharding=ShardingParams(num_shards=3, strategy="contiguous"),
        update_params=update_params,
        rebalance_params=RebalanceParams(min_sources=0),
        **kwargs,
    )


def _answers(service):
    return [np.asarray(a).tolist() if isinstance(a, np.ndarray) else a
            for a in service.run_batch(QUERIES)]


def _balanced_plan(graph):
    weights = np.arange(graph.n_nodes, dtype=float) + 1.0
    return load_balanced_plan(3, weights)


class _ShardBuildKilled(RuntimeError):
    pass


# --------------------------------------------------------------------------- #
# Killed walker builds
# --------------------------------------------------------------------------- #
def _killer(self, plan):
    raise _ShardBuildKilled("shard build killed mid-migration")


class TestKilledShardBuild:
    def test_failed_build_leaves_old_plan_serving(self, monkeypatch):
        graph = _graph()
        with _service(graph) as service:
            expected = _answers(service)
            old_assignment = service.plan.assign(graph.n_nodes)

            # Kill the migration's walker build under the proposal.
            with monkeypatch.context() as patched:
                patched.setattr(ShardedIncrementalWalker, "with_plan", _killer)
                with pytest.raises(_ShardBuildKilled):
                    service.rebalance(plan=_balanced_plan(graph), force=True)

            # Nothing served changed: same plan, same generation, same
            # version, same (bitwise) answers, no half-initialised caches.
            assert np.array_equal(service.plan.assign(graph.n_nodes),
                                  old_assignment)
            stats = service.stats()
            assert stats["plan_generation"] == 1
            assert stats["rebalances_applied"] == 0
            assert _answers(service) == expected

    def test_failed_build_then_successful_migration(self, monkeypatch):
        graph = _graph()
        with _service(graph) as service:
            with monkeypatch.context() as patched:
                patched.setattr(ShardedIncrementalWalker, "with_plan", _killer)
                with pytest.raises(_ShardBuildKilled):
                    service.rebalance(plan=_balanced_plan(graph), force=True)
            # The service recovers without a restart: updates apply and the
            # retried migration lands.
            assert service.add_edges([(2, 60)]) is not None
            report = service.rebalance(plan=_balanced_plan(graph), force=True)
            assert report["applied"]
            with _service(graph) as reference:
                reference.add_edges([(2, 60)])
                assert _answers(service) == _answers(reference)

    def test_no_shm_leak_after_failed_migration(self, monkeypatch):
        # A toy batch is below the scatter grain and would be walked inline;
        # a one-walker-step grain and two workers send it to the pool.
        monkeypatch.setattr(sharded_module, "SCATTER_GRAIN", 1)
        graph = _graph(n=200)
        service = QueryService.build(
            graph, PARAMS,
            sharding=ShardingParams(num_shards=2),
            service_params=ServiceParams(cache_capacity=0,
                                         serve_backend="processes",
                                         serve_workers=2),
            rebalance_params=RebalanceParams(min_sources=0),
        )
        try:
            service.run_batch(QUERIES)
            handle = service._serve_backend.resident_handle("graph")
            assert handle is not None and handle.shm_name is not None
            name = handle.shm_name

            with monkeypatch.context() as patched:
                patched.setattr(ShardedIncrementalWalker, "with_plan", _killer)
                with pytest.raises(_ShardBuildKilled):
                    service.rebalance(plan=ShardPlan(2, strategy="contiguous",
                                                     n_nodes=200), force=True)
        finally:
            service.close()
        with pytest.raises(FileNotFoundError):
            segment = shared_memory.SharedMemory(name=name)
            segment.close()


# --------------------------------------------------------------------------- #
# Crash between the plan record and the index file
# --------------------------------------------------------------------------- #
def _kill_index_writes(patched):
    """Make every index-file write die: a save then stops after its system
    and plan record hit the disk, before the index file commits them."""
    real = index_module.atomic_write

    def crash(path, writer):
        if path.name.startswith("index-"):
            raise OSError("disk gone mid-save")
        return real(path, writer)

    patched.setattr(index_module, "atomic_write", crash)


class TestCrashedPersistence:
    def test_interrupted_save_rolls_back_to_old_plan(self, tmp_path,
                                                     monkeypatch):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            expected = _answers(service)
            base_version = service.index_version

            # The migration itself flips in memory; the persistence step
            # dies after the new plan record hit the disk but before the
            # index file committed it.
            with monkeypatch.context() as patched:
                _kill_index_writes(patched)
                with pytest.raises(OSError):
                    service.rebalance(plan=_balanced_plan(graph), force=True)

        store = SnapshotStore(tmp_path)
        assert store.plan_path(base_version + 1).exists()
        # The new version never committed: rolled back.
        assert store.versions() == [base_version]
        assert store.load_plan().strategy == "contiguous"

        # A cold start serves the previous version under the OLD plan,
        # with identical answers.
        restored = QueryService.from_snapshot(graph, tmp_path,
                                                     params=PARAMS)
        with restored:
            assert restored.index_version == base_version
            assert restored.plan.strategy == "contiguous"
            assert _answers(restored) == expected

    def test_next_save_replaces_orphaned_plan_record(self, tmp_path,
                                                     monkeypatch):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()

            with monkeypatch.context() as patched:
                _kill_index_writes(patched)
                with pytest.raises(OSError):
                    service.rebalance(plan=_balanced_plan(graph), force=True)
            # The retry (same in-memory plan, same target version) must
            # commit a version under the migrated plan.
            version, _ = service.save_snapshot()
            store = SnapshotStore(tmp_path)
            assert version in store.versions()
            assert store.load_plan(version) == service.plan

    def test_orphaned_plan_record_never_governs_older_versions(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            v1 = service.index_version
            # A crashed migration's debris: a plan record for a version
            # whose index file was never written.
            store = SnapshotStore(tmp_path)
            store.plan_path(v1 + 1).write_text(json.dumps({
                "plan": _balanced_plan(graph).to_dict(),
                "shard_versions": [v1 + 1] * 3,
            }), encoding="utf-8")
            assert store.versions() == [v1]
            # v1 still loads under its own plan, not the orphan.
            assert store.load_plan().strategy == "contiguous"
            _, sharded_index, _ = store.load(v1)
            assert sharded_index.plan.strategy == "contiguous"


# --------------------------------------------------------------------------- #
# Corrupt plan records
# --------------------------------------------------------------------------- #
class TestCorruptPlans:
    def _migrated_lineage(self, graph, tmp_path):
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            expected = _answers(service)
            report = service.rebalance(plan=_balanced_plan(graph), force=True)
            assert report["applied"]
            assert _answers(service) == expected
        return expected

    def test_corrupt_plan_record_rolls_back_its_version(self, tmp_path):
        graph = _graph()
        expected = self._migrated_lineage(graph, tmp_path)
        store = SnapshotStore(tmp_path)
        v_old, v_new = store.versions()
        store.plan_path(v_new).write_text("{ not json", encoding="utf-8")
        # The migrated version's plan record is unreadable: the version
        # vanishes and loads roll back.
        assert store.versions() == [v_old]
        restored = QueryService.from_snapshot(graph, tmp_path,
                                                     params=PARAMS)
        with restored:
            assert restored.index_version == v_old
            assert restored.plan.strategy == "contiguous"
            assert _answers(restored) == expected

    def test_every_plan_record_corrupt_fails_loudly(self, tmp_path):
        graph = _graph()
        self._migrated_lineage(graph, tmp_path)
        store = SnapshotStore(tmp_path)
        for version in store.versions():
            store.plan_path(version).write_text("{ not json",
                                                encoding="utf-8")
        with pytest.raises(CloudWalkerError, match="no loadable plan record"):
            store.versions()
        with pytest.raises(CloudWalkerError, match="no loadable plan record"):
            QueryService.from_snapshot(graph, tmp_path, params=PARAMS)


# --------------------------------------------------------------------------- #
# Plans across versions
# --------------------------------------------------------------------------- #
class TestPlanRecords:
    def test_each_version_loads_under_its_own_plan(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            v1 = service.index_version
            service.rebalance(plan=_balanced_plan(graph), force=True)
            v2 = service.index_version
            service.add_edges([(1, 50)])
            service.save_snapshot()
            v3 = service.index_version
        store = SnapshotStore(tmp_path)
        assert store.versions() == [v1, v2, v3]
        assert store.load_plan(v1).strategy == "contiguous"
        assert store.load_plan(v2).strategy == "partitioner"
        assert store.load_plan(v3) == store.load_plan(v2)

    def test_shard_count_is_immutable_per_directory(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            index = service.index
        store = SnapshotStore(tmp_path)
        with pytest.raises(CloudWalkerError, match="immutable"):
            store.save_snapshot(ShardedIndex(index=index, plan=ShardPlan(4)))

    def test_prune_keeps_the_migrated_plan_of_the_survivors(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            service.rebalance(plan=_balanced_plan(graph), force=True)
            migration_version = service.index_version
            for edge in [(1, 50), (2, 60), (3, 70)]:
                service.add_edges([edge])
                service.save_snapshot()
        store = SnapshotStore(tmp_path, retain=2)
        store.prune()
        remaining = store.versions()
        assert len(remaining) == 2
        assert migration_version not in remaining
        # The migration's own version is gone, yet the survivors still
        # load under the migrated plan: each carries its own record.
        assert not store.plan_path(migration_version).exists()
        assert store.load_plan(remaining[0]).strategy == "partitioner"
        assert store.load_plan(remaining[-1]).strategy == "partitioner"

    def test_prune_removes_plan_records_of_pruned_versions(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            service.rebalance(plan=_balanced_plan(graph), force=True)
            first_migration = service.index_version
            # Second migration, then enough saves to prune both away.
            service.rebalance(plan=ShardPlan(3, strategy="hash"), force=True)
            for edge in [(1, 50), (2, 60), (3, 70)]:
                service.add_edges([edge])
                service.save_snapshot()
        store = SnapshotStore(tmp_path, retain=2)
        store.prune()
        records = sorted(path.name for path in tmp_path.glob("plan-v*.json"))
        assert records == [store.plan_path(v).name for v in store.versions()]
        assert not store.plan_path(first_migration).exists()
        assert store.load_plan().strategy == "hash"
