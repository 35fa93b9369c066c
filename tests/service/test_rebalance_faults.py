"""Fault injection for plan migration and plan-generation persistence.

A migration has three failure surfaces, and each must leave the system
serving correct answers:

* a **shard build dying mid-migration** (re-slicing the system fails)
  must leave the service byte-for-byte on the old plan — the new lineage
  is built entirely before anything served changes;
* a **crash between the governing-plan write and the shard payloads**
  leaves an inconsistent version on disk; the store must roll back to the
  previous version *under its own plan* on the next load, and a subsequent
  save must replace the orphaned generation file, never adopt it;
* a **corrupt persisted plan generation** excludes its version from the
  consistent set (rollback), while a corrupt *base* plan still fails
  loudly — the lineage's identity is gone, silence would serve garbage.

Plus the resource invariant: a failed migration followed by ``close()``
leaves no resident shared-memory segments behind.
"""

from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.core.sharding as sharding_module
from repro.config import (
    RebalanceParams,
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.core.index import ShardedSnapshotStore, SnapshotStore
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
# Killed shard builds
# --------------------------------------------------------------------------- #
class TestKilledShardBuild:
    def test_failed_build_leaves_old_plan_serving(self, monkeypatch):
        graph = _graph()
        with _service(graph) as service:
            expected = _answers(service)
            old_assignment = service.plan.assign(graph.n_nodes)
            real = sharding_module.slice_shard_block

            def killer(system, keep):
                raise _ShardBuildKilled("shard build killed mid-migration")

            # Kill the migration's re-slice of the maintained system.
            monkeypatch.setattr(sharding_module, "slice_shard_block", killer)
            with pytest.raises(_ShardBuildKilled):
                service.rebalance(plan=_balanced_plan(graph), force=True)
            monkeypatch.setattr(sharding_module, "slice_shard_block", real)

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
            def killer(system, keep):
                raise _ShardBuildKilled("shard build killed mid-migration")

            with monkeypatch.context() as patched:
                patched.setattr(sharding_module, "slice_shard_block", killer)
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
        graph = _graph(n=200)
        service = QueryService.build(
            graph, PARAMS,
            sharding=ShardingParams(num_shards=2),
            service_params=ServiceParams(cache_capacity=0,
                                         serve_backend="processes",
                                         serve_workers=1),
            rebalance_params=RebalanceParams(min_sources=0),
        )
        try:
            service.run_batch(QUERIES)
            handle = service._serve_backend.resident_handle("graph")
            assert handle is not None and handle.shm_name is not None
            name = handle.shm_name

            def killer(system, keep):
                raise _ShardBuildKilled("shard build killed mid-migration")

            with monkeypatch.context() as patched:
                patched.setattr(sharding_module, "slice_shard_block", killer)
                with pytest.raises(_ShardBuildKilled):
                    service.rebalance(plan=ShardPlan(2, strategy="contiguous",
                                                     n_nodes=200), force=True)
        finally:
            service.close()
        with pytest.raises(FileNotFoundError):
            segment = shared_memory.SharedMemory(name=name)
            segment.close()


# --------------------------------------------------------------------------- #
# Crash between the plan write and the shard payloads
# --------------------------------------------------------------------------- #
class TestCrashedPersistence:
    def test_interrupted_save_rolls_back_to_old_plan(self, tmp_path,
                                                     monkeypatch):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            expected = _answers(service)
            base_version = service.index_version

            crashed = SnapshotStore.save_snapshot

            def crash(store_self, *args, **kwargs):
                raise OSError("disk gone mid-save")

            # The migration itself flips in memory; the persistence step
            # dies after the governing plan generation hit the disk but
            # before any shard payload did.
            monkeypatch.setattr(SnapshotStore, "save_snapshot", crash)
            with pytest.raises(OSError):
                service.rebalance(plan=_balanced_plan(graph), force=True)
            monkeypatch.setattr(SnapshotStore, "save_snapshot", crashed)

        store = ShardedSnapshotStore(tmp_path)
        # The new version is inconsistent (no shard has it): rolled back.
        assert store.versions() == [base_version]
        assert store.plan_generation_versions() == [base_version + 1]
        assert store.load_plan().strategy == "contiguous"

        # A cold start serves the previous version under the OLD plan,
        # with identical answers.
        restored = QueryService.from_snapshot(graph, tmp_path,
                                                     params=PARAMS)
        with restored:
            assert restored.index_version == base_version
            assert restored.plan.strategy == "contiguous"
            assert _answers(restored) == expected

    def test_next_save_replaces_orphaned_generation(self, tmp_path,
                                                    monkeypatch):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()

            def crash(store_self, *args, **kwargs):
                raise OSError("disk gone mid-save")

            with monkeypatch.context() as patched:
                patched.setattr(SnapshotStore, "save_snapshot", crash)
                with pytest.raises(OSError):
                    service.rebalance(plan=_balanced_plan(graph), force=True)
            # The retry (same in-memory plan, same target version) must
            # replace the orphaned generation file and produce a
            # consistent snapshot under the migrated plan.
            version, _ = service.save_snapshot()
            store = ShardedSnapshotStore(tmp_path)
            assert version in store.versions()
            assert store.load_plan(version) == service.plan

    def test_unadopted_generation_never_governs_older_versions(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            v1 = service.index_version
            store = ShardedSnapshotStore(tmp_path)
            # Simulate a crashed migration that wrote only the plan file
            # for a version that never became consistent.
            store._save_plan(_balanced_plan(graph), v1 + 1)
            assert store.versions() == [v1]
            # v1 still loads under the base plan, not the orphan.
            assert store.load_plan(v1).strategy == "contiguous"
            _, sharded_index, _ = store.load(v1)
            assert sharded_index.plan.strategy == "contiguous"


# --------------------------------------------------------------------------- #
# Corrupt plan files
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

    def test_corrupt_generation_rolls_back_its_version(self, tmp_path):
        graph = _graph()
        expected = self._migrated_lineage(graph, tmp_path)
        store = ShardedSnapshotStore(tmp_path)
        v_old, v_new = store.versions()
        store.plan_path(v_new).write_text("{ not json", encoding="utf-8")
        # The migrated version's governing plan is unreadable: the version
        # vanishes from the consistent set and loads roll back.
        assert store.versions() == [v_old]
        restored = QueryService.from_snapshot(graph, tmp_path,
                                                     params=PARAMS)
        with restored:
            assert restored.index_version == v_old
            assert restored.plan.strategy == "contiguous"
            assert _answers(restored) == expected

    def test_corrupt_base_plan_fails_loudly(self, tmp_path):
        graph = _graph()
        self._migrated_lineage(graph, tmp_path)
        store = ShardedSnapshotStore(tmp_path)
        (tmp_path / ShardedSnapshotStore.PLAN_FILE).write_text(
            "{ not json", encoding="utf-8")
        with pytest.raises(CloudWalkerError, match="cannot load shard plan"):
            store.versions()
        with pytest.raises(CloudWalkerError, match="cannot load shard plan"):
            QueryService.from_snapshot(graph, tmp_path, params=PARAMS)


# --------------------------------------------------------------------------- #
# Plan-generation bookkeeping
# --------------------------------------------------------------------------- #
class TestPlanGenerations:
    def test_load_plan_by_version_is_governing(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            v1 = service.index_version
            service.rebalance(plan=_balanced_plan(graph), force=True)
            v2 = service.index_version
            service.add_edges([(1, 50)])
            service.save_snapshot()
            v3 = service.index_version
        store = ShardedSnapshotStore(tmp_path)
        assert store.versions() == [v1, v2, v3]
        assert store.load_plan(v1).strategy == "contiguous"
        assert store.load_plan(v2).strategy == "partitioner"
        # v3 wrote no new generation: it is governed by v2's plan.
        assert store.plan_generation_versions() == [v2]
        assert store.load_plan(v3) == store.load_plan(v2)

    def test_shard_count_is_immutable_per_directory(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            version = service.index_version
        store = ShardedSnapshotStore(tmp_path)
        with pytest.raises(CloudWalkerError, match="immutable"):
            store._save_plan(ShardPlan(4), version + 1)

    def test_prune_drops_generations_with_their_versions(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            service.rebalance(plan=_balanced_plan(graph), force=True)
            migration_version = service.index_version
            for edge in [(1, 50), (2, 60), (3, 70)]:
                service.add_edges([edge])
                service.save_snapshot()
        store = ShardedSnapshotStore(tmp_path, retain=2)
        store.prune()
        remaining = store.versions()
        assert len(remaining) == 2
        assert migration_version not in remaining
        # The migrated plan still governs the survivors even though the
        # generation's own version was pruned... via the generation file,
        # which must therefore survive the prune.
        assert store.plan_generation_versions() == [migration_version]
        assert store.load_plan(remaining[-1]).strategy == "partitioner"

    def test_prune_removes_superseded_generations(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            service.rebalance(plan=_balanced_plan(graph), force=True)
            first_gen = service.index_version
            # Second migration: the first generation governs only its own
            # version; prune both away and the file must go too.
            service.rebalance(plan=ShardPlan(3, strategy="hash"), force=True)
            for edge in [(1, 50), (2, 60), (3, 70)]:
                service.add_edges([edge])
                service.save_snapshot()
        store = ShardedSnapshotStore(tmp_path, retain=2)
        store.prune()
        assert first_gen not in store.plan_generation_versions()
        assert store.load_plan().strategy == "hash"
