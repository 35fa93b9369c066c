"""Fault injection for index maintenance and for per-version plan records.

Three failure surfaces, and each must leave the system serving correct
answers:

* a **shard build dying inside an update** (one row task of
  ``add_edges`` fails) must leave the service byte-for-byte on the old
  version — the new graph, system and index are built entirely before
  anything served changes — and ``close()`` afterwards must leave no
  resident shared-memory segment behind;
* a **crash between a plan record and the index file** that commits it
  leaves debris on disk; the store must roll back to the previous
  version *under its own plan* on the next load, and a subsequent save
  must replace the debris, never adopt it;
* a **corrupt plan record** excludes its version (rollback), while a
  lineage whose every plan record is corrupt is refused loudly — its
  identity is gone, silence would serve garbage.

A service's plan is fixed for its lifetime, but a lineage written by an
older build may hold a different plan per version; the multi-plan
lineages here are written through :meth:`SnapshotStore.save_snapshot`
with explicit plans, and each version must load under its own record.
"""

import json
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.core.index as index_module
import repro.core.sharding as sharding_module
from repro.config import (
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.core.index import ShardedIndex, SnapshotStore
from repro.errors import CloudWalkerError
from repro.graph import generators
from repro.graph.partition import ShardPlan
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
        **kwargs,
    )


def _answers(service):
    return [np.asarray(a).tolist() if isinstance(a, np.ndarray) else a
            for a in service.run_batch(QUERIES)]


def _partitioner_plan(graph):
    """A second 3-shard plan for the test graph (edge-balanced)."""
    return ShardPlan.for_graph(graph, 3, "partitioner")


def _save_under(service, directory, plan, version):
    """Save ``service``'s index and system as ``version`` under ``plan``.

    The service itself always saves under its own plan; writing through
    the store with another one reproduces a lineage whose versions carry
    different plans.
    """
    return SnapshotStore(directory).save_snapshot(
        ShardedIndex(index=service.index, plan=plan,
                     shard_versions=[version] * plan.num_shards),
        system=service._walker.system, version=version)


def _restore(graph, directory):
    return QueryService.from_snapshot(graph, directory, params=PARAMS)


class _ShardBuildKilled(RuntimeError):
    pass


# --------------------------------------------------------------------------- #
# Killed shard builds inside an update
# --------------------------------------------------------------------------- #
def _killer(backend, tasks):
    raise _ShardBuildKilled("shard build killed mid-update")


class TestKilledShardBuild:
    def test_failed_update_leaves_old_version_serving(self, monkeypatch):
        graph = _graph()
        with _service(graph) as service:
            expected = _answers(service)
            version = service.index_version
            with monkeypatch.context() as patched:
                patched.setattr(sharding_module, "run_shard_tasks", _killer)
                with pytest.raises(_ShardBuildKilled):
                    service.add_edges([(2, 60)])
            # Nothing served changed: same graph, same version, same
            # (bitwise) answers.
            assert service.graph is graph
            assert service.index_version == version
            assert service.stats()["updates_applied"] == 0
            assert _answers(service) == expected

    def test_failed_update_then_successful_retry(self, monkeypatch):
        graph = _graph()
        with _service(graph) as service:
            with monkeypatch.context() as patched:
                patched.setattr(sharding_module, "run_shard_tasks", _killer)
                with pytest.raises(_ShardBuildKilled):
                    service.add_edges([(2, 60)])
            # The service recovers without a restart: the retried update
            # lands and answers like a service that never failed.
            assert service.add_edges([(2, 60)]) is not None
            with _service(graph) as reference:
                reference.add_edges([(2, 60)])
                assert service.index_version == reference.index_version
                assert _answers(service) == _answers(reference)

    def test_no_shm_leak_after_failed_update(self, monkeypatch):
        # A processes build backend registers the graph in shared memory;
        # the failing update registers the post-update graph before its
        # row tasks die.
        graph = _graph(n=200)
        service = QueryService.build(
            graph, PARAMS,
            sharding=ShardingParams(num_shards=2, backend="processes",
                                    max_workers=2),
            service_params=ServiceParams(cache_capacity=0),
        )
        names = []
        try:
            backend = service._walker.backend
            service.run_batch(QUERIES)
            names.append(backend.resident_handle("graph").shm_name)
            with monkeypatch.context() as patched:
                patched.setattr(sharding_module, "run_shard_tasks", _killer)
                with pytest.raises(_ShardBuildKilled):
                    service.add_edges([(2, 150)])
            handle = backend.resident_handle("graph")
            assert handle is not None and handle.shm_name is not None
            names.append(handle.shm_name)
            assert names[0] != names[1]
        finally:
            service.close()
        for name in names:
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
            # The save dies after the new plan record hit the disk but
            # before the index file committed it.
            with monkeypatch.context() as patched:
                _kill_index_writes(patched)
                with pytest.raises(OSError):
                    _save_under(service, tmp_path, _partitioner_plan(graph),
                                base_version + 1)

        store = SnapshotStore(tmp_path)
        assert store.plan_path(base_version + 1).exists()
        # The new version never committed: rolled back.
        assert store.versions() == [base_version]
        assert store.load_plan().strategy == "contiguous"

        # A cold start serves the previous version under the OLD plan,
        # with identical answers.
        with _restore(graph, tmp_path) as restored:
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
                    _save_under(service, tmp_path, _partitioner_plan(graph),
                                service.index_version + 1)
            # The next version the service commits is its own: the
            # orphaned record is overwritten, never adopted.
            service.add_edges([(1, 50)])
            version, _ = service.save_snapshot()
            store = SnapshotStore(tmp_path)
            assert version in store.versions()
            assert store.load_plan(version) == service.plan
            assert store.load_plan(version).strategy == "contiguous"

    def test_orphaned_plan_record_never_governs_older_versions(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            v1 = service.index_version
            # A crashed save's debris: a plan record for a version whose
            # index file was never written.
            store = SnapshotStore(tmp_path)
            store.plan_path(v1 + 1).write_text(json.dumps({
                "plan": _partitioner_plan(graph).to_dict(),
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
    def _two_plan_lineage(self, graph, tmp_path):
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            expected = _answers(service)
            _save_under(service, tmp_path, _partitioner_plan(graph),
                        service.index_version + 1)
        with _restore(graph, tmp_path) as restored:
            assert restored.plan.strategy == "partitioner"
            assert _answers(restored) == expected
        return expected

    def test_corrupt_plan_record_rolls_back_its_version(self, tmp_path):
        graph = _graph()
        expected = self._two_plan_lineage(graph, tmp_path)
        store = SnapshotStore(tmp_path)
        v_old, v_new = store.versions()
        store.plan_path(v_new).write_text("{ not json", encoding="utf-8")
        # The newer version's plan record is unreadable: the version
        # vanishes and loads roll back.
        assert store.versions() == [v_old]
        with _restore(graph, tmp_path) as restored:
            assert restored.index_version == v_old
            assert restored.plan.strategy == "contiguous"
            assert _answers(restored) == expected

    def test_every_plan_record_corrupt_fails_loudly(self, tmp_path):
        graph = _graph()
        self._two_plan_lineage(graph, tmp_path)
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
def _continue_lineage(graph, tmp_path, edges):
    """Restore the newest version and commit one update-and-save per edge."""
    with _restore(graph, tmp_path) as restored:
        for edge in edges:
            restored.add_edges([edge])
            restored.save_snapshot(tmp_path)
        return restored.plan


class TestPlanRecords:
    def test_each_version_loads_under_its_own_plan(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            v1 = service.index_version
            v2 = _save_under(service, tmp_path, _partitioner_plan(graph),
                             v1 + 1)
        with _restore(graph, tmp_path) as restored:
            assert restored.index_version == v2
            assert restored.plan == _partitioner_plan(graph)
            restored.add_edges([(1, 50)])
            restored.save_snapshot(tmp_path)
            v3 = restored.index_version
            with _service(graph) as reference:
                reference.add_edges([(1, 50)])
                assert _answers(restored) == _answers(reference)
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

    def test_prune_keeps_the_newer_plan_of_the_survivors(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            switch_version = _save_under(service, tmp_path,
                                         _partitioner_plan(graph),
                                         service.index_version + 1)
        _continue_lineage(graph, tmp_path, [(1, 50), (2, 60), (3, 70)])
        store = SnapshotStore(tmp_path, retain=2)
        store.prune()
        remaining = store.versions()
        assert len(remaining) == 2
        assert switch_version not in remaining
        # The version that switched plans is gone, yet the survivors still
        # load under its plan: each carries its own record.
        assert not store.plan_path(switch_version).exists()
        assert store.load_plan(remaining[0]).strategy == "partitioner"
        assert store.load_plan(remaining[-1]).strategy == "partitioner"

    def test_prune_removes_plan_records_of_pruned_versions(self, tmp_path):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            first_switch = _save_under(service, tmp_path,
                                       _partitioner_plan(graph),
                                       service.index_version + 1)
            # A second plan change, then enough saves to prune both away.
            _save_under(service, tmp_path, ShardPlan(3, strategy="hash"),
                        first_switch + 1)
        _continue_lineage(graph, tmp_path, [(1, 50), (2, 60), (3, 70)])
        store = SnapshotStore(tmp_path, retain=2)
        store.prune()
        records = sorted(path.name for path in tmp_path.glob("plan-v*.json"))
        assert records == [store.plan_path(v).name for v in store.versions()]
        assert not store.plan_path(first_switch).exists()
        assert store.load_plan().strategy == "hash"
