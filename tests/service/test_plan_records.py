"""Fault injection for index maintenance and for snapshot saves.

Two failure surfaces, and each must leave the system serving correct
answers:

* a **row task dying inside an update** (one task of ``add_edges``
  fails) must leave the service byte-for-byte on the old version — the
  new graph, system and index are built entirely before anything served
  changes — and ``close()`` afterwards must leave no resident
  shared-memory segment behind;
* a **crash between the system file and the index file** that commits
  it leaves debris on disk; the store must roll back to the previous
  version on the next load, and a subsequent save must replace the
  debris, never adopt it.
"""

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
from repro.core.index import SnapshotStore
from repro.graph import generators
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
        sharding=ShardingParams(num_shards=3),
        update_params=update_params,
        **kwargs,
    )


def _answers(service):
    return [np.asarray(a).tolist() if isinstance(a, np.ndarray) else a
            for a in service.run_batch(QUERIES)]


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
# Crash between the system file and the index file
# --------------------------------------------------------------------------- #
def _kill_index_writes(patched):
    """Make every index-file write die: a save then stops after its system
    hit the disk, before the index file commits it."""
    real = index_module.atomic_write

    def crash(path, writer):
        if path.name.startswith("index-"):
            raise OSError("disk gone mid-save")
        return real(path, writer)

    patched.setattr(index_module, "atomic_write", crash)


class TestCrashedPersistence:
    def test_interrupted_save_rolls_back_to_the_old_version(self, tmp_path,
                                                            monkeypatch):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            expected = _answers(service)
            base_version = service.index_version
            service.add_edges([(2, 60)])
            # The save dies after the new system hit the disk but before
            # the index file committed it.
            with monkeypatch.context() as patched:
                _kill_index_writes(patched)
                with pytest.raises(OSError):
                    service.save_snapshot()

        store = SnapshotStore(tmp_path)
        assert store.system_path(base_version + 1).exists()
        # The new version never committed: rolled back.
        assert store.versions() == [base_version]

        # A cold start serves the previous version, with identical answers.
        with _restore(graph, tmp_path) as restored:
            assert restored.index_version == base_version
            assert _answers(restored) == expected

    def test_next_save_replaces_the_orphaned_system(self, tmp_path,
                                                    monkeypatch):
        graph = _graph()
        with _service(graph, tmp_path) as service:
            service.save_snapshot()
            # Debris of another history's crashed save of the next
            # version: a system file with no index file.
            with _service(graph) as other:
                other.add_edges([(3, 70)])
                with monkeypatch.context() as patched:
                    _kill_index_writes(patched)
                    with pytest.raises(OSError):
                        other.save_snapshot(tmp_path)
            # The next version this service commits is its own: the
            # orphaned system is overwritten, never adopted.
            service.add_edges([(1, 50)])
            version, _ = service.save_snapshot()
            _version, index, system = SnapshotStore(tmp_path).load(version)
            assert index.diagonal.tobytes() == \
                service.index.diagonal.tobytes()
            for name in ("indptr", "indices", "data"):
                assert getattr(system, name).tobytes() == \
                    getattr(service._walker.system, name).tobytes()
