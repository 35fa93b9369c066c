"""Resident object registry: registration, resolution, epochs, cleanup.

Every pool fan-out hangs off this contract: a backend owner
registers a large object once per epoch (``ensure_resident``), scatter
tasks ship only the returned :class:`~repro.engine.executor.ResidentHandle`
and resolve it where they run (:func:`~repro.engine.executor.
resolve_resident`) — in-process for the serial backend, via a
shared-memory attach cached per worker for the process backend.  The
registry's lifecycle must be airtight: identity-keyed reuse, epoch bumps
on object swaps, and release of every shared-memory segment on shutdown,
on re-registration, and on broken-pool recovery.
"""

import pickle
from concurrent.futures import BrokenExecutor
from functools import partial
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.engine.executor import ProcessBackend, SerialBackend, resolve_resident
from repro.graph import generators


def _graph_fingerprint(handle):
    """Module-level (picklable) task: summarise the resident graph."""
    graph = resolve_resident(handle)
    indptr, indices = graph.in_csr
    return (graph.n_nodes, graph.n_edges, int(indices.sum()), int(indptr[-1]))


def _die_hard():
    import os

    os._exit(13)


def _segment_exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


@pytest.fixture()
def graph():
    return generators.copying_model_graph(60, out_degree=4, seed=9)


class TestLocalResidency:
    def test_resolves_to_the_same_object(self, graph):
        with SerialBackend() as backend:
            handle = backend.ensure_resident("graph", graph)
            assert handle.kind == "local"
            assert resolve_resident(handle) is graph
            # Tasks resolve it too (serial tasks share the process).
            assert backend.run([partial(_graph_fingerprint, handle)]) == [
                _graph_fingerprint(handle)
            ]

    def test_identity_reuse_and_epoch_bump(self, graph):
        backend = SerialBackend()
        first = backend.ensure_resident("graph", graph)
        assert backend.ensure_resident("graph", graph) is first
        other = generators.copying_model_graph(30, out_degree=3, seed=1)
        second = backend.ensure_resident("graph", other)
        assert second.token != first.token
        assert second.epoch == first.epoch + 1
        assert resolve_resident(second) is other
        # Local handles carry the reference: an outstanding old handle
        # still resolves (same object, so this is harmless), and nothing
        # is pinned process-globally once the handles are dropped.
        assert resolve_resident(first) is graph

    def test_close_then_reregister(self, graph):
        backend = SerialBackend()
        first = backend.ensure_resident("graph", graph)
        backend.close()
        revived = backend.ensure_resident("graph", graph)
        assert revived.token != first.token
        assert resolve_resident(revived) is graph
        backend.close()

    def test_dropping_backend_does_not_pin_the_object(self, graph):
        """No global registry: the object's lifetime is plain refcounting."""
        import gc
        import weakref

        class Probe:
            """Weakref-able stand-in (DiGraph's __slots__ forbid weakrefs)."""

        probe = Probe()
        probe.graph = graph
        ref = weakref.ref(probe)
        backend = SerialBackend()
        backend.ensure_resident("graph", probe)
        # The backend (never closed) and the local variable are dropped:
        # nothing else may keep the graph alive.
        del backend, probe
        gc.collect()
        assert ref() is None, (
            "a dropped serial backend must not leak its residents"
        )


class TestSharedMemoryResidency:
    def test_worker_resolves_bitwise_equal_graph(self, graph):
        with ProcessBackend(max_workers=2) as backend:
            handle = backend.ensure_resident("graph", graph)
            assert handle.kind == "shm"
            expected = (graph.n_nodes, graph.n_edges,
                        int(graph.in_csr[1].sum()), int(graph.in_csr[0][-1]))
            # Two runs: the second is served from the worker-side cache.
            assert backend.run([partial(_graph_fingerprint, handle)]) == [expected]
            assert backend.run([partial(_graph_fingerprint, handle)]) == [expected]
            # Same object => same registration, no re-export.
            assert backend.ensure_resident("graph", graph) is handle

    def test_parent_side_resolution_is_zero_copy(self, graph):
        backend = ProcessBackend(max_workers=1)
        try:
            handle = backend.ensure_resident("graph", graph)
            restored = resolve_resident(handle)
            assert restored == graph  # CSR arrays byte-for-byte equal
            assert restored.in_csr[0].base is not None, (
                "restored arrays must be views over shared memory, not copies"
            )
        finally:
            backend.close()

    def test_handle_is_small_and_picklable(self, graph):
        backend = ProcessBackend(max_workers=1)
        try:
            handle = backend.ensure_resident("graph", graph)
            assert len(pickle.dumps(handle)) < 2048
        finally:
            backend.close()

    def test_shutdown_unlinks_segment(self, graph):
        backend = ProcessBackend(max_workers=1)
        handle = backend.ensure_resident("graph", graph)
        assert _segment_exists(handle.shm_name)
        backend.close()
        assert not _segment_exists(handle.shm_name)
        backend.close()  # double release must not raise

    def test_reregistration_unlinks_old_segment(self, graph):
        backend = ProcessBackend(max_workers=1)
        try:
            first = backend.ensure_resident("graph", graph)
            other = generators.copying_model_graph(30, out_degree=3, seed=2)
            second = backend.ensure_resident("graph", other)
            assert second.epoch == first.epoch + 1
            assert not _segment_exists(first.shm_name)
            assert _segment_exists(second.shm_name)
        finally:
            backend.close()

    def test_broken_pool_releases_segment(self, graph):
        backend = ProcessBackend(max_workers=1)
        handle = backend.ensure_resident("graph", graph)
        with pytest.raises(BrokenExecutor):
            backend.run([_die_hard])
        assert backend._pool is None
        assert not _segment_exists(handle.shm_name), (
            "a broken pool must not pin shared-memory segments"
        )
        # The owner re-registers against the recovered pool transparently.
        revived = backend.ensure_resident("graph", graph)
        expected = (graph.n_nodes, graph.n_edges,
                    int(graph.in_csr[1].sum()), int(graph.in_csr[0][-1]))
        assert backend.run([partial(_graph_fingerprint, revived)]) == [expected]
        backend.close()

    def test_pickled_blob_fallback_for_plain_objects(self):
        backend = ProcessBackend(max_workers=1)
        try:
            payload = {"plan": [1, 2, 3], "strategy": "hash"}
            handle = backend.ensure_resident("plan", payload)
            assert resolve_resident(handle) == payload
        finally:
            backend.close()

    def test_payload_accounting_matches_task_count(self, graph):
        backend = ProcessBackend(max_workers=1)
        try:
            handle = backend.ensure_resident("graph", graph)
            tasks = [partial(_graph_fingerprint, handle) for _ in range(3)]
            backend.run(tasks)
            assert len(backend.last_payload_bytes) == 3
            assert backend.total_payload_bytes >= sum(backend.last_payload_bytes)
            assert max(backend.last_payload_bytes) < 4096, (
                "resident tasks must ship a handle, not the graph"
            )
        finally:
            backend.close()


class TestResidentRestoreEquivalence:
    def test_restored_graph_answers_identically(self, graph):
        """Walks over the restored (view-backed) graph match the original."""
        from repro.config import SimRankParams
        from repro.core import montecarlo

        backend = ProcessBackend(max_workers=1)
        try:
            handle = backend.ensure_resident("graph", graph)
            restored = resolve_resident(handle)
            params = SimRankParams.fast_defaults()
            original = montecarlo.estimate_walk_distributions_batch(
                graph, [0, 3, 7], params)
            mirrored = montecarlo.estimate_walk_distributions_batch(
                restored, [0, 3, 7], params)
            assert original.keys() == mirrored.keys()
            for source in original:
                for name in ("offsets", "nodes", "values"):
                    assert np.array_equal(getattr(original[source], name),
                                          getattr(mirrored[source], name))
        finally:
            backend.close()
