"""Walk where it pays: the scatter grain decides where a batch's misses run.

:func:`repro.service.sharded.simulate_misses` splits a batch's misses into
``min(workers, misses, work // SCATTER_GRAIN)`` runs, ``work`` being the
walker-steps the batch takes, and walks a single run in the calling thread.
These tests pin the rule's three consequences: a batch below the grain never
starts (or registers anything on) a serve pool, a batch above it ships
exactly that many runs, and the rule's counters are fixed by the graph and
the request stream.  Answers stay byte-equal on every route; the Hypothesis
property is in ``tests/test_properties.py``.  Where a test needs a
multi-worker pool but not a process one, serial backends are patched to
split work as a pool of that many workers would (:func:`_serial_pool`).
"""

import glob

import numpy as np
import pytest

import repro.service.sharded as sharded
from repro.config import ServiceParams, ShardingParams, SimRankParams
from repro.engine.executor import SerialBackend
from repro.graph import generators
from repro.service import PairQuery, QueryService, SourceQuery, TopKQuery

PARAMS = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=2,
                       index_walkers=20, query_walkers=60, seed=5)
# Both pairs can meet within the walk length, so they are walked.
QUERIES = [PairQuery(3, 14), SourceQuery(7), TopKQuery(11, k=5),
           TopKQuery(3, k=4), PairQuery(12, 16), SourceQuery(25)]


def _graph():
    return generators.copying_model_graph(120, out_degree=4, seed=9)


def _misses(queries):
    return len({node for query in queries
                for node in (query.source, getattr(query, "target", None))
                if node is not None})


def _service(graph, backend, workers=2, cache_capacity=0):
    return QueryService.build(
        graph, PARAMS,
        service_params=ServiceParams(cache_capacity=cache_capacity,
                                     serve_backend=backend,
                                     serve_workers=workers),
        sharding=ShardingParams(num_shards=2))


def _serial_pool(monkeypatch, workers):
    """Serial backends split work as a pool of ``workers``, in process."""
    monkeypatch.setattr(SerialBackend, "max_workers", workers)
    return "serial"


def _assert_byte_equal(expected, answers):
    assert answers.index_version == expected.index_version
    for left, right in zip(expected, answers):
        if isinstance(left, np.ndarray):
            assert left.tobytes() == right.tobytes()
        else:
            assert repr(left) == repr(right)


def _segments():
    return set(glob.glob("/dev/shm/psm_*"))


class TestBelowTheGrain:
    def test_processes_pool_is_never_forked(self):
        """A toy batch on ``processes`` is walked inline: no pool, no
        segment, no payload, no resident — and after an update no registry
        still holds the graph it replaced."""
        graph = _graph()
        before = _segments()
        with _service(graph, "serial") as reference, \
                _service(graph, "processes") as service:
            backend = service._serve_backend
            _assert_byte_equal(reference.run_batch(QUERIES),
                               service.run_batch(QUERIES))
            old_graph = service.graph
            for each in (reference, service):
                each.add_edges([(0, 7), (40, 3)])
            _assert_byte_equal(reference.run_batch(QUERIES),
                               service.run_batch(QUERIES))
            assert service.graph is not old_graph
            assert backend._pool is None
            assert backend.total_payload_bytes == 0
            assert service.stats()["scatter_payload_bytes"] == 0
            for registry in (backend, sharded._INLINE):
                assert registry._residents == {}
            assert _segments() <= before
            stats = service.stats()
            assert stats["scatter_hops"] == 0
            assert stats["misses_walked_inline"] == stats["sources_simulated"]
            assert stats["sources_simulated"] == 2 * _misses(QUERIES)


class TestAboveTheGrain:
    @pytest.mark.parametrize("grain_runs", [1, 2, 3, 4, 9])
    def test_ships_min_of_workers_misses_and_grains(self, grain_runs,
                                                    monkeypatch):
        """``work // grain`` runs, capped by the workers and the misses;
        one run is walked inline and ships nothing."""
        workers, misses = 4, _misses(QUERIES)
        work = misses * PARAMS.query_walkers * (PARAMS.walk_steps + 1)
        monkeypatch.setattr(sharded, "SCATTER_GRAIN", work // grain_runs)
        expected = min(workers, misses, grain_runs)
        scatters = []
        real = sharded.run_shard_tasks

        def counting(backend, tasks):
            scatters.append((backend, len(tasks)))
            return real(backend, tasks)

        monkeypatch.setattr(sharded, "run_shard_tasks", counting)
        graph = _graph()
        pool = _serial_pool(monkeypatch, workers)
        with _service(graph, pool, workers=workers) as service:
            answers = service.run_batch(QUERIES)
            ((backend, runs),) = scatters
            assert runs == expected
            inline = expected == 1
            assert (backend is sharded._INLINE) == inline
            assert (backend is service._serve_backend) != inline
            stats = service.stats()
            assert stats["scatter_hops"] == (0 if inline else expected)
            assert stats["misses_walked_inline"] == (misses if inline else 0)
        monkeypatch.undo()      # the reference walks its batch inline
        with _service(graph, "serial") as reference:
            _assert_byte_equal(reference.run_batch(QUERIES), answers)

    def test_processes_ships_one_task_per_run(self, monkeypatch):
        """The one ``processes`` example: a batch over the grain reaches a
        real pool as ``min(workers, misses, work // grain)`` tasks, and its
        answers are byte-equal to the inline walk's, before and after an
        update."""
        misses = _misses(QUERIES)
        work = misses * PARAMS.query_walkers * (PARAMS.walk_steps + 1)
        monkeypatch.setattr(sharded, "SCATTER_GRAIN", work // 2)
        graph = _graph()
        before = _segments()
        with _service(graph, "serial") as reference, \
                _service(graph, "processes") as service:
            for edges in ([], [(0, 7), (40, 3)]):
                for each in (reference, service):
                    if edges:
                        each.add_edges(edges)
                answers = service.run_batch(QUERIES)
                assert len(service._serve_backend.last_payload_bytes) == 2
                _assert_byte_equal(reference.run_batch(QUERIES), answers)
            assert service.stats()["scatter_hops"] == 4
            assert service.stats()["misses_walked_inline"] == 0
        assert _segments() <= before


class TestCountersAreDeterministic:
    # 300 walker-steps a miss: the 8-source batches carry 2 400, the two
    # sources 600.
    STREAM = [
        [SourceQuery(node) for node in range(0, 40, 5)],
        QUERIES,
        QUERIES,                                          # all cached
        [TopKQuery(node, k=3) for node in range(50, 58)],
        [SourceQuery(60), SourceQuery(61)],
    ]

    def _replay(self, backend):
        with _service(_graph(), backend, workers=3,
                      cache_capacity=64) as service:
            for queries in self.STREAM:
                service.run_batch(queries)
            service.add_edges([(0, 50), (51, 1)])
            for queries in self.STREAM:
                service.run_batch(queries)
            stats = service.stats()
        return {key: stats[key] for key in (
            "scatter_hops", "misses_walked_inline", "sources_simulated")}

    def test_same_stream_same_counters(self, monkeypatch):
        """The rule reads no clock: replaying a stream gives equal counters.
        The grain is set so the stream mixes inline and pool batches."""
        monkeypatch.setattr(sharded, "SCATTER_GRAIN", 1_000)
        pool = _serial_pool(monkeypatch, 3)
        first, second = self._replay(pool), self._replay(pool)
        assert first == second
        assert first["scatter_hops"] > 0
        assert 0 < first["misses_walked_inline"] < first["sources_simulated"]

    def test_below_grain_stream_makes_no_hop_on_processes(self):
        counters = self._replay("processes")
        assert counters["scatter_hops"] == 0
        assert counters["misses_walked_inline"] == counters["sources_simulated"]
        assert counters["sources_simulated"] > 0
