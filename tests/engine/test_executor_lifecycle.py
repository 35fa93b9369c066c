"""Executor backend pool lifecycle: persistence, close(), reuse.

The backends are long-lived now (a service scatters through the same pool
on every batch), so the lifecycle is part of the contract: pools persist
across ``run`` calls, ``close`` releases them, a closed backend
transparently recreates its pool on the next ``run``, and the
context-manager form closes on exit.
"""

import os
from concurrent.futures import BrokenExecutor
from functools import partial

import pytest

from repro.engine.executor import ProcessBackend, SerialBackend
from repro.errors import ConfigurationError


def _double(value):
    return value * 2


def _die_hard():
    os._exit(13)  # kills the worker process, breaking the pool


class TestProcessBackendLifecycle:
    def test_pool_persists_across_runs_and_cm_closes(self):
        with ProcessBackend(max_workers=2) as backend:
            assert backend.run([partial(_double, 2)]) == [4]
            pool = backend._pool
            assert pool is not None
            assert backend.run([partial(_double, 3), partial(_double, 4)]) \
                == [6, 8]
            assert backend._pool is pool, "workers must not re-fork per run"
        assert backend._pool is None

    def test_unpicklable_task_fails_before_spawning_workers(self):
        backend = ProcessBackend(max_workers=2)
        local = 7
        with pytest.raises(ConfigurationError, match="not picklable"):
            backend.run([lambda: local])
        assert backend._pool is None, (
            "a rejected batch must not leave a worker pool behind"
        )

    def test_broken_pool_is_discarded_and_next_run_recovers(self):
        backend = ProcessBackend(max_workers=1)
        with pytest.raises(BrokenExecutor):
            backend.run([_die_hard])
        assert backend._pool is None, (
            "a broken pool must be discarded, not kept to poison later runs"
        )
        assert backend.run([partial(_double, 4)]) == [8]
        backend.close()

    def test_close_idempotent_and_revives(self):
        backend = ProcessBackend(max_workers=1)
        assert backend.run([partial(_double, 5)]) == [10]
        backend.close()
        assert backend._pool is None
        backend.close()
        assert backend.run([partial(_double, 6)]) == [12]
        backend.close()


class TestSerialBackendLifecycle:
    def test_close_is_noop_and_cm_works(self):
        with SerialBackend() as backend:
            assert backend.run([lambda: 7]) == [7]
        backend.close()
        assert backend.run([lambda: 8]) == [8]
