"""Tests for cross-connection batch coalescing (``service/coalesce.py``).

The coalescer is pure asyncio plumbing around ``run_batch``; these tests
pin its contracts against a real (tiny) service: combined execution with
per-submission answer slicing, bitwise identity with the uncoalesced path,
the size rule that closes a batch once the submissions waiting at the end
of the last one are back,
admission control, isolation of a bad submission from its batch-mates,
and the drain-don't-drop shutdown.
"""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.config import SimRankParams
from repro.errors import NodeNotFoundError, ServiceOverloadedError
from repro.graph import generators
from repro.service import BatchCoalescer, PairQuery, QueryService, TopKQuery
from repro.service.service import BatchAnswers

PARAMS = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                       index_walkers=15, query_walkers=40, seed=11)


@pytest.fixture(scope="module")
def service():
    graph = generators.copying_model_graph(70, out_degree=4, seed=9)
    built = QueryService.build(graph, PARAMS)
    yield built
    built.close()


def _run(coro):
    return asyncio.run(coro)


def _assert_equal(expected, answers):
    for left, right in zip(expected, answers):
        if isinstance(left, (float, list)):
            assert left == right
        else:
            assert np.array_equal(left, right)


async def _prime(coalescer, size):
    """Run one batch of ``size`` lone submissions, so the next batch waits
    (up to the window) until it holds ``size`` submissions too."""
    before = coalescer.stats()["batches"]
    await asyncio.gather(*[coalescer.submit([PairQuery(slot, slot + 1)])
                           for slot in range(size)])
    assert coalescer.stats()["batches"] == before + 1


def test_concurrent_submissions_coalesce_into_one_batch(service):
    submissions = [[PairQuery(2 * slot, 2 * slot + 1), TopKQuery(slot, k=3)]
                   for slot in range(5)]
    expected = [service.run_batch(queries) for queries in submissions]

    async def scenario():
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = BatchCoalescer(service, executor, window=0.05)
            coalescer.start()
            try:
                results = await asyncio.gather(*[
                    coalescer.submit(queries) for queries in submissions
                ])
            finally:
                await coalescer.stop()
            return results, coalescer.stats()

    results, stats = _run(scenario())
    for queries, reference, answers in zip(submissions, expected, results):
        assert len(answers) == len(queries)
        _assert_equal(reference, answers)
        assert answers.index_version == reference.index_version
    # All five submissions landed in ONE combined run_batch.
    assert stats["batches"] == 1
    assert stats["coalesced_submissions"] == 4
    assert stats["submissions"] == 5
    assert stats["in_flight"] == 0


def test_zero_window_still_answers(service):
    queries = [PairQuery(1, 2)]
    expected = service.run_batch(queries)

    async def scenario():
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = BatchCoalescer(service, executor, window=0.0)
            coalescer.start()
            try:
                return await coalescer.submit(queries)
            finally:
                await coalescer.stop()

    _assert_equal(expected, _run(scenario()))


def test_admission_control_rejects_past_max_in_flight(service):
    async def scenario():
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = BatchCoalescer(service, executor, window=0.2,
                                       max_in_flight=4)
            coalescer.start()
            try:
                # After a batch of two, a lone submission waits in the
                # collector for a batch-mate, still counted in flight.
                await _prime(coalescer, 2)
                first = asyncio.ensure_future(
                    coalescer.submit([PairQuery(0, 1), PairQuery(2, 3),
                                      PairQuery(4, 5)])
                )
                await asyncio.sleep(0.01)  # let the first submission queue
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    await coalescer.submit([PairQuery(6, 7), PairQuery(8, 9)])
                answers = await first
                return answers, excinfo.value, coalescer.stats()
            finally:
                await coalescer.stop()

    answers, error, stats = _run(scenario())
    assert len(answers) == 3  # the admitted submission still resolved
    assert error.current == 3
    assert error.bound == 4
    assert "retry with backoff" in str(error)
    assert stats["rejected_submissions"] == 1


def test_bad_submission_is_isolated_from_batch_mates(service):
    good = [PairQuery(3, 4)]
    bad = [PairQuery(0, 10**6)]
    expected = service.run_batch(good)

    async def scenario():
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = BatchCoalescer(service, executor, window=0.05)
            coalescer.start()
            try:
                results = await asyncio.gather(
                    coalescer.submit(good), coalescer.submit(bad),
                    return_exceptions=True,
                )
            finally:
                await coalescer.stop()
            return results, coalescer.stats()

    (good_answers, bad_outcome), stats = _run(scenario())
    _assert_equal(expected, good_answers)
    assert isinstance(bad_outcome, NodeNotFoundError)
    # The combined batch failed and was split per submission.
    assert stats["isolation_retries"] == 2


def test_lone_bad_submission_gets_its_error_without_retry(service):
    async def scenario():
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = BatchCoalescer(service, executor, window=0.0)
            coalescer.start()
            try:
                with pytest.raises(NodeNotFoundError):
                    await coalescer.submit([PairQuery(0, 10**6)])
            finally:
                await coalescer.stop()
            return coalescer.stats()

    stats = _run(scenario())
    assert stats["isolation_retries"] == 0


def test_stop_drains_queued_submissions_instead_of_dropping(service):
    queries = [PairQuery(5, 6)]
    expected = service.run_batch(queries)

    async def scenario():
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = BatchCoalescer(service, executor, window=5.0)
            coalescer.start()
            # After a batch of two, submit one, then stop while the
            # collector still waits inside its 5-second window for a
            # second: stop must execute the queued submission, not
            # abandon it.
            await _prime(coalescer, 2)
            task = asyncio.ensure_future(coalescer.submit(queries))
            await asyncio.sleep(0.01)
            await coalescer.stop()
            answers = await task
            # After the stop, new submissions are refused.
            with pytest.raises(ServiceOverloadedError):
                await coalescer.submit(queries)
            return answers

    _assert_equal(expected, _run(scenario()))


def test_stop_is_idempotent(service):
    async def scenario():
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = BatchCoalescer(service, executor, window=0.0)
            coalescer.start()
            await coalescer.stop()
            await coalescer.stop()

    _run(scenario())


def test_lone_submission_after_batch_of_one_does_not_wait(service):
    queries = [PairQuery(1, 2)]
    expected = service.run_batch(queries)

    async def scenario():
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = BatchCoalescer(service, executor, window=5.0)
            coalescer.start()
            try:
                await coalescer.submit(queries)  # a batch of one
                started = time.perf_counter()
                answers = await coalescer.submit(queries)
                return answers, time.perf_counter() - started, \
                    coalescer.stats()
            finally:
                await coalescer.stop()

    answers, elapsed, stats = _run(scenario())
    _assert_equal(expected, answers)
    assert elapsed < 1.0, "a lone submission waited out the window"
    assert stats["batches"] == 2
    assert stats["closed_early"] == 2 and stats["closed_at_window"] == 0


def test_batch_closes_at_the_last_batch_size_before_the_window(service):
    async def scenario():
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = BatchCoalescer(service, executor, window=5.0)
            coalescer.start()
            try:
                await _prime(coalescer, 2)
                started = time.perf_counter()
                first = asyncio.ensure_future(
                    coalescer.submit([PairQuery(3, 4)]))
                await asyncio.sleep(0.05)  # the collector holds the first
                await coalescer.submit([PairQuery(5, 6)])
                await first
                return time.perf_counter() - started, coalescer.stats()
            finally:
                await coalescer.stop()

    elapsed, stats = _run(scenario())
    # The two late submissions formed ONE batch, closed as soon as it was
    # as large as the priming batch, not when the window ran out.
    assert stats["batches"] == 2
    assert stats["coalesced_submissions"] == 2
    assert elapsed < 1.0, "the batch waited out the window"
    assert stats["closed_early"] == 2 and stats["closed_at_window"] == 0


def test_window_bounds_the_wait_for_a_missing_batch_mate(service):
    async def scenario():
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = BatchCoalescer(service, executor, window=0.05)
            coalescer.start()
            try:
                await _prime(coalescer, 2)
                await coalescer.submit([PairQuery(3, 4)])  # nobody follows
                return coalescer.stats()
            finally:
                await coalescer.stop()

    stats = _run(scenario())
    assert stats["batches"] == 2
    assert stats["closed_early"] == 1 and stats["closed_at_window"] == 1


class _SlowService:
    """Answers every pair ``0.0`` after a fixed pause, like a busy batch."""

    def __init__(self, seconds):
        self.seconds = seconds

    def run_batch(self, queries):
        time.sleep(self.seconds)
        return BatchAnswers([0.0] * len(queries), 1)


def test_clients_knocked_out_of_step_batch_together_again():
    """Two closed-loop clients, one of which stalls past the window once.

    The stall leaves their requests alternating, each arriving while the
    other's batch runs.  Counting the submission queued behind a batch
    makes the next batch wait for its partner, so they share batches
    again at once; sized by the batch alone, every later batch would hold
    one submission.
    """
    rounds = 40

    async def client(coalescer, stall_at):
        for turn in range(rounds):
            await coalescer.submit([PairQuery(0, 1)])
            await asyncio.sleep(0.1 if turn == stall_at else 0.001)

    async def scenario():
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = BatchCoalescer(_SlowService(0.01), executor,
                                       window=0.05)
            coalescer.start()
            try:
                await asyncio.gather(client(coalescer, None),
                                     client(coalescer, 2))
            finally:
                await coalescer.stop()
            return coalescer.stats()

    stats = _run(scenario())
    assert stats["submissions"] == 2 * rounds
    # In step, a round is one batch.  While its partner stalls (0.1 s),
    # the other client runs about six batches alone; out of step for good,
    # the rounds after the stall would take two batches each.
    assert stats["batches"] <= rounds + 12, stats
