"""Cross-connection batch coalescing for the networked serving tier.

The in-process services already deduplicate the sources *within* one batch
(:func:`repro.service.batching.plan_batch`), but a network edge receives
queries one connection at a time — submitted individually, nothing would
ever share a batch and every hot source would be simulated once per client.
:class:`BatchCoalescer` closes that gap: concurrent submissions are queued,
collected until the batch holds as many submissions as were waiting when
the previous batch finished (for at most ``ServiceParams.coalesce_window``
seconds) and executed as ONE ``run_batch`` call, so the existing planner
dedups sources *across connections* and the scatter fans out once.  While
a batch executes on the worker strand, new submissions keep queueing —
under load the coalescer batches naturally even with a zero window.

Admission control lives here too: a submission that would push the number
of admitted-but-unanswered queries past ``max_in_flight`` is refused with
:class:`~repro.errors.ServiceOverloadedError` instead of queued, bounding
queue memory and tail latency under overload (the HTTP tier maps the
refusal to a 503).

Everything in this module runs on one asyncio event loop; the only code
that leaves the loop is the service call itself, dispatched to a caller-
supplied executor so a non-thread-safe service can be serialised on a
single worker strand.  Determinism is untouched: merging queries into one
batch changes only which ``run_batch`` call answers them — every source
still consumes its own ``(seed, source)`` stream, so coalesced answers are
bitwise-identical to sequential ones (pinned by the HTTP benchmark).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ServiceOverloadedError
from repro.service.batching import Query
from repro.service.service import BatchAnswers

_STOP = object()


class _Submission:
    """One client's queries plus the future its answers resolve."""

    __slots__ = ("queries", "future")

    def __init__(self, queries: List[Query],
                 future: "asyncio.Future[BatchAnswers]") -> None:
        self.queries = queries
        self.future = future


class BatchCoalescer:
    """Collects concurrent query submissions into combined service batches.

    Parameters
    ----------
    service:
        Any object with the :meth:`~repro.service.QueryService.run_batch`
        surface.  Called only from ``executor`` threads, never the loop.
    executor:
        The worker strand(s) ``run_batch`` runs on.  Pass a single-worker
        executor for a non-thread-safe service; the coalescer itself never
        runs two batches concurrently either way (one collector task).
    window:
        Upper bound, in seconds, on how long a batch keeps collecting
        after its first submission while it is still smaller than its
        target (see :meth:`_collect_forever`).  ``0`` executes whatever
        has queued immediately.
    max_in_flight:
        Bound on admitted-but-unanswered queries; beyond it
        :meth:`submit` raises :class:`~repro.errors.ServiceOverloadedError`.

    Use :meth:`start` / :meth:`stop` (or the HTTP tier, which owns one of
    these) around a serving period; :meth:`stop` drains queued submissions
    rather than dropping them.
    """

    def __init__(self, service: Any, executor: Executor, *,
                 window: float = 0.002, max_in_flight: int = 64) -> None:
        self.service = service
        self.window = float(window)
        self.max_in_flight = int(max_in_flight)
        self._executor = executor
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._collector: Optional["asyncio.Task[None]"] = None
        self._stopping = False
        self._in_flight = 0
        #: Submissions waiting when the last batch finished: the size the
        #: next batch collects up to.
        self._target = 0
        self._counters: Dict[str, int] = {
            "submissions": 0, "batches": 0, "coalesced_submissions": 0,
            "rejected_submissions": 0, "isolation_retries": 0,
            "closed_early": 0, "closed_at_window": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn the collector task on the running event loop."""
        if self._collector is None:
            self._stopping = False
            self._collector = asyncio.get_running_loop().create_task(
                self._collect_forever()
            )

    async def stop(self) -> None:
        """Refuse new submissions, then DRAIN the queue before returning.

        Every submission admitted before the stop still executes and
        resolves its future — shutdown drains in-flight work rather than
        dropping it (pinned by the HTTP shutdown tests).  Idempotent.
        """
        if self._collector is None:
            return
        self._stopping = True
        self._queue.put_nowait(_STOP)
        await self._collector
        self._collector = None

    @property
    def in_flight(self) -> int:
        """Queries admitted and not yet answered."""
        return self._in_flight

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    async def submit(self, queries: Sequence[Query]) -> BatchAnswers:
        """Queue queries for the next coalesced batch; await their answers.

        Returns the submission's own answers (in its input order) carrying
        the ``index_version`` of the combined batch that produced them.
        Raises :class:`~repro.errors.ServiceOverloadedError` when admission
        would exceed ``max_in_flight``, and whatever the service raised for
        this submission's queries (other submissions in the same combined
        batch are unaffected — see :meth:`_execute`).
        """
        queries = list(queries)
        if self._stopping:
            raise ServiceOverloadedError(
                "service is shutting down", self._in_flight, self.max_in_flight
            )
        if self._in_flight + len(queries) > self.max_in_flight:
            self._counters["rejected_submissions"] += 1
            raise ServiceOverloadedError(
                "query admission refused", self._in_flight, self.max_in_flight
            )
        self._in_flight += len(queries)
        self._counters["submissions"] += 1
        future: "asyncio.Future[BatchAnswers]" = (
            asyncio.get_running_loop().create_future()
        )
        self._queue.put_nowait(_Submission(queries, future))
        try:
            return await future
        finally:
            self._in_flight -= len(queries)

    # ------------------------------------------------------------------ #
    # Collector
    # ------------------------------------------------------------------ #
    async def _collect_forever(self) -> None:
        """The single collector loop: gather, execute, repeat.

        A batch closes once it holds as many submissions as were waiting
        when the previous batch finished — that batch's own, plus those
        that queued behind it while it ran — or when the window runs out,
        whichever comes first; whatever else is already queued then joins
        it without a wait.  Closed-loop clients answered together come
        back together, so the next batch is complete when the last of them
        is back, and waiting past that only delays them.  The first batch,
        and any batch after a lone submission with nobody queued behind
        it, runs without waiting.

        Counting the queued submissions keeps clients in step: two clients
        knocked out of step (one stalls past the window once) arrive each
        while the other's batch runs, and sized by the batch alone, every
        later batch would hold one submission.
        """
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            item = await self._queue.get()
            if item is _STOP:
                stopping = True
                batch: List[_Submission] = []
            else:
                batch = [item]
                deadline = loop.time() + self.window
                while len(batch) < self._target:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                    if item is _STOP:
                        stopping = True
                        break
                    batch.append(item)
                if not stopping:
                    closed = ("closed_early" if len(batch) >= self._target
                              else "closed_at_window")
                    self._counters[closed] += 1
            # Take whatever else queued (while collecting, or between the
            # stop flag and the sentinel) without waiting further.
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if item is _STOP:
                    stopping = True
                else:
                    batch.append(item)
            if batch:
                await self._execute(batch)
                self._target = len(batch) + self._queue.qsize()

    async def _execute(self, batch: List[_Submission]) -> None:
        """Run one combined batch and slice the answers per submission.

        The combined list feeds the service's ordinary planner, so sources
        shared between submissions are simulated once.  If the combined
        batch fails (one submission's query references a missing node,
        say), each submission is retried in isolation so one bad client
        cannot fail its batch-mates — only the offending submission gets
        the error.
        """
        loop = asyncio.get_running_loop()
        merged: List[Query] = []
        for submission in batch:
            merged.extend(submission.queries)
        self._counters["batches"] += 1
        self._counters["coalesced_submissions"] += len(batch) - 1
        try:
            answers = await loop.run_in_executor(
                self._executor, self.service.run_batch, merged
            )
        except Exception as exc:  # noqa: BLE001 — isolated and forwarded
            if len(batch) == 1:
                # Nothing to isolate: the combined batch WAS the submission.
                if not batch[0].future.cancelled():
                    batch[0].future.set_exception(exc)
                return
            for submission in batch:
                self._counters["isolation_retries"] += 1
                if submission.future.cancelled():
                    continue
                try:
                    own = await loop.run_in_executor(
                        self._executor, self.service.run_batch,
                        submission.queries,
                    )
                except Exception as exc:  # noqa: BLE001 — forwarded
                    submission.future.set_exception(exc)
                else:
                    submission.future.set_result(own)
            return
        offset = 0
        for submission in batch:
            size = len(submission.queries)
            if not submission.future.cancelled():
                submission.future.set_result(BatchAnswers(
                    answers[offset:offset + size], answers.index_version
                ))
            offset += size

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Coalescing counters: submissions, batches, rejections, retries.

        ``closed_early`` counts batches that reached their target (see
        :meth:`_collect_forever`) before the window ran out, a batch that
        had nothing to wait for included; ``closed_at_window`` counts
        those the window closed.  A batch closed by :meth:`stop` counts in
        neither.
        """
        return {**self._counters, "in_flight": self._in_flight}

    def __repr__(self) -> str:
        return (
            f"BatchCoalescer(window={self.window}, "
            f"max_in_flight={self.max_in_flight}, "
            f"in_flight={self._in_flight}, "
            f"batches={self._counters['batches']})"
        )
