"""Outside-in span tracing for the spine benchmark.

Nothing under ``src/`` knows about tracing.  :func:`install` rebinds the
public entry points of each layer — a module attribute at its import site
(``repro.service.service.plan_batch``) or a method on its class
(``WalkDistributionCache.get``) — to a wrapper that records one span per
call, and the returned ``uninstall`` puts the originals back.  A span is
``(id, parent, request, name, start, end, attrs)``: ``parent`` is the span
that was open in the same thread / asyncio task when this one started,
``request`` is inherited from the root span of the call tree, and times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC, so spans of the benchmark
process and of a traced server child share one time axis).  Spans stay in
memory until :func:`dump_spans`.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One recorded call; ``attrs`` may be filled in while it is open."""

    __slots__ = ("id", "parent", "request", "name", "start", "end", "attrs")

    def __init__(self, id: int, parent: Optional[int], request: Any,
                 name: str, start: float) -> None:
        self.id = id
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_record(self) -> Dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "request": self.request,
                "name": self.name, "start": self.start, "end": self.end,
                **self.attrs}


class Tracer:
    """Collects spans while :attr:`enabled`; wrappers pass through otherwise."""

    def __init__(self, id_prefix: int = 0) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        # Ids of a traced server child start at a high offset so they can
        # never collide with the benchmark process's when files are merged.
        self._ids = itertools.count(id_prefix + 1)
        self._current: contextvars.ContextVar[Optional[Span]] = \
            contextvars.ContextVar("spine_current_span", default=None)

    @contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[Optional[Span]]:
        """Record the enclosed block as one span (no-op while disabled)."""
        if not self.enabled:
            yield None
            return
        parent = self._current.get()
        span_id = next(self._ids)
        if request is None:
            # A tree without an explicit request id (a coalesced server
            # batch, a set-up call) is identified by its root span.
            request = parent.request if parent is not None else f"r{span_id}"
        span = Span(span_id, parent.id if parent is not None else None,
                    request, name, time.perf_counter())
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(span)

    def wrap(self, name: str, function: Callable,
             annotate: Optional[Callable[[Span, tuple, Any], None]] = None
             ) -> Callable:
        """``function`` recorded as span ``name`` on every call.

        ``annotate(span, args, result)`` may attach counts to the span —
        ratios are measured where the work happens.
        """
        if asyncio.iscoroutinefunction(function):
            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                with self.span(name):
                    return await function(*args, **kwargs)
            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            with self.span(name) as span:
                result = function(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, result)
                return result
        return wrapper


def dump_spans(spans: List[Span], path) -> None:
    """Write spans as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_record()) + "\n")


def load_spans(path) -> List[Span]:
    """Read spans written by :func:`dump_spans` (a traced server child's)."""
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            span = Span(record.pop("id"), record.pop("parent"),
                        record.pop("request"), record.pop("name"),
                        record.pop("start"))
            span.end = record.pop("end")
            span.attrs = record
            spans.append(span)
    return spans


def self_seconds(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus what direct children cover."""
    own = {span.id: span.seconds for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.seconds
    return own


def _annotate_scatter(span: Span, args: tuple, outcomes: Any) -> None:
    """Task count, kind and worker seconds of one ``run_shard_tasks`` call."""
    tasks = args[1]
    first = next(iter(tasks.values()), None)
    function = getattr(first, "func", first)
    label = getattr(function, "__name__", "")
    span.attrs["kind"] = ("simulate" if "simulate" in label
                          else "rank" if "rank" in label else "build")
    seconds = [outcome[1] for outcome in outcomes.values()]
    span.attrs["tasks"] = len(seconds)
    span.attrs["task_max"] = max(seconds, default=0.0)
    span.attrs["task_sum"] = sum(seconds)


def _annotate_simulate(span: Span, args: tuple, result: Any) -> None:
    span.attrs["sources"] = len(result)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's public entry points; returns the ``uninstall``."""
    import repro.core.montecarlo as montecarlo
    import repro.core.sharding as core_sharding
    import repro.service.http as http
    import repro.service.service as service
    import repro.service.sharded as sharded
    from repro.core.queries import QueryEngine
    from repro.engine.executor import ExecutorBackend
    from repro.service.cache import WalkDistributionCache
    from repro.service.coalesce import BatchCoalescer

    # http.py renders responses with ``json.dumps``; rebinding the module's
    # ``json`` name to a look-alike times that call without touching the
    # real json module every other caller shares.
    traced_json = types.SimpleNamespace(**{
        name: value for name, value in vars(json).items()
        if not name.startswith("__")})
    traced_json.dumps = tracer.wrap("service.http.encode", json.dumps)
    targets: List[Tuple[Any, str, Any]] = [
        (service, "plan_batch",
         tracer.wrap("service.batching.plan", service.plan_batch)),
        (http, "parse_query",
         tracer.wrap("service.batching.parse", http.parse_query)),
        (http, "encode_answer",
         tracer.wrap("service.http.encode", http.encode_answer)),
        (http, "json", traced_json),
        (montecarlo, "estimate_walk_distributions_batch",
         tracer.wrap("core.montecarlo.simulate",
                     montecarlo.estimate_walk_distributions_batch,
                     _annotate_simulate)),
        (sharded, "run_shard_tasks",
         tracer.wrap("core.sharding.scatter", sharded.run_shard_tasks,
                     _annotate_scatter)),
        (core_sharding, "run_shard_tasks",
         tracer.wrap("core.sharding.build_tasks",
                     core_sharding.run_shard_tasks, _annotate_scatter)),
        (sharded, "merge_top_k",
         tracer.wrap("core.queries.merge", sharded.merge_top_k)),
    ]
    for owner, attribute, name in (
        (WalkDistributionCache, "get", "service.cache.get"),
        (WalkDistributionCache, "put", "service.cache.put"),
        (WalkDistributionCache, "invalidate_sources",
         "service.cache.invalidate"),
        (QueryEngine, "combine_pair", "core.queries.combine_pair"),
        (QueryEngine, "propagate_source", "core.queries.propagate"),
        (ExecutorBackend, "ensure_resident",
         "engine.executor.resident_register"),
        (sharded.ShardedQueryService, "run_batch",
         "service.sharded.run_batch"),
        (sharded.ShardedQueryService, "add_edges",
         "service.updates.add_edges"),
        (BatchCoalescer, "submit", "service.coalesce.submit"),
    ):
        targets.append((owner, attribute,
                        tracer.wrap(name, owner.__dict__[attribute])))

    originals = [(owner, attribute, owner.__dict__[attribute])
                 for owner, attribute, _ in targets]
    for owner, attribute, replacement in targets:
        setattr(owner, attribute, replacement)

    def uninstall() -> None:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)

    return uninstall
