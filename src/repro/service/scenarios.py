"""Traffic-trace scenarios: trace model, generators and the replay driver.

The serving benchmarks historically measured one workload shape — uniform
query batches — which mispredicts both latency and cache behaviour on
the skewed, bursty traffic real deployments see (cf. the Tunable-LSH
observation that workloads drift).  This module closes that gap with three
pieces:

* a **trace model**: a :class:`Trace` is an ordered list of timestamped
  :class:`TraceEvent` records (query events carrying the service's own wire
  grammar, update events carrying edge insertions), serialised one JSON
  object per line so traces are diffable, recordable and replayable.  The
  JSONL form round-trips bitwise: ``parse_trace_line(event.to_json())``
  reproduces the event exactly, and malformed lines fail loudly with their
  line number (mirroring :func:`repro.service.batching.parse_edge`);
* **synthetic generators** (:data:`TRACE_GENERATORS`): uniform traffic,
  Zipf-skewed hot nodes, bursty arrivals, adversarial update storms aimed at
  hot shards, and multi-tenant interleaving — each fully determined by its
  seed;
* a **replay driver**: :func:`replay_trace` runs a trace against an
  in-process :class:`~repro.service.service.QueryService` (any shard
  count) and emits one normalized :class:`ScenarioResult` per run — QPS,
  p50/p99 latency, cache hit rate and an answer checksum built from the
  lossless wire encoding (:func:`repro.service.http.encode_answer`).

Approximate serving (``ServiceParams.accuracy_budget``) plugs in here:
pass ``reference`` (an exact similarity matrix) to the replay driver and
the per-scenario record reports the *realized* error next to the declared
budget.  See ``docs/scenarios.md`` for the runbook.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import ConfigurationError, WireFormatError
from repro.service.batching import (
    PairQuery,
    Query,
    SourceQuery,
    parse_query,
)
from repro.service.http import encode_answer

#: Event kind of a query record (wire-format query line).
QUERY_EVENT = "query"
#: Event kind of an update record (edge insertions).
UPDATE_EVENT = "update"

_EVENT_KINDS = (QUERY_EVENT, UPDATE_EVENT)
_EVENT_FIELDS = {"at", "kind", "tenant", "query", "edges"}
_HEADER_FIELDS = {"kind", "name", "meta"}


def _check_edges(edges: Any) -> Tuple[Tuple[int, int], ...]:
    """Validate and normalise an edge list, mirroring ``parse_edge`` style."""
    if isinstance(edges, (str, bytes)) or not isinstance(edges, Iterable):
        raise WireFormatError(
            f"edges must be a list of [src, dst] pairs, got {edges!r}"
        )
    normalised = []
    for entry in edges:
        if isinstance(entry, (str, bytes)) or not isinstance(entry, Sequence) \
                or len(entry) != 2:
            raise WireFormatError(
                f"malformed edge {entry!r}; expected a [src, dst] pair"
            )
        src, dst = entry
        for node in (src, dst):
            if isinstance(node, bool) or not isinstance(node, int):
                raise WireFormatError(
                    f"malformed edge {entry!r}; node ids must be integers"
                )
            if node < 0:
                raise WireFormatError(
                    f"malformed edge {entry!r}; node ids must be non-negative"
                )
        normalised.append((int(src), int(dst)))
    if not normalised:
        raise WireFormatError("update event carries no edges")
    return tuple(normalised)


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped event of a traffic trace.

    ``kind`` is :data:`QUERY_EVENT` (then ``query`` holds one wire-format
    query line, the same grammar :func:`repro.service.batching.parse_query`
    accepts) or :data:`UPDATE_EVENT` (then ``edges`` holds the inserted
    ``(src, dst)`` pairs).  ``at`` is the arrival offset in seconds from
    trace start; ``tenant`` labels the originating client stream in
    multi-tenant traces.  Construction validates eagerly and raises
    :class:`repro.errors.WireFormatError` on malformed content, so a bad
    event can never be serialised in the first place.
    """

    at: float
    kind: str
    query: Optional[str] = None
    edges: Tuple[Tuple[int, int], ...] = ()
    tenant: str = "default"

    def __post_init__(self) -> None:
        if isinstance(self.at, bool) or not isinstance(self.at, (int, float)):
            raise WireFormatError(
                f"event timestamp must be a number, got {self.at!r}"
            )
        if not math.isfinite(self.at) or self.at < 0:
            raise WireFormatError(
                f"event timestamp must be finite and >= 0, got {self.at!r}"
            )
        object.__setattr__(self, "at", float(self.at))
        if self.kind not in _EVENT_KINDS:
            raise WireFormatError(
                f"unknown event kind {self.kind!r}; expected one of "
                f"{_EVENT_KINDS}"
            )
        if not isinstance(self.tenant, str) or not self.tenant \
                or "\n" in self.tenant:
            raise WireFormatError(
                f"tenant must be a non-empty single-line string, "
                f"got {self.tenant!r}"
            )
        if self.kind == QUERY_EVENT:
            if self.edges:
                raise WireFormatError(
                    f"query event must not carry edges, got {self.edges!r}"
                )
            if not isinstance(self.query, str) or not self.query:
                raise WireFormatError(
                    f"query event needs a wire-format query line, "
                    f"got {self.query!r}"
                )
            parse_query(self.query)  # raises WireFormatError when malformed
        else:
            if self.query is not None:
                raise WireFormatError(
                    f"update event must not carry a query, got {self.query!r}"
                )
            object.__setattr__(self, "edges", _check_edges(self.edges))

    def to_json(self) -> str:
        """Serialise to one JSONL line with a fixed key order.

        The key order and JSON float rendering (``repr``, which round-trips
        IEEE doubles exactly) are both deterministic, so
        ``parse_trace_line(event.to_json()).to_json()`` reproduces the line
        byte for byte.
        """
        record: Dict[str, Any] = {"at": self.at, "kind": self.kind,
                                  "tenant": self.tenant}
        if self.kind == QUERY_EVENT:
            record["query"] = self.query
        else:
            record["edges"] = [[src, dst] for src, dst in self.edges]
        return json.dumps(record)


def parse_trace_line(text: str, line_number: Optional[int] = None) -> TraceEvent:
    """Parse one JSONL trace line into a :class:`TraceEvent`.

    Malformed lines raise :class:`repro.errors.WireFormatError` naming the
    line number (when given) and the offending content — the same
    fail-loudly contract as :func:`repro.service.batching.parse_edge`.
    """
    tag = f"trace line {line_number}" if line_number is not None else "trace line"
    try:
        record = json.loads(text)
    except ValueError as exc:
        raise WireFormatError(
            f"{tag}: not valid JSON ({exc}) in {text!r}"
        ) from exc
    if not isinstance(record, dict):
        raise WireFormatError(
            f"{tag}: expected a JSON object, got {text!r}"
        )
    unknown = set(record) - _EVENT_FIELDS
    if unknown:
        raise WireFormatError(
            f"{tag}: unexpected fields {sorted(unknown)} in {text!r}"
        )
    try:
        return TraceEvent(
            at=record.get("at"),
            kind=record.get("kind"),
            query=record.get("query"),
            edges=record.get("edges") or (),
            tenant=record.get("tenant", "default"),
        )
    except WireFormatError as exc:
        raise WireFormatError(f"{tag}: {exc}") from exc


@dataclass(frozen=True)
class Trace:
    """An ordered traffic trace: header metadata plus timestamped events.

    Events must be sorted by non-decreasing ``at``; ``meta`` carries the
    generator's provenance (scenario name, seed, shape knobs) and must be
    JSON-serialisable.
    """

    name: str
    events: Tuple[TraceEvent, ...]
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise WireFormatError(
                f"trace name must be a non-empty string, got {self.name!r}"
            )
        object.__setattr__(self, "events", tuple(self.events))
        previous = 0.0
        for position, event in enumerate(self.events):
            if event.at < previous:
                raise WireFormatError(
                    f"trace {self.name!r}: event {position} timestamp "
                    f"{event.at} decreases below {previous}"
                )
            previous = event.at

    @property
    def n_queries(self) -> int:
        """Number of query events."""
        return sum(1 for event in self.events if event.kind == QUERY_EVENT)

    @property
    def n_updates(self) -> int:
        """Number of update events."""
        return sum(1 for event in self.events if event.kind == UPDATE_EVENT)

    @property
    def duration(self) -> float:
        """Arrival offset of the last event (0.0 for an empty trace)."""
        return self.events[-1].at if self.events else 0.0

    def header_json(self) -> str:
        """Serialise the header record (name + meta) to one JSONL line."""
        return json.dumps({"kind": "trace", "name": self.name,
                           "meta": self.meta})


def trace_from_lines(lines: Iterable[str], source: str = "<memory>") -> Trace:
    """Parse JSONL lines (optionally led by a header record) into a trace.

    Blank lines are skipped; any malformed line raises
    :class:`repro.errors.WireFormatError` with its 1-based line number.
    ``source`` names the origin (file path) in error messages.
    """
    name = "trace"
    meta: Dict[str, Any] = {}
    events: List[TraceEvent] = []
    saw_header = False
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if not saw_header and not events:
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise WireFormatError(
                    f"{source}: trace line {line_number}: not valid JSON "
                    f"({exc}) in {line!r}"
                ) from exc
            if isinstance(record, dict) and record.get("kind") == "trace":
                unknown = set(record) - _HEADER_FIELDS
                if unknown:
                    raise WireFormatError(
                        f"{source}: trace line {line_number}: unexpected "
                        f"header fields {sorted(unknown)} in {line!r}"
                    )
                header_name = record.get("name")
                if not isinstance(header_name, str) or not header_name:
                    raise WireFormatError(
                        f"{source}: trace line {line_number}: header name "
                        f"must be a non-empty string, got {header_name!r}"
                    )
                header_meta = record.get("meta", {})
                if not isinstance(header_meta, dict):
                    raise WireFormatError(
                        f"{source}: trace line {line_number}: header meta "
                        f"must be an object, got {header_meta!r}"
                    )
                name, meta, saw_header = header_name, header_meta, True
                continue
        try:
            events.append(parse_trace_line(line, line_number))
        except WireFormatError as exc:
            raise WireFormatError(f"{source}: {exc}") from exc
    try:
        return Trace(name=name, events=tuple(events), meta=meta)
    except WireFormatError as exc:
        raise WireFormatError(f"{source}: {exc}") from exc


def read_trace(path: Any) -> Trace:
    """Read a JSONL trace file written by :func:`write_trace`."""
    with open(path, "r", encoding="utf-8") as handle:
        return trace_from_lines(handle.read().splitlines(), source=str(path))


def write_trace(trace: Trace, path: Any) -> None:
    """Write a trace as JSONL: one header record, then one line per event."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace.header_json() + "\n")
        for event in trace.events:
            handle.write(event.to_json() + "\n")


# --------------------------------------------------------------------------- #
# Synthetic generators
# --------------------------------------------------------------------------- #
def _normalised_mix(mix: Sequence[float]) -> np.ndarray:
    weights = np.asarray(mix, dtype=np.float64)
    if weights.shape != (3,) or (weights < 0).any() or weights.sum() <= 0:
        raise ConfigurationError(
            f"mix must be three non-negative weights (pair, source, topk), "
            f"got {mix!r}"
        )
    return weights / weights.sum()


def _query_line(rng: np.random.Generator, source: int, n_nodes: int,
                mix: np.ndarray, top_k: int) -> str:
    """One wire-format query line for ``source``, drawn from the mix."""
    kind = int(rng.choice(3, p=mix))
    if kind == 0:
        target = int(rng.integers(0, n_nodes))
        return f"pair {source} {target}"
    if kind == 1:
        return f"source {source}"
    return f"topk {source} {top_k}"


def _zipf_weights(n_nodes: int, skew: float) -> np.ndarray:
    ranks = np.arange(1, n_nodes + 1, dtype=np.float64)
    weights = ranks ** -float(skew)
    return weights / weights.sum()


def uniform_trace(n_nodes: int, n_events: int = 200, qps: float = 200.0,
                  mix: Sequence[float] = (0.6, 0.1, 0.3), top_k: int = 10,
                  seed: int = 0, name: str = "uniform") -> Trace:
    """Uniform traffic: Poisson arrivals, sources drawn uniformly.

    The baseline every other scenario is compared against — no skew, no
    bursts, a fixed pair/source/top-k ``mix``.
    """
    weights = _normalised_mix(mix)
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / qps, size=n_events))
    events = [
        TraceEvent(
            at=float(arrivals[position]), kind=QUERY_EVENT,
            query=_query_line(rng, int(rng.integers(0, n_nodes)), n_nodes,
                              weights, top_k),
        )
        for position in range(n_events)
    ]
    return Trace(name=name, events=tuple(events),
                 meta={"scenario": name, "n_nodes": n_nodes,
                       "n_events": n_events, "qps": qps, "seed": seed})


def zipf_trace(n_nodes: int, n_events: int = 200, skew: float = 1.1,
               qps: float = 200.0, mix: Sequence[float] = (0.5, 0.1, 0.4),
               top_k: int = 10, seed: int = 0, name: str = "zipf") -> Trace:
    """Zipf-skewed hot nodes: a few sources dominate the traffic.

    Node popularity follows a Zipf law with exponent ``skew`` over a seeded
    random permutation of the node ids, so the hot set is scattered across
    id space (and hence across contiguous shard ranges) — the shape that
    exercises caching and load accounting.
    """
    weights = _normalised_mix(mix)
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(n_nodes)
    popularity = _zipf_weights(n_nodes, skew)
    arrivals = np.cumsum(rng.exponential(1.0 / qps, size=n_events))
    sources = rng.choice(permutation, size=n_events, p=popularity)
    events = [
        TraceEvent(
            at=float(arrivals[position]), kind=QUERY_EVENT,
            query=_query_line(rng, int(sources[position]), n_nodes, weights,
                              top_k),
        )
        for position in range(n_events)
    ]
    return Trace(name=name, events=tuple(events),
                 meta={"scenario": name, "n_nodes": n_nodes,
                       "n_events": n_events, "skew": skew, "qps": qps,
                       "seed": seed})


def bursty_trace(n_nodes: int, n_events: int = 200, burst_size: int = 16,
                 burst_gap: float = 0.2, intra_gap: float = 0.0005,
                 mix: Sequence[float] = (0.6, 0.1, 0.3), top_k: int = 10,
                 seed: int = 0, name: str = "bursty") -> Trace:
    """Bursty arrivals: quiet gaps punctuated by near-simultaneous bursts.

    Every burst packs ``burst_size`` queries ``intra_gap`` seconds apart;
    bursts start ``burst_gap`` seconds apart.  The worst case for admission
    control and the best case for batch coalescing.
    """
    weights = _normalised_mix(mix)
    rng = np.random.default_rng(seed)
    events = []
    for position in range(n_events):
        burst, offset = divmod(position, burst_size)
        events.append(TraceEvent(
            at=burst * burst_gap + offset * intra_gap, kind=QUERY_EVENT,
            query=_query_line(rng, int(rng.integers(0, n_nodes)), n_nodes,
                              weights, top_k),
        ))
    return Trace(name=name, events=tuple(events),
                 meta={"scenario": name, "n_nodes": n_nodes,
                       "n_events": n_events, "burst_size": burst_size,
                       "burst_gap": burst_gap, "seed": seed})


def update_storm_trace(n_nodes: int, n_events: int = 200,
                       storm_every: int = 25, storm_edges: int = 6,
                       skew: float = 1.1, qps: float = 200.0,
                       top_k: int = 10, seed: int = 0,
                       name: str = "update_storm") -> Trace:
    """Adversarial update storms aimed at the hottest query sources.

    A Zipf-skewed query stream (``n_events`` queries) interleaved with
    bursts of ``storm_edges`` edge insertions every ``storm_every``
    queries.  Each inserted edge points *at* one of the hottest nodes, so
    every storm invalidates exactly the cache entries the query stream
    depends on — the worst case for incremental re-indexing and cache
    effectiveness.
    """
    rng = np.random.default_rng(seed)
    weights = _normalised_mix((0.5, 0.1, 0.4))
    permutation = rng.permutation(n_nodes)
    popularity = _zipf_weights(n_nodes, skew)
    hot = permutation[: max(4, n_nodes // 20)]
    arrivals = np.cumsum(rng.exponential(1.0 / qps, size=n_events))
    sources = rng.choice(permutation, size=n_events, p=popularity)
    events = []
    for position in range(n_events):
        at = float(arrivals[position])
        events.append(TraceEvent(
            at=at, kind=QUERY_EVENT,
            query=_query_line(rng, int(sources[position]), n_nodes, weights,
                              top_k),
        ))
        if (position + 1) % storm_every == 0:
            edges = tuple(
                (int(rng.integers(0, n_nodes)), int(rng.choice(hot)))
                for _ in range(storm_edges)
            )
            events.append(TraceEvent(at=at, kind=UPDATE_EVENT, edges=edges))
    return Trace(name=name, events=tuple(events),
                 meta={"scenario": name, "n_nodes": n_nodes,
                       "n_events": n_events, "storm_every": storm_every,
                       "storm_edges": storm_edges, "skew": skew,
                       "seed": seed})


def multi_tenant_trace(n_nodes: int, n_events: int = 240, tenants: int = 3,
                       qps: float = 300.0, top_k: int = 10, seed: int = 0,
                       name: str = "multi_tenant") -> Trace:
    """Multi-tenant interleaving: independent client streams, merged by time.

    Each tenant runs its own Poisson arrival process with its own traffic
    profile — tenant 0 uniform pair-heavy, tenant 1 Zipf top-k-heavy,
    tenant 2 source-vector scans, further tenants cycling through those
    profiles — and the streams are merged into one timeline.  Exercises the
    cross-client dedup of the batch planner and the coalescer.
    """
    if tenants < 1:
        raise ConfigurationError(f"tenants must be >= 1, got {tenants}")
    rng = np.random.default_rng(seed)
    per_tenant = [n_events // tenants + (1 if t < n_events % tenants else 0)
                  for t in range(tenants)]
    profiles = (
        ("uniform", _normalised_mix((0.8, 0.0, 0.2))),
        ("zipf", _normalised_mix((0.2, 0.0, 0.8))),
        ("scan", _normalised_mix((0.3, 0.5, 0.2))),
    )
    events: List[TraceEvent] = []
    for tenant in range(tenants):
        profile_name, weights = profiles[tenant % len(profiles)]
        count = per_tenant[tenant]
        arrivals = np.cumsum(
            rng.exponential(tenants / qps, size=count)
        )
        if profile_name == "zipf":
            permutation = rng.permutation(n_nodes)
            popularity = _zipf_weights(n_nodes, 1.2)
            sources = rng.choice(permutation, size=count, p=popularity)
        else:
            sources = rng.integers(0, n_nodes, size=count)
        for position in range(count):
            events.append(TraceEvent(
                at=float(arrivals[position]), kind=QUERY_EVENT,
                query=_query_line(rng, int(sources[position]), n_nodes,
                                  weights, top_k),
                tenant=f"tenant-{tenant}",
            ))
    events.sort(key=lambda event: event.at)
    return Trace(name=name, events=tuple(events),
                 meta={"scenario": name, "n_nodes": n_nodes,
                       "n_events": n_events, "tenants": tenants,
                       "qps": qps, "seed": seed})


#: Scenario name -> generator, the registry the CLI and benchmarks draw from.
TRACE_GENERATORS: Dict[str, Callable[..., Trace]] = {
    "uniform": uniform_trace,
    "zipf": zipf_trace,
    "bursty": bursty_trace,
    "update_storm": update_storm_trace,
    "multi_tenant": multi_tenant_trace,
}


def generate_trace(scenario: str, n_nodes: int, **kwargs: Any) -> Trace:
    """Generate a named synthetic trace from :data:`TRACE_GENERATORS`."""
    try:
        generator = TRACE_GENERATORS[scenario]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; choose one of "
            f"{sorted(TRACE_GENERATORS)}"
        ) from None
    return generator(n_nodes, **kwargs)


# --------------------------------------------------------------------------- #
# Replay driver
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioResult:
    """Normalized outcome of one scenario replay.

    ``answer_checksum`` is a SHA-256 over every answer's lossless wire
    encoding in trace order — two replays answered identically if and only
    if their checksums match.  ``realized_*`` error fields are populated
    only when the replay was given a ``reference`` similarity matrix;
    ``accuracy_budget`` echoes the service's declared budget (``None`` in
    exact mode).
    """

    scenario: str
    mode: str
    n_events: int
    n_queries: int
    n_updates: int
    n_batches: int
    duration_seconds: float
    qps: float
    p50_latency_seconds: float
    p99_latency_seconds: float
    cache_hit_rate: float
    answer_checksum: str
    index_versions: Tuple[int, int]
    versions_monotonic: bool
    accuracy_budget: Optional[float]
    realized_mean_error: Optional[float]
    realized_max_error: Optional[float]

    def to_record(self) -> Dict[str, Any]:
        """One JSON-serialisable record for the per-scenario JSONL log."""
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "n_events": self.n_events,
            "n_queries": self.n_queries,
            "n_updates": self.n_updates,
            "n_batches": self.n_batches,
            "duration_seconds": self.duration_seconds,
            "qps": self.qps,
            "p50_latency_seconds": self.p50_latency_seconds,
            "p99_latency_seconds": self.p99_latency_seconds,
            "cache_hit_rate": self.cache_hit_rate,
            "answer_checksum": self.answer_checksum,
            "index_versions": list(self.index_versions),
            "versions_monotonic": self.versions_monotonic,
            "accuracy_budget": self.accuracy_budget,
            "realized_mean_error": self.realized_mean_error,
            "realized_max_error": self.realized_max_error,
        }


def write_records(results: Iterable[ScenarioResult], path: Any) -> None:
    """Append one JSONL record per scenario result to ``path``."""
    with open(path, "a", encoding="utf-8") as handle:
        for result in results:
            handle.write(json.dumps(result.to_record()) + "\n")


def _iter_batches(trace: Trace,
                  batch_size: int) -> Iterator[Tuple[str, Any]]:
    """Group a trace into dispatch units, preserving event order.

    Yields ``("query", [events])`` for runs of at most ``batch_size``
    consecutive query events and ``("update", event)`` for each update
    event.
    """
    batch: List[TraceEvent] = []
    for event in trace.events:
        if event.kind == UPDATE_EVENT:
            if batch:
                yield QUERY_EVENT, batch
                batch = []
            yield UPDATE_EVENT, event
            continue
        if len(batch) >= batch_size:
            yield QUERY_EVENT, batch
            batch = []
        batch.append(event)
    if batch:
        yield QUERY_EVENT, batch


def _accumulate_errors(query: Query, answer: Any, reference: np.ndarray,
                       errors: List[float]) -> None:
    """Per-query absolute error of a wire-encoded answer vs a reference."""
    if isinstance(query, PairQuery):
        errors.append(abs(float(answer)
                          - float(reference[query.source, query.target])))
    elif isinstance(query, SourceQuery):
        scores = np.asarray(answer, dtype=np.float64)
        errors.append(float(np.abs(scores - reference[query.source]).mean()))
    else:
        entries = [(int(node), float(score)) for node, score in answer]
        if entries:
            deltas = [abs(score - float(reference[query.source, node]))
                      for node, score in entries]
            errors.append(float(np.mean(deltas)))


def _finalize(scenario: str, trace: Trace, checksum, latencies,
              n_batches: int, duration: float, versions: List[int],
              stats_before: Dict[str, Any], stats_after: Dict[str, Any],
              errors: List[float],
              budget: Optional[float], mode: str) -> ScenarioResult:
    """Assemble the normalized per-scenario record from raw replay state."""
    hits = stats_after.get("cache_hits", 0) - stats_before.get("cache_hits", 0)
    misses = (stats_after.get("cache_misses", 0)
              - stats_before.get("cache_misses", 0))
    lookups = hits + misses
    latency = np.asarray(latencies, dtype=np.float64)
    monotonic = all(earlier <= later
                    for earlier, later in zip(versions, versions[1:]))
    return ScenarioResult(
        scenario=scenario,
        mode=mode,
        n_events=len(trace.events),
        n_queries=trace.n_queries,
        n_updates=trace.n_updates,
        n_batches=n_batches,
        duration_seconds=duration,
        qps=trace.n_queries / duration if duration > 0 else float("inf"),
        p50_latency_seconds=(float(np.percentile(latency, 50))
                             if latency.size else 0.0),
        p99_latency_seconds=(float(np.percentile(latency, 99))
                             if latency.size else 0.0),
        cache_hit_rate=hits / lookups if lookups else 0.0,
        answer_checksum=checksum.hexdigest(),
        index_versions=(versions[0], versions[-1]) if versions else (0, 0),
        versions_monotonic=monotonic,
        accuracy_budget=budget,
        realized_mean_error=float(np.mean(errors)) if errors else None,
        realized_max_error=float(np.max(errors)) if errors else None,
    )


def _digest_answer(checksum, encoded: Any) -> None:
    """Fold one answer's wire encoding into the running checksum."""
    checksum.update(
        json.dumps(encoded, separators=(",", ":")).encode("ascii")
    )
    checksum.update(b"\n")


def replay_trace(service, trace: Trace, batch_size: int = 32,
                 reference: Optional[np.ndarray] = None) -> ScenarioResult:
    """Replay a trace against an in-process query service.

    Runs of at most ``batch_size`` consecutive query events are answered as
    one batch via ``service.run_batch``; update events are applied in order
    via ``service.add_edges``.  The trace replays as fast as the service
    answers; per-query latency is the wall-clock of the batch that answered
    it.  ``reference`` (an exact similarity matrix, e.g.
    :func:`repro.analysis.accuracy.exact_linearized_matrix`) enables
    realized-error reporting — meaningful only for traces without update
    events, since updates change the ground truth mid-replay.  The replay
    is deterministic for a fixed service seed and backend: two replays of
    the same trace on freshly built services produce identical checksums.
    Raises :class:`repro.errors.ConfigurationError` for ``batch_size < 1``.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    default_k = service.service_params.default_top_k
    checksum = hashlib.sha256()
    latencies: List[float] = []
    errors: List[float] = []
    versions: List[int] = []
    stats_before = service.stats()
    mode = "approximate" if stats_before.get("approx_mode") else "exact"
    n_batches = 0
    start = time.perf_counter()
    for kind, unit in _iter_batches(trace, batch_size):
        if kind == UPDATE_EVENT:
            service.add_edges(list(unit.edges))
            versions.append(service.stats()["index_version"])
            continue
        queries = [parse_query(event.query, default_k=default_k)
                   for event in unit]
        batch_start = time.perf_counter()
        answers = service.run_batch(queries)
        batch_seconds = time.perf_counter() - batch_start
        n_batches += 1
        latencies.extend([batch_seconds] * len(queries))
        versions.append(answers.index_version)
        for query, answer in zip(queries, answers):
            encoded = encode_answer(query, answer)
            _digest_answer(checksum, encoded)
            if reference is not None:
                _accumulate_errors(query, encoded, reference, errors)
    duration = time.perf_counter() - start
    return _finalize(trace.name, trace, checksum, latencies,
                     n_batches, duration, versions, stats_before,
                     service.stats(), errors,
                     service.service_params.accuracy_budget, mode)
