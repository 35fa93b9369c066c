"""Query types and the batch planner of the online service.

A batch of concurrent queries usually references far fewer *distinct* source
nodes than it has queries — recommendation traffic hammers the same hot
items, link-prediction sweeps reuse one endpoint, and so on.  The planner
exploits that: it collects the distributions every query needs and
collapses duplicates; the service simulates the distinct sources its cache
lacks in one vectorised multi-source walk simulation
(:func:`repro.core.walks.simulate_walks_packed`, which alone sizes its
blocks).

Planning is pure bookkeeping — no simulation happens here — so it can be
unit-tested exhaustively and reused by both the library service and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from repro.errors import CloudWalkerError, WireFormatError


@dataclass(frozen=True)
class PairQuery:
    """MCSP: the SimRank score of one ``(source, target)`` pair."""

    source: int
    target: int


@dataclass(frozen=True)
class SourceQuery:
    """MCSS: the full score vector of one source node."""

    source: int


@dataclass(frozen=True)
class TopKQuery:
    """Top-``k`` most similar nodes to ``source`` (by MCSS scores)."""

    source: int
    k: int = 10


Query = Union[PairQuery, SourceQuery, TopKQuery]


def required_sources(query: Query) -> Tuple[int, ...]:
    """The distribution source nodes a query needs simulated.

    A self-pair needs none: ``s(a, a) == 1`` by definition, mirroring the
    shortcut in :meth:`repro.core.queries.QueryEngine.single_pair`.  A pair
    with an endpoint of in-degree 0 needs none either (its score is
    ``0.0``), but that rule needs the graph, which a query alone does not
    carry: the service applies it
    (:func:`repro.core.queries.definitional_pair_score`) and keeps such a
    pair out of the plan, while its endpoints still count here, as load.
    """
    if isinstance(query, PairQuery):
        if query.source == query.target:
            return ()
        return (query.source, query.target)
    if isinstance(query, (SourceQuery, TopKQuery)):
        return (query.source,)
    raise CloudWalkerError(f"unknown query type {type(query).__name__!r}")


@dataclass
class BatchPlan:
    """The execution plan for one batch of queries.

    Attributes
    ----------
    queries:
        The input queries, in submission order (answers keep this order).
    sources:
        Distinct source nodes whose distributions must be available, in
        first-referenced order.  The service resolves these against its
        cache and simulates the misses in one call.
    source_references:
        Total number of (query, source) references before deduplication;
        ``source_references - len(sources)`` simulations are saved by the
        batch alone, before the cache sees anything.
    """

    queries: List[Query]
    sources: List[int]
    source_references: int

    @property
    def deduplicated(self) -> int:
        """Number of walk simulations the plan avoided by sharing sources."""
        return self.source_references - len(self.sources)


def plan_batch(queries: Sequence[Query]) -> BatchPlan:
    """Deduplicate the sources a batch of queries needs, keeping order."""
    seen = set()
    sources: List[int] = []
    references = 0
    for query in queries:
        for node in required_sources(query):
            references += 1
            if node not in seen:
                seen.add(node)
                sources.append(node)
    return BatchPlan(
        queries=list(queries), sources=sources, source_references=references,
    )


def parse_edge(text: str) -> Tuple[int, int]:
    """Parse one edge line of the CLI / wire format: ``<src> <dst>``.

    The update counterpart of :func:`parse_query`: the ``serve`` loop's
    ``add <src> <dst>`` command, the ``update`` subcommand's edge files and
    the HTTP tier's ``POST /update`` edges all go through this, so wire
    validation stays single-sourced.  Rejects anything that is not exactly
    two non-negative integers — surplus tokens and negative ids both raise
    :class:`~repro.errors.WireFormatError` naming the offending input.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise WireFormatError(
            f"malformed edge line {text!r}; expected '<src> <dst>'"
        )
    if len(tokens) > 2:
        raise WireFormatError(
            f"malformed edge line {text!r}; surplus tokens "
            f"{tokens[2:]} after '<src> <dst>'"
        )
    try:
        u, v = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise WireFormatError(f"malformed edge line {text!r}: {exc}") from exc
    if u < 0 or v < 0:
        raise WireFormatError(
            f"malformed edge line {text!r}; node ids must be non-negative"
        )
    return u, v


def parse_query(text: str, default_k: int = 10) -> Query:
    """Parse one query line of the CLI / wire format.

    Accepted forms (whitespace-separated)::

        pair <source> <target>
        source <source>
        topk <source> [k]
    """
    tokens = text.split()
    if not tokens:
        raise WireFormatError("empty query line")
    kind, arguments = tokens[0].lower(), tokens[1:]
    try:
        if kind == "pair" and len(arguments) == 2:
            return PairQuery(int(arguments[0]), int(arguments[1]))
        if kind == "source" and len(arguments) == 1:
            return SourceQuery(int(arguments[0]))
        if kind == "topk" and len(arguments) in (1, 2):
            k = int(arguments[1]) if len(arguments) == 2 else default_k
            if k < 1:
                raise WireFormatError(f"topk requires k >= 1, got {k}")
            return TopKQuery(int(arguments[0]), k=k)
    except WireFormatError:
        raise
    except ValueError as exc:
        raise WireFormatError(f"malformed query {text!r}: {exc}") from exc
    raise WireFormatError(
        f"malformed query {text!r}; expected 'pair <i> <j>', 'source <i>' "
        "or 'topk <i> [k]'"
    )
