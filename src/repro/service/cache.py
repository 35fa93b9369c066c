"""LRU cache of the serving layer: walk distributions and source scores.

The expensive part of every online query is estimating the walk
distributions ``P^t e_source`` — O(T · R') work per source.  Those
distributions depend only on ``(node, steps, walkers, seed)``, and a cache
belongs to one service, which fixes its steps, walkers and seed at
construction — so an entry is keyed by its source node id alone.  Under a
skewed workload (the usual shape of "millions of users" traffic) most
queries can be answered from previously simulated distributions.  This cache
makes that reuse explicit and observable: every lookup is accounted as a hit
or a miss, and evictions are counted so capacity tuning has data to work
with.

One cache holds two kinds of entry — each kind in its own LRU order bounded
by the cache's capacity, both keyed by source node id and under one set of
counters:

* **distribution entries** (:meth:`WalkDistributionCache.get` /
  :meth:`~WalkDistributionCache.put`) — the
  :class:`~repro.core.montecarlo.WalkDistributions` of one source (one
  flat ``offsets`` / ``nodes`` / ``values`` record of its ``T + 1`` sparse
  steps, about 1 KB per step at 1000 walkers).  They depend on the graph
  only inside the source's backward ball, so a graph update drops exactly
  the affected sources (:meth:`WalkDistributionCache.invalidate_sources`)
  and every other entry stays hot;
* **score entries** (:meth:`~WalkDistributionCache.get_scores` /
  :meth:`~WalkDistributionCache.put_scores`) — a :class:`ScoreEntry`: the
  source's :class:`~repro.core.queries.SourceScores` record (its positive
  support, 16 bytes per node of it) with the source's top-``k`` rankings
  memoised per ``k``.  A hit answers every source and top-k query on that
  source without distribution lookup or score propagation; a top-k hit for
  a ``k`` asked before is a dict lookup.  Scores are a function of the
  *whole* diagonal index, which every update re-solves, so the owning
  service drops all of them at once on every applied update
  (:meth:`WalkDistributionCache.drop_scores`).

The kinds do not compete for slots, and that is measured, not assumed: on
the spine's ``zipf_hot`` stream one shared order let one-off rankings of
cold sources push out distributions that pair queries still needed (13 %
more walk simulations).  A score record is as large as the source's
support: on that stream 416 bytes at the median but 7.1 KB on average and
50 KB at most (the columns dense enough for the dense product), so an
entry count alone does not bound the score kind's memory — its 2 653
records held 18 MB, and peak RSS grew 18 %.  The score kind is therefore
also bounded in bytes, at :data:`SCORE_SLOT_BYTES` per slot of capacity:
on that stream 6 MB, at a score hit rate of 0.85 instead of 0.89.

Because a cached value is exactly what the direct computation would produce
for the same key (see
:func:`repro.core.montecarlo.estimate_walk_distributions_batch`,
:meth:`repro.core.queries.QueryEngine.propagate_source` and
:meth:`repro.core.queries.SourceScores.top_k`), a cache hit can never change
a query answer — only make it cheaper.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.montecarlo import WalkDistributions
from repro.core.queries import SourceScores
from repro.errors import ConfigurationError


Ranking = Tuple[Tuple[int, float], ...]
"""A memoised top-k answer: immutable ``(node, score)`` pairs, best first."""

#: Score-record bytes the score kind may hold per slot of capacity, about
#: 3.5 times the median record of the spine's ``zipf_hot`` stream.
SCORE_SLOT_BYTES = 1536


class ScoreEntry:
    """One source's scores plus its top-k rankings, memoised per ``k``.

    ``scores`` is never written to: a source answer is its fresh
    :meth:`~repro.core.queries.SourceScores.dense` copy and a top-k answer
    a fresh list of the memoised tuple.  ``nbytes`` is the record's payload
    (support nodes and values), measured once; the memo is a few
    ``(node, score)`` pairs per ``k`` and is not counted.
    """

    __slots__ = ("scores", "nbytes", "_rankings")

    def __init__(self, scores: SourceScores) -> None:
        self.scores = scores
        self.nbytes = scores.nodes.nbytes + scores.values.nbytes
        self._rankings: Dict[int, Ranking] = {}

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        """The source's top-``k`` answer (a fresh list), ranked once per ``k``."""
        ranking = self._rankings.get(k)
        if ranking is None:
            ranking = self._rankings[k] = tuple(self.scores.top_k(k))
        return list(ranking)


def _payload_bytes(entry: WalkDistributions) -> int:
    """Resident payload size of one distribution entry."""
    return entry.offsets.nbytes + entry.nodes.nbytes + entry.values.nbytes


@dataclass
class CacheStats:
    """Counters describing cache effectiveness.

    ``hits`` / ``misses`` / ``inserts`` / ``evictions`` count entries of
    both kinds; the ``score_*`` counters are the score entries' share of
    them, so the distribution share is the difference.  ``invalidations``
    counts distribution entries dropped by a graph update and
    ``score_dropped`` score entries dropped by an applied update.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    invalidations: int = 0
    score_hits: int = 0
    score_misses: int = 0
    score_dropped: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def score_hit_rate(self) -> float:
        """Fraction of score lookups answered from a score entry."""
        lookups = self.score_hits + self.score_misses
        return self.score_hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Counters (plus derived hit rates) as a plain dict, for stats()."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
            "score_hits": self.score_hits,
            "score_misses": self.score_misses,
            "score_hit_rate": self.score_hit_rate,
            "score_dropped": self.score_dropped,
        }


class WalkDistributionCache:
    """Bounded LRU of distribution and score entries (see the module doc).

    ``capacity`` bounds each kind of entry separately — up to ``capacity``
    distributions and up to ``capacity`` score entries, each kind evicting
    its own least recently used entry; the score kind also evicts while its
    records hold more than ``capacity * SCORE_SLOT_BYTES`` bytes, though
    never the entry just stored.  0 disables caching (every lookup misses,
    nothing is stored).  Recency is updated on both successful
    lookups and inserts, so a hot source stays resident as long as queries
    keep touching it.  A score hit also refreshes the same source's
    distributions, if resident: a hot source answered from its scores
    keeps the distributions its next pair query reads, instead of letting
    them age out and be simulated again.

    Both kinds are keyed by source node id: the owning service fixes the
    walk steps, walker count and seed every entry was computed at, so
    services at different operating points (exact and approximate modes)
    keep apart by holding different caches.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ConfigurationError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[int, WalkDistributions]" = OrderedDict()
        self._scores: "OrderedDict[int, ScoreEntry]" = OrderedDict()
        self._score_budget = capacity * SCORE_SLOT_BYTES
        # Payload size per resident distribution, measured once at insert:
        # by the time an entry is evicted its arrays are cold, and walking
        # them again costs a cold workload as much as the insert did.  A
        # score entry carries its own size, so score entries keep only a
        # running total, and dropping them all touches no key.
        self._sizes: Dict[int, int] = {}
        self._bytes = 0
        self._score_bytes = 0

    def __len__(self) -> int:
        """Resident distributions (score entries: :attr:`score_entries`)."""
        return len(self._entries)

    def __contains__(self, node: int) -> bool:
        """Distribution membership, without touching recency or the counters."""
        return node in self._entries

    @property
    def score_entries(self) -> int:
        """Resident score entries."""
        return len(self._scores)

    def get(self, node: int) -> Optional[WalkDistributions]:
        """Return the cached distributions of ``node``, or None on a miss."""
        entry = self._entries.get(node)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(node)
        self.stats.hits += 1
        return entry

    def get_scores(self, node: int) -> Optional[ScoreEntry]:
        """Return the score entry of ``node``, or None on a miss.

        A hit moves the node's distributions, when resident, to the
        most-recent end too; that is no lookup, so no counter moves.
        """
        entry = self._scores.get(node)
        if entry is None:
            self.stats.misses += 1
            self.stats.score_misses += 1
            return None
        self._scores.move_to_end(node)
        if node in self._entries:
            self._entries.move_to_end(node)
        self.stats.hits += 1
        self.stats.score_hits += 1
        return entry

    def put(self, node: int, entry: WalkDistributions) -> None:
        """Insert (or refresh) distributions, evicting the LRU one if full."""
        if self.capacity == 0:
            return
        if node in self._entries:
            self._bytes -= self._sizes[node]
            self._entries.move_to_end(node)
        self._entries[node] = entry
        self._sizes[node] = size = _payload_bytes(entry)
        self._bytes += size
        self.stats.inserts += 1
        while len(self._entries) > self.capacity:
            evicted, _entry = self._entries.popitem(last=False)
            self._bytes -= self._sizes.pop(evicted)
            self.stats.evictions += 1

    def put_scores(self, node: int, scores: SourceScores) -> ScoreEntry:
        """Wrap ``scores`` in a :class:`ScoreEntry` and store it; returns it.

        The entry is returned even at capacity 0, where nothing is stored,
        so a caller ranks through one path either way.
        """
        entry = ScoreEntry(scores)
        if self.capacity == 0:
            return entry
        previous = self._scores.get(node)
        if previous is not None:
            self._score_bytes -= previous.nbytes
            self._scores.move_to_end(node)
        self._scores[node] = entry
        self._score_bytes += entry.nbytes
        self.stats.inserts += 1
        while len(self._scores) > self.capacity or (
                self._score_bytes > self._score_budget
                and len(self._scores) > 1):
            self._score_bytes -= self._scores.popitem(last=False)[1].nbytes
            self.stats.evictions += 1
        return entry

    def invalidate_sources(self, nodes: Iterable[int]) -> int:
        """Drop every distribution whose source is in ``nodes``; returns the count.

        This is the graph-mutation hook: when edges are inserted, only the
        sources inside the forward ball of the new edges' heads
        (:func:`repro.core.walks.forward_reachable_set`) have stale
        distributions, so exactly those entries are popped — a lookup per
        stale node, no scan of the cache — and every other distribution
        stays hot.  Removals are counted as ``invalidations``, separately
        from capacity ``evictions``.  Score entries are not this method's
        business: the update that calls it also moved the diagonal under
        every one of them, so the service pairs it with :meth:`drop_scores`.
        """
        removed = 0
        for node in {int(node) for node in nodes}:
            if self._entries.pop(node, None) is not None:
                self._bytes -= self._sizes.pop(node)
                removed += 1
        self.stats.invalidations += removed
        return removed

    def drop_scores(self) -> int:
        """Drop every score entry; returns the count.

        The index-version hook: scores are propagated against the whole
        diagonal, and every applied update re-solves it, so no score entry
        survives an update — whichever sources the update touched.
        Counted as ``score_dropped``; distributions are left alone.
        """
        dropped = len(self._scores)
        self._scores.clear()
        self._score_bytes = 0
        self.stats.score_dropped += dropped
        return dropped

    def clear(self) -> None:
        """Drop every entry (the stats counters are kept)."""
        self._entries.clear()
        self._scores.clear()
        self._sizes.clear()
        self._bytes = self._score_bytes = 0

    def memory_bytes(self) -> int:
        """Resident payload size of all cached entries, in O(1).

        A running total kept by :meth:`put`, :meth:`put_scores`,
        :meth:`invalidate_sources`, :meth:`drop_scores` and :meth:`clear` —
        ``stats()`` reads it under the serve lock, so it must not walk the
        entries.
        """
        return self._bytes + self._score_bytes

    def __repr__(self) -> str:
        return (
            f"WalkDistributionCache(size={len(self)}, capacity={self.capacity}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
