"""LRU cache of the serving layer: walk distributions and ranked answers.

The expensive part of every online query is estimating the walk
distributions ``P^t e_source`` — O(T · R') work per source.  Those
distributions depend only on ``(node, steps, walkers, seed)``, so under a
skewed workload (the usual shape of "millions of users" traffic) most
queries can be answered from previously simulated distributions.  This cache
makes that reuse explicit and observable: every lookup is accounted as a hit
or a miss, and evictions are counted so capacity tuning has data to work
with.

One cache holds two kinds of entry — each kind in its own LRU order bounded
by the cache's capacity, both behind one ``get`` / ``put`` and one set of
counters:

* **distribution entries**, keyed by a :class:`CacheKey` — the
  :class:`~repro.core.montecarlo.WalkDistributions` of one source
  (one flat ``offsets`` / ``nodes`` / ``values`` record of its ``T + 1``
  sparse steps, about 1 KB per step at 1000 walkers).  They
  depend on the graph only inside the source's backward ball, so a graph
  update drops exactly the affected sources (:meth:`WalkDistributionCache.
  invalidate_sources`) and every other entry stays hot;
* **ranking entries**, keyed by ``(CacheKey, k)`` — the finished answer of
  one top-``k`` query, an immutable tuple of ``(node, score)`` pairs (16
  bytes of payload per pair).  For top-k the servable artefact is ``k``
  pairs, not ``2(T + 1)`` arrays: a hit skips distribution lookup, score
  propagation and ranking altogether.  A ranking is a function of the
  *whole* diagonal index, which every update re-solves, so the owning
  service drops all of them at once on every index version bump
  (:meth:`WalkDistributionCache.drop_rankings`).

The kinds do not compete for slots, and that is measured, not assumed: on
the spine's ``zipf_hot`` stream one shared order let one-off rankings of
cold sources push out distributions that pair queries still needed (13 %
more walk simulations, ranking hit rate 0.84 instead of 0.89).  A full
ranking order costs ``capacity * k * 16`` bytes — 160 KB at the defaults.

Because a cached value is exactly what the direct computation would produce
for the same key (see
:func:`repro.core.montecarlo.estimate_walk_distributions_batch` and
:meth:`repro.core.queries.SourceScores.top_k`), a cache hit can never change a
query answer — only make it cheaper.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, NamedTuple, Optional, Tuple, Union

from repro.config import SimRankParams
from repro.core.montecarlo import WalkDistributions
from repro.errors import ConfigurationError


class CacheKey(NamedTuple):
    """Identity of one cached walk distribution.

    Two queries share a cache entry exactly when the distribution they need
    is mathematically identical: same source node, same number of walk
    steps, same Monte-Carlo budget, and same base seed.  A named tuple, so
    the dict and LRU operations of an update's invalidation sweep hash it
    in C.
    """

    node: int
    steps: int
    walkers: int
    seed: Optional[int]

    @classmethod
    def for_query(cls, node: int, params: SimRankParams, walkers: int) -> "CacheKey":
        """Key for one source's distribution under ``params``.

        ``walkers`` is passed separately because callers may override the
        per-query Monte-Carlo budget (``params.query_walkers``) per call.
        """
        return cls(node=int(node), steps=params.walk_steps, walkers=int(walkers),
                   seed=params.seed)


RankingKey = Tuple[CacheKey, int]
"""Identity of one cached top-k answer: the source's :class:`CacheKey`
(the answer is a function of exactly those distributions) plus ``k``."""

Ranking = Tuple[Tuple[int, float], ...]
"""A cached top-k answer: immutable ``(node, score)`` pairs, best first."""

#: Payload of one ``(node, score)`` pair of a ranking: an int64 and a float64.
RANKING_PAIR_BYTES = 16


def _payload_bytes(entry: Union[WalkDistributions, Ranking]) -> int:
    """Resident payload size of one entry of either kind."""
    if isinstance(entry, tuple):
        return RANKING_PAIR_BYTES * len(entry)
    return entry.offsets.nbytes + entry.nodes.nbytes + entry.values.nbytes


@dataclass
class CacheStats:
    """Counters describing cache effectiveness.

    ``hits`` / ``misses`` / ``inserts`` / ``evictions`` count entries of
    both kinds; the ``ranking_*`` counters are the ranking entries' share of
    them, so the distribution share is the difference.  ``invalidations``
    counts distribution entries dropped by a graph update and
    ``rankings_dropped`` ranking entries dropped by an index version bump.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    invalidations: int = 0
    ranking_hits: int = 0
    ranking_misses: int = 0
    rankings_dropped: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def ranking_hit_rate(self) -> float:
        """Fraction of ranking lookups answered from a ranking entry."""
        lookups = self.ranking_hits + self.ranking_misses
        return self.ranking_hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Counters (plus derived hit rates) as a plain dict, for stats()."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
            "ranking_hits": self.ranking_hits,
            "ranking_misses": self.ranking_misses,
            "ranking_hit_rate": self.ranking_hit_rate,
            "rankings_dropped": self.rankings_dropped,
        }


class WalkDistributionCache:
    """Bounded LRU of distribution and ranking entries (see the module doc).

    ``capacity`` bounds each kind of entry separately — up to ``capacity``
    distributions and up to ``capacity`` rankings, each kind evicting its
    own least recently used entry; 0 disables caching (every lookup misses,
    nothing is stored).  Recency is updated on both successful lookups and
    inserts, so a hot source stays resident as long as queries keep
    touching it — and a source that is only ever asked for its top-k keeps
    its small ranking entry while the distributions behind it age out.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ConfigurationError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, WalkDistributions]" = OrderedDict()
        self._rankings: "OrderedDict[RankingKey, Ranking]" = OrderedDict()
        # Payload size per resident distribution, measured once at insert:
        # by the time an entry is evicted its arrays are cold, and walking
        # them again costs a cold workload as much as the insert did.  A
        # ranking's size is its length, so rankings keep only a running
        # total, and dropping them all touches no key.
        self._sizes: Dict[CacheKey, int] = {}
        self._bytes = 0
        self._ranking_bytes = 0

    def __len__(self) -> int:
        """Resident distributions (rankings: :attr:`ranking_entries`)."""
        return len(self._entries)

    def __contains__(self, key: Union[CacheKey, RankingKey]) -> bool:
        """Membership test without touching recency or the stats counters."""
        return key in self._kind(key)

    def _kind(self, key: Union[CacheKey, RankingKey]) -> "OrderedDict":
        """The LRU order ``key`` lives in: a tuple key names a ranking."""
        return self._rankings if type(key) is tuple else self._entries

    @property
    def ranking_entries(self) -> int:
        """Resident rankings."""
        return len(self._rankings)

    def get(self, key: Union[CacheKey, RankingKey]) -> Any:
        """Return the cached entry for ``key``, or None on a miss."""
        entries = self._kind(key)
        entry = entries.get(key)
        ranking = entries is self._rankings
        if entry is None:
            self.stats.misses += 1
            if ranking:
                self.stats.ranking_misses += 1
            return None
        entries.move_to_end(key)
        self.stats.hits += 1
        if ranking:
            self.stats.ranking_hits += 1
        return entry

    def put(self, key: Union[CacheKey, RankingKey],
            entry: Union[WalkDistributions, Ranking]) -> None:
        """Insert (or refresh) an entry, evicting its kind's LRU entry if full."""
        if self.capacity == 0:
            return
        entries = self._kind(key)
        if key in entries:
            self._release(entries, key, entries[key])
            entries.move_to_end(key)
        entries[key] = entry
        size = _payload_bytes(entry)
        if entries is self._rankings:
            self._ranking_bytes += size
        else:
            self._sizes[key] = size
            self._bytes += size
        self.stats.inserts += 1
        while len(entries) > self.capacity:
            self._release(entries, *entries.popitem(last=False))
            self.stats.evictions += 1

    def _release(self, entries: "OrderedDict", key: Union[CacheKey, RankingKey],
                 entry: Union[WalkDistributions, Ranking]) -> None:
        """Take a leaving (or replaced) entry's bytes off the running total."""
        if entries is self._rankings:
            self._ranking_bytes -= _payload_bytes(entry)
        else:
            self._bytes -= self._sizes.pop(key)

    def invalidate_sources(self, nodes: Iterable[int]) -> int:
        """Drop every distribution whose source is in ``nodes``; returns the count.

        This is the graph-mutation hook: when edges are inserted, only the
        sources inside the forward ball of the new edges' heads
        (:func:`repro.core.walks.forward_reachable_set`) have stale
        distributions, and a key's node identifies its source — so exactly
        those entries are removed, across *all* ``(steps, walkers, seed)``
        variants of each node, and every other distribution stays hot.
        Removals are counted as ``invalidations``, separately from capacity
        ``evictions``.  Ranking entries are not this method's business: the
        update that calls it also moved the diagonal under every one of
        them, so the service pairs it with :meth:`drop_rankings`.
        """
        stale_nodes = {int(node) for node in nodes}
        stale_keys = [key for key in self._entries if key.node in stale_nodes]
        for key in stale_keys:
            del self._entries[key]
            self._bytes -= self._sizes.pop(key)
        self.stats.invalidations += len(stale_keys)
        return len(stale_keys)

    def drop_rankings(self) -> int:
        """Drop every ranking entry; returns the count.

        The index-version hook: a ranking is scored against the whole
        diagonal, and every applied update re-solves it, so no ranking
        survives a version bump — whichever sources the update touched.
        Counted as ``rankings_dropped``; distributions are left alone.
        """
        dropped = len(self._rankings)
        self._rankings.clear()
        self._ranking_bytes = 0
        self.stats.rankings_dropped += dropped
        return dropped

    def clear(self) -> None:
        """Drop every entry (the stats counters are kept)."""
        self._entries.clear()
        self._rankings.clear()
        self._sizes.clear()
        self._bytes = self._ranking_bytes = 0

    def memory_bytes(self) -> int:
        """Resident payload size of all cached entries, in O(1).

        A running total kept by :meth:`put`, :meth:`invalidate_sources`,
        :meth:`drop_rankings` and :meth:`clear` — ``stats()`` reads it under
        the serve lock, so it must not walk the entries.
        """
        return self._bytes + self._ranking_bytes

    def __repr__(self) -> str:
        return (
            f"WalkDistributionCache(size={len(self)}, capacity={self.capacity}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
