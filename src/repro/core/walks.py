"""Vectorised reverse (in-link) random walks.

A SimRank walk at node ``v`` steps to a uniformly random *in*-neighbour of
``v``; if ``v`` has no in-neighbours the walker dies.  The distribution of a
walker after ``t`` steps starting from node ``i`` is exactly ``P^t e_i``
where ``P`` is the column-normalised in-link transition matrix — the vector
CloudWalker estimates by Monte-Carlo simulation.

The functions here operate on flat NumPy arrays of walker positions so the
whole graph's walkers can be advanced in a few vector operations per step; a
dead walker is encoded as position ``-1``.
"""

from __future__ import annotations

import threading
from typing import (Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set,
                    Tuple, Union)

import numpy as np

from repro.core.streams import pcg64_states
from repro.errors import StreamDerivationError
from repro.graph import frontier
from repro.graph.digraph import DiGraph

DEAD = -1


def forward_reachable_set(
    graph: DiGraph, seeds: Iterable[int], steps: int
) -> Set[int]:
    """Nodes reachable from ``seeds`` along at most ``steps`` forward edges.

    This is the *affected-source* set of an in-link change: a reverse walk
    from source ``i`` can visit a node ``v`` within ``T`` steps exactly when
    there is a forward path ``v -> ... -> i`` of length at most ``T``, so the
    sources whose reverse-walk distributions may change when ``In(v)``
    changes are the forward BFS ball of radius ``T`` around ``v`` (seeds
    included).  Shared by :mod:`repro.core.sharding` (which rows may need
    re-estimating) and :mod:`repro.service` (which cache entries to
    invalidate) so both always agree.
    """
    seed_list = sorted({graph.check_node(node) for node in seeds})
    if not seed_list:
        return set()
    indptr, indices = graph.out_csr
    # The boolean mask is only a dedup structure; the result is assembled
    # from the per-level frontiers so the O(n) mask is touched, not
    # re-scanned, and the returned set stays O(|reachable|) work.
    visited = np.zeros(graph.n_nodes, dtype=bool)
    level = np.asarray(seed_list, dtype=np.int64)
    visited[level] = True
    reachable = set(seed_list)
    for _ in range(steps):
        fresh = np.unique(indices[frontier.row_slots(indptr, level)[0]])
        fresh = fresh[~visited[fresh]]
        if len(fresh) == 0:
            break
        visited[fresh] = True
        reachable.update(fresh.tolist())
        level = fresh
    return reachable


def make_rng(seed: Optional[int], stream: int = 0) -> np.random.Generator:
    """Create a deterministic random generator for a given logical stream.

    Every Monte-Carlo walk from source ``s`` reads stream ``s``: an index
    row, a query's walk distributions, on any execution model, shard or
    worker.  Deriving each stream from ``(seed, stream)`` keeps results
    reproducible regardless of execution order or parallelism.
    """
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def step_walkers(
    graph: DiGraph, positions: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Advance every walker one reverse step; returns the new positions.

    ``positions`` is an int64 array; entries equal to :data:`DEAD` stay dead.
    Walkers at nodes with no in-neighbours die.
    """
    indptr, indices = graph.in_csr
    new_positions = np.full_like(positions, DEAD)
    alive = positions != DEAD
    if not alive.any():
        return new_positions
    current = positions[alive]
    starts = indptr[current]
    degrees = indptr[current + 1] - starts
    has_neighbors = degrees > 0
    if has_neighbors.any():
        chosen_offset = (
            rng.random(int(has_neighbors.sum())) * degrees[has_neighbors]
        ).astype(np.int64)
        next_nodes = indices[starts[has_neighbors] + chosen_offset]
        alive_indices = np.flatnonzero(alive)
        new_positions[alive_indices[has_neighbors]] = next_nodes
    return new_positions


def single_source_walk_counts(
    graph: DiGraph,
    source: int,
    walkers: int,
    steps: int,
    rng: np.random.Generator,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Simulate walks from one source; returns per-step (nodes, counts).

    ``result[t]`` gives the empirical support of ``P^t e_source`` as a pair of
    arrays; dividing the counts by ``walkers`` yields probabilities.
    """
    source = graph.check_node(source)
    result: List[Tuple[np.ndarray, np.ndarray]] = []
    positions = np.full(walkers, source, dtype=np.int64)
    for t in range(steps + 1):
        alive_positions = positions[positions != DEAD]
        if len(alive_positions) == 0:
            result.append((np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))
            # All subsequent steps are empty too.
            for _ in range(t + 1, steps + 1):
                result.append(
                    (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
                )
            return result
        nodes, counts = np.unique(alive_positions, return_counts=True)
        result.append((nodes.astype(np.int64), counts.astype(np.int64)))
        if t < steps:
            positions = step_walkers(graph, positions, rng)
    return result


class PackedWalks(NamedTuple):
    """Per-step walk counts of a block of sources in one flat, source-major record.

    ``sources`` holds the distinct simulated sources in ascending order;
    the ``(nodes, counts)`` pair of source ``sources[k]`` at step ``t`` —
    what :func:`single_source_walk_counts` returns as ``result[t]`` — is
    ``nodes[lo:hi], counts[lo:hi]`` with ``lo, hi = offsets[k, t],
    offsets[k, t + 1]``.  ``offsets`` has shape ``(len(sources), steps + 2)``
    and each row ends where the next begins, so one source's whole record
    is the contiguous slice ``offsets[k, 0]:offsets[k, -1]``.
    """

    sources: np.ndarray
    offsets: np.ndarray
    nodes: np.ndarray
    counts: np.ndarray


# Walker-steps the packed kernel simulates at a time: it takes its sources
# in blocks of ``_BLOCK_DRAWS // (walkers * steps)``, which bounds the
# walker and key buffers (and the generator pool) of a build, update or
# query task whatever the number of sources it covers.
_BLOCK_DRAWS = 1 << 18

# Seeds whose derived streams have been checked against make_rng in this
# process, and each thread's reusable (PCG64, Generator) pairs.
_CHECKED_SEEDS: Set[int] = set()
_GENERATOR_POOL = threading.local()


def _stream_generators(seed: Optional[int],
                       sources: Sequence[int]) -> List[np.random.Generator]:
    """Generators drawing exactly what ``make_rng(seed, stream=s)`` draws,
    one per source, in order.

    A seeded block gets the calling thread's pooled generators, with the
    states :func:`repro.core.streams.pcg64_states` derives for the whole
    block — no ``SeedSequence``, no ``PCG64`` construction.  They are
    reassigned by the thread's next call, so a caller uses them within one
    block and hands none out.  ``seed=None`` gets fresh unseeded generators.
    """
    if seed is None:
        return [make_rng(None) for _ in range(len(sources))]
    states = pcg64_states(seed, sources)
    if seed not in _CHECKED_SEEDS and states:
        stream = int(sources[0])
        expected = make_rng(seed, stream=stream).bit_generator.state["state"]
        if (expected["state"], expected["inc"]) != states[0]:
            raise StreamDerivationError(seed, stream, np.__version__)
        _CHECKED_SEEDS.add(seed)
    pool = getattr(_GENERATOR_POOL, "pairs", None)
    if pool is None:
        pool = _GENERATOR_POOL.pairs = []
    while len(pool) < len(states):
        bit_generator = np.random.PCG64()
        pool.append((bit_generator, np.random.Generator(bit_generator)))
    for (bit_generator, _generator), (state, inc) in zip(pool, states):
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return [generator for _bit_generator, generator in pool[:len(states)]]


def simulate_walks_packed(
    graph: DiGraph,
    sources: Union[Sequence[int], np.ndarray],
    walkers_per_source: int,
    steps: int,
    seed: Optional[int],
) -> Iterator[PackedWalks]:
    """Simulate walks for many sources, a vectorised block at a time.

    Yields one :class:`PackedWalks` per block of ascending distinct sources
    (duplicates in ``sources`` are collapsed; each source is simulated
    exactly once).  The record of each source is bitwise-identical to::

        single_source_walk_counts(graph, source, walkers_per_source, steps,
                                  make_rng(seed, stream=source))

    because every source consumes its own ``(seed, source)`` random stream —
    the stream :func:`repro.core.montecarlo.estimate_walk_distributions` uses
    by default.  Batching therefore never changes a row or a query answer,
    and neither does the block size; it only amortises the per-step indexing
    work (degree lookups, neighbour gathers, per-node aggregation) across a
    block's walkers at once, and the streams' seeding across the block
    (:func:`_stream_generators`).
    """
    if walkers_per_source < 1:
        raise ValueError(f"walkers_per_source must be >= 1, got {walkers_per_source}")
    unique_sources = np.unique(np.asarray(sources, dtype=np.int64))
    if len(unique_sources) and (
            unique_sources[0] < 0 or unique_sources[-1] >= graph.n_nodes):
        outside = (unique_sources < 0) | (unique_sources >= graph.n_nodes)
        graph.check_node(unique_sources[outside][0])
    per_block = max(1, _BLOCK_DRAWS // max(1, walkers_per_source * steps))
    return (
        _simulate_block(graph, unique_sources[lo:lo + per_block],
                        walkers_per_source, steps, seed)
        for lo in range(0, len(unique_sources), per_block)
    )


def _simulate_block(
    graph: DiGraph,
    unique_sources: np.ndarray,
    walkers_per_source: int,
    steps: int,
    seed: Optional[int],
) -> PackedWalks:
    """One block of :func:`simulate_walks_packed`: valid, ascending sources.

    Steps 0 and 1 are taken per source.  At step 0 every walker of a
    source stands on it, so its record is ``(source, W)`` with no sort.
    Each source with in-neighbours then draws its ``W`` uniforms in one
    call, and its step-1 counts come from one ``np.bincount`` over
    (source, in-list slot): in-lists are strictly ascending, so slot order
    is node order — the order ``np.unique`` gives.  From step 2 on, only
    live walkers are carried, in contiguous per-source runs whose
    within-run order matches the single-source simulation, and each step's
    per-(source, node) counts come from one ``np.unique`` over packed keys.
    A source's generator draws just the uniforms its moving walkers read —
    a ``Generator``'s doubles are one stream, so what a source reads is
    the same however many calls produced it.
    """
    n_sources = len(unique_sources)
    n_nodes = np.int64(graph.n_nodes)
    indptr, indices = graph.in_csr
    generators = _stream_generators(seed, unique_sources)

    lengths = np.zeros((n_sources, steps + 1), dtype=np.int64)
    lengths[:, 0] = 1
    owner_chunks: List[np.ndarray] = [np.arange(n_sources, dtype=np.int64)]
    node_chunks: List[np.ndarray] = [unique_sources]
    count_chunks: List[np.ndarray] = [
        np.full(n_sources, walkers_per_source, dtype=np.int64)]
    if steps:
        starts = indptr[unique_sources]
        degrees = indptr[unique_sources + 1] - starts
        movers = np.flatnonzero(degrees)
        starts, degrees = starts[movers], degrees[movers]
        chosen = np.empty((len(movers), walkers_per_source), dtype=np.float64)
        for row, k in enumerate(movers.tolist()):
            generators[k].random(out=chosen[row])
        slots = (chosen * degrees[:, None]).astype(np.int64)
        # Each mover's in-list is one run of ``slot_base`` + slot numbers.
        slot_base = np.cumsum(degrees) - degrees
        hit = np.bincount((slot_base[:, None] + slots).ravel(),
                          minlength=int(degrees.sum()))
        filled = np.flatnonzero(hit)
        run = np.searchsorted(slot_base, filled, side="right") - 1
        owner_chunks.append(movers[run])
        node_chunks.append(indices[starts[run] + filled - slot_base[run]])
        count_chunks.append(hit[filled])
        lengths[:, 1] = np.bincount(movers[run], minlength=n_sources)
        owner = np.repeat(movers, walkers_per_source)
        positions = indices[(starts[:, None] + slots).ravel()]
    for t in range(2, steps + 1):
        starts = indptr[positions]
        degrees = indptr[positions + 1] - starts
        moving = degrees > 0
        owner = owner[moving]
        if len(owner) == 0:
            break
        # Source k's movers are one contiguous run of ``owner``; its
        # generator fills their uniforms in walker order, continuing its
        # stream where the previous step left it.
        draws = np.bincount(owner, minlength=n_sources)
        ends = np.cumsum(draws)
        movers = np.flatnonzero(draws)
        chosen = np.empty(len(owner), dtype=np.float64)
        for k, lo, hi in zip(movers.tolist(), (ends - draws)[movers].tolist(),
                             ends[movers].tolist()):
            generators[k].random(out=chosen[lo:hi])
        positions = indices[
            starts[moving] + (chosen * degrees[moving]).astype(np.int64)]
        # Per-(source, node) aggregation in one np.unique over packed keys:
        # sorted by source, then node — np.unique's order per source.
        keys, counts = np.unique(owner * n_nodes + positions, return_counts=True)
        key_owner = keys // n_nodes
        lengths[:, t] = np.bincount(key_owner, minlength=n_sources)
        owner_chunks.append(key_owner)
        node_chunks.append(keys - key_owner * n_nodes)
        count_chunks.append(counts.astype(np.int64, copy=False))

    # Steps were emitted step-major; a stable sort on the source index makes
    # the record source-major while keeping step and node order within it.
    order = np.argsort(np.concatenate(owner_chunks), kind="stable")
    flat_offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths.ravel(), out=flat_offsets[1:])
    offsets = np.lib.stride_tricks.sliding_window_view(
        flat_offsets, steps + 2)[:: steps + 1]
    return PackedWalks(unique_sources, offsets,
                       np.concatenate(node_chunks)[order],
                       np.concatenate(count_chunks)[order])


def exact_walk_distributions(graph: DiGraph, source: int, steps: int) -> List[np.ndarray]:
    """Exact ``P^t e_source`` for ``t = 0..steps`` (dense vectors).

    Used by unit tests and by the ablation comparing Monte-Carlo estimates to
    the exact distributions; cost is O(steps * |E|), fine for small graphs.
    """
    source = graph.check_node(source)
    transition = graph.transition_matrix()
    vector = np.zeros(graph.n_nodes, dtype=np.float64)
    vector[source] = 1.0
    result = [vector.copy()]
    for _ in range(steps):
        vector = transition @ vector
        result.append(vector.copy())
    return result
