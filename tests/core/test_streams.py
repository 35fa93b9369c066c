"""Block-derived random streams against ``make_rng``, draw for draw.

The walk kernel derives every ``(seed, source)`` PCG64 state itself
(:mod:`repro.core.streams`) and hands each source a pooled generator
(:func:`repro.core.walks._stream_generators`).  Every row, answer and pinned
checksum rests on those generators drawing exactly what
``make_rng(seed, stream=source)`` draws, in any block size and whatever the
chunks a caller draws in.
"""

import re
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimRankParams
from repro.core import montecarlo, streams, walks
from repro.errors import StreamDerivationError
from repro.graph import generators


def _oracle_state(seed, stream):
    state = walks.make_rng(seed, stream=stream).bit_generator.state["state"]
    return state["state"], state["inc"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**160 - 1),
       widest=st.sampled_from([2**32 - 1, 2**64 - 1]), data=st.data())
def test_block_generators_draw_what_make_rng_draws(seed, widest, data):
    """Any seed below 2**160; blocks of 1..300 streams, all of one word
    (NumPy lanes from five streams up) or with two-word ones mixed in
    (Python ints); and 0..2000 draws split into random per-call chunks
    taken generator by generator, as the kernel's steps take them."""
    streams_ = data.draw(st.lists(st.integers(0, widest), min_size=1, max_size=300))
    n_draws = data.draw(st.integers(min_value=0, max_value=2000))
    cuts = sorted(data.draw(st.lists(st.integers(0, n_draws), max_size=12)))
    drawn = [[] for _ in streams_]
    generators_ = walks._stream_generators(seed, streams_)
    for lo, hi in zip([0] + cuts, cuts + [n_draws]):
        for k, generator in enumerate(generators_):
            drawn[k].append(generator.random(hi - lo))
    for k, stream in enumerate(streams_):
        expected = walks.make_rng(seed, stream=stream).random(n_draws)
        assert np.concatenate(drawn[k]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 2015, 2**32 - 1, 2**32, 2**96 + 5, 2**200 + 1])
def test_states_match_seed_sequence_for_wide_seeds_and_streams(seed):
    # A block holding a stream of 2**32 or more (here up to five words)
    # takes the Python-int path whatever its size; an int64 array of node
    # ids, as the kernel passes it, takes NumPy lanes.
    wide = [2**64, 2**64 + 7, 2**95 - 1, 2**130 + 3, 0, 1, 2**32, 2**64 - 1]
    assert streams.pcg64_states(seed, wide) == [_oracle_state(seed, s) for s in wide]
    nodes = np.arange(0, 40, 3, dtype=np.int64)
    assert streams.pcg64_states(seed, nodes) == [
        _oracle_state(seed, s) for s in nodes.tolist()]


def test_negative_seeds_and_streams_are_rejected():
    with pytest.raises(ValueError):
        streams.pcg64_states(-1, [0])
    for block in ([-3], [1, 2, 3, 4, 5, -6], np.array([0, -1] * 5)):
        with pytest.raises(ValueError):
            streams.pcg64_states(5, block)


def test_a_seeding_mismatch_fails_loudly_naming_numpy():
    graph = generators.cycle_graph(6)
    seed = 918_273_645  # used by no other test: its pool is cached wrong below
    try:
        with mock.patch.object(walks, "_CHECKED_SEEDS", set()), \
                mock.patch.object(streams, "_MIX_MULT_L", streams._MIX_MULT_L ^ 1):
            with pytest.raises(StreamDerivationError,
                               match=re.escape(np.__version__)) as caught:
                list(walks.simulate_walks_packed(graph, [2, 4], 5, 3, seed))
            assert caught.value.seed == seed
            assert caught.value.stream == 2
    finally:
        streams._seed_pool.cache_clear()
    # Unpatched, the same seed is checked and runs.
    list(walks.simulate_walks_packed(graph, [2, 4], 5, 3, seed))
    assert seed in walks._CHECKED_SEEDS


def test_seeded_kernel_builds_no_seed_sequence_and_calls_no_make_rng():
    """The mechanism the speed-up comes from: once a seed has been checked
    and the thread's pool has grown to the block, a seeded block derives its
    states and reuses pooled generators."""
    graph = generators.copying_model_graph(80, out_degree=4, seed=3)
    sources = list(range(0, 80, 2))

    def run():
        return [tuple(array.tobytes() for array in packed)
                for packed in walks.simulate_walks_packed(graph, sources, 30, 5, 77)]

    expected = run()
    with mock.patch.object(walks, "make_rng", side_effect=AssertionError), \
            mock.patch("numpy.random.SeedSequence", side_effect=AssertionError), \
            mock.patch("numpy.random.PCG64", side_effect=AssertionError):
        assert run() == expected


def test_unseeded_kernel_yields_valid_records():
    graph = generators.cycle_graph(8)
    blocks = list(walks.simulate_walks_packed(graph, [5, 1, 5, 3], 25, 4, seed=None))
    (packed,) = blocks
    assert packed.sources.tolist() == [1, 3, 5]
    assert packed.offsets.shape == (3, 6)
    for k, source in enumerate(packed.sources.tolist()):
        for t in range(5):
            lo, hi = packed.offsets[k, t], packed.offsets[k, t + 1]
            # On a cycle every walker survives and sits at source - t.
            assert packed.nodes[lo:hi].tolist() == [(source - t) % 8]
            assert packed.counts[lo:hi].tolist() == [25]
    sparse = generators.erdos_renyi_graph(30, avg_degree=1.0, seed=3)
    for packed in walks.simulate_walks_packed(sparse, range(30), 20, 6, seed=None):
        lengths = np.diff(packed.offsets, axis=1)
        assert (lengths >= 0).all()
        for k in range(len(packed.sources)):
            totals = [packed.counts[packed.offsets[k, t]:packed.offsets[k, t + 1]].sum()
                      for t in range(7)]
            assert totals[0] == 20
            assert totals == sorted(totals, reverse=True)


def test_concurrent_threads_draw_their_own_streams():
    """Four threads (more than the cores) simulate overlapping source sets
    through small blocks at once; every entry equals the single-source
    oracle, so no thread's pooled generators were reassigned mid-block.
    The HTTP tier's query and update-drain threads call the kernel
    concurrently like this."""
    graph = generators.copying_model_graph(120, out_degree=4, seed=5)
    params = SimRankParams(c=0.6, walk_steps=5, jacobi_iterations=3,
                           index_walkers=20, query_walkers=60, seed=31)
    source_sets = {task: list(range(task * 10, task * 10 + 70))
                   for task in range(4)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(walks, "_BLOCK_DRAWS", 3 * 60 * 5), \
                ThreadPoolExecutor(max_workers=4) as pool:
            futures = {
                task: pool.submit(montecarlo.estimate_walk_distributions_batch,
                                  graph, sources, params)
                for task, sources in source_sets.items()}
            outcomes = {task: future.result()
                        for task, future in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for task, sources in source_sets.items():
        batch = outcomes[task]
        assert sorted(batch) == sources
        for source, entry in batch.items():
            oracle = montecarlo.estimate_walk_distributions(graph, source, params)
            for ours, theirs in ((entry.offsets, oracle.offsets),
                                 (entry.nodes, oracle.nodes),
                                 (entry.values, oracle.values)):
                assert ours.tobytes() == theirs.tobytes()
