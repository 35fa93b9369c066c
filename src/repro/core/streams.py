"""PCG64 states of many ``(seed, stream)`` pairs at once, as NumPy seeds them.

:func:`repro.core.walks.make_rng` gives stream ``s`` of ``seed`` the
generator ``default_rng(SeedSequence(seed, spawn_key=(s,)))``.  The
``SeedSequence`` hashes the seed's and the stream's 32-bit words into a
four-word pool and draws four 64-bit words from it; PCG64 turns those into
its 128-bit ``(state, inc)``.  Constructing one costs ~27 us on a 2-core
Xeon, about what a 100-walker build row spends walking.
:func:`pcg64_states` computes the same ``(state, inc)`` pairs for a whole
block of streams: the pool after the seed's words depends on the seed
alone and is computed once per seed, so each stream adds only its own
words and the eight output hashes.  Those run in uint32 NumPy lanes across
the block, or in Python ints when the block is too small to repay NumPy's
per-call cost or holds a stream of several words (2**32 and above) — the
same hash functions on either lane type.

The arithmetic follows NumPy's ``numpy/random/bit_generator.pyx``
(``SeedSequence.get_assembled_entropy``, ``mix_entropy``, ``hashmix``,
``mix``, ``generate_state``) and ``_pcg64.pyx``'s ``pcg64_set_seed``, which
is PCG's ``srandom_r``.  :mod:`repro.core.walks` checks the result against
``make_rng`` once per process and seed.
"""

from __future__ import annotations

import functools
import operator
from typing import List, Sequence, Tuple

import numpy as np

_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
# SeedSequence's hashing constants.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Blocks of at least this many one-word streams hash in NumPy lanes,
# smaller ones in Python ints.  Measured on a 2-core Xeon: NumPy lanes cost
# ~50 us a block up to ~16 streams and ~1 us a stream beyond, Python ints
# ~10-15 us a stream; they cross at 4-5 streams.
_VECTOR_MIN = 5


def _uint32_words(value: int) -> List[int]:
    """``value``'s little-endian 32-bit words; ``[0]`` for zero."""
    if value < 0:
        raise ValueError(f"seeds and streams must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=64)
def _multipliers(init: int, mult: int, count: int) -> Tuple[int, ...]:
    """``init * mult**i mod 2**32`` for ``i = 0 .. count``: hash call ``i``
    uses entries ``i`` and ``i + 1``."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


# The primitives take Python ints, or uint32 arrays and multiplier columns.
def _hashmix(value, multiplier, next_multiplier):
    value = (value ^ multiplier) * next_multiplier & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _absorb(pool: List[int], words: Sequence[int], multipliers: Sequence[int]) -> None:
    """``mix_entropy``'s tail: mix each word into every pool word, in place."""
    i = 0
    for word in words:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, *multipliers[i:i + 2]))
            i += 1


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> Tuple[Tuple[int, ...], int]:
    """The pool once ``mix_entropy`` has taken the seed's words, and the
    number of hash calls made so far.

    With a spawn key present the seed's words are zero-padded to the pool
    size, so the whole prefix before the stream's words depends on the seed
    alone.
    """
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * (len(entropy) - _POOL_SIZE)
    multipliers = _multipliers(_INIT_A, _MULT_A, calls)
    pool = [_hashmix(word, *multipliers[i:i + 2])
            for i, word in enumerate(entropy[:_POOL_SIZE])]
    i = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *multipliers[i:i + 2]))
                i += 1
    _absorb(pool, entropy[_POOL_SIZE:], multipliers[i:])
    return tuple(pool), calls


def pcg64_states(seed: int, streams: Sequence[int]) -> List[Tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``make_rng(seed, stream=s)`` for each ``s``.

    ``seed`` and every stream are non-negative integers of any size.
    """
    pool, calls = _seed_pool(operator.index(seed))
    streams = (streams.tolist() if isinstance(streams, np.ndarray)
               else [operator.index(stream) for stream in streams])
    if streams and min(streams) < 0:
        raise ValueError(f"streams must be non-negative, got {min(streams)}")
    output = _multipliers(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    if len(streams) < _VECTOR_MIN or max(streams) > _MASK32:
        rows = []
        for stream in streams:
            lanes = list(pool)
            words = _uint32_words(stream)
            _absorb(lanes, words, _multipliers(
                _INIT_A, _MULT_A, calls + _POOL_SIZE * len(words))[calls:])
            halves = [_hashmix(lanes[i % _POOL_SIZE], output[i], output[i + 1])
                      for i in range(2 * _POOL_SIZE)]
            rows.append([low | high << 32
                         for low, high in zip(halves[::2], halves[1::2])])
    else:
        # One-word streams: a uint32 lane per (pool word, stream), each
        # pool word mixed with its own pair of hash multipliers.
        mixing = np.array(_multipliers(_INIT_A, _MULT_A, calls + _POOL_SIZE)[calls:],
                          dtype=np.uint32)[:, None]
        output = np.array(output, dtype=np.uint32)[:, None]
        lanes = _mix(np.array(pool, dtype=np.uint32)[:, None], _hashmix(
            np.array(streams, dtype=np.uint32), mixing[:-1], mixing[1:]))
        halves = _hashmix(np.tile(lanes, (2, 1)), output[:-1], output[1:])
        halves = halves.astype(np.uint64)
        rows = zip(*(halves[::2] | halves[1::2] << np.uint64(32)).tolist())
    # generate_state(4, uint64) gives initstate's and initseq's 64-bit
    # halves, high first; srandom_r sets inc = 2 * initseq + 1 and takes two
    # LCG steps from state 0, adding initstate between them.
    states = []
    for state_high, state_low, seq_high, seq_low in rows:
        inc = (seq_high << 65 | seq_low << 1 | 1) & _MASK128
        state = ((inc + (state_high << 64 | state_low)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states
