"""Many seeded numpy streams at once.

`seed_states` computes `np.random.SeedSequence(row).generate_state(4,
np.uint64)` for every row of ints in one vectorized pass, and `generators`
turns each such row into the generator `np.random.default_rng(row)` would
return, by setting the state of one reused `Generator`. The two mirror
numpy's algorithms step for step:

- ints become uint32 words as numpy's `_coerce_to_uint32_array` makes them:
  least significant word first, 0 as one word, a negative int a ValueError;
- `SeedSequence.mix_entropy` hashes the words into a pool of 4 words with
  `hashmix` and `mix`, and `generate_state` hashes the pool into the output;
- `PCG64` seeds itself from that output with one 128-bit LCG step
  (`pcg_setseq_128_srandom_r`).

Every constant and step below is numpy's. `tests/test_streams.py` checks
the results against numpy itself, so a numpy release that changed either
algorithm would fail there.
"""

from __future__ import annotations

import operator
from typing import Iterator, Sequence

import numpy as np

POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_words(values: Sequence[int]) -> list[int]:
    """The uint32 entropy words of a sequence of ints, as numpy coerces it."""
    words = []
    for value in values:
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """The hash constant before each of `count` hash steps and after the last: init * mult**k."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _columns(values: list[int]) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One hash step per row of `xor`/`mult` (column vectors), applied to
    the matching row of `values`, or to `values` itself if it is 1-D."""
    hashed = values ^ xor
    hashed *= mult
    hashed ^= hashed >> _XSHIFT
    return hashed


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x
    result -= _MIX_MULT_R * y
    result ^= result >> _XSHIFT
    return result


# `mix_entropy` hashes with step k's constants in this order: the pool's
# first fill (steps 0-3), then each source word's three mixes into the
# other pool words (steps 4-15), then four per entropy word past the pool.
# A source word's mixes do not depend on each other, so each is one array
# operation over all four pool words; the source's own row gets unused
# constants and is put back.
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, POOL_SIZE * POOL_SIZE)
_FILL = (_columns(_MIX_CONSTS[:POOL_SIZE]), _columns(_MIX_CONSTS[1 : POOL_SIZE + 1]))


def _source_consts(src: int) -> tuple[np.ndarray, np.ndarray]:
    # The source's own row takes a neighbour's step; its result is discarded.
    steps = [POOL_SIZE + (POOL_SIZE - 1) * src + dst - (dst >= src) for dst in range(POOL_SIZE)]
    return _columns([_MIX_CONSTS[k] for k in steps]), _columns([_MIX_CONSTS[k + 1] for k in steps])


_SOURCES = [_source_consts(src) for src in range(POOL_SIZE)]
_OUTPUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * POOL_SIZE)
_OUTPUT = (_columns(_OUTPUT_CONSTS[:-1]), _columns(_OUTPUT_CONSTS[1:]))


def _generate_state(entropy: np.ndarray) -> np.ndarray:
    """`mix_entropy` and then `generate_state(4, np.uint64)` of each column of
    a (words, n) uint32 array with at least POOL_SIZE words, as (n, 4) uint64."""
    pool = _hash(entropy[:POOL_SIZE], *_FILL)
    for src, consts in enumerate(_SOURCES):
        mixed = _mix(pool, _hash(pool[src], *consts))
        mixed[src] = pool[src]
        pool = mixed
    if len(entropy) > POOL_SIZE:
        consts = _hash_consts(_INIT_A, _MULT_A, POOL_SIZE * len(entropy))
        for src in range(POOL_SIZE, len(entropy)):
            steps = slice(POOL_SIZE * src, POOL_SIZE * (src + 1))
            pool = _mix(pool, _hash(entropy[src], _columns(consts[steps]), _columns(consts[1:][steps])))
    # generate_state(4, np.uint64) is 8 words, cycling over the pool; word
    # pairs read as little-endian uint64s.
    out = _hash(np.concatenate([pool, pool]), *_OUTPUT).astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).T


def seed_states(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """`np.random.SeedSequence(row).generate_state(4, np.uint64)` for every
    row, as an (n, 4) uint64 array; column 0 is `generate_state(1, np.uint64)`.

    Entropy shorter than the pool mixes as if padded with zero words, so
    rows of up to POOL_SIZE words share one pass; longer rows pass once per
    word count.
    """
    words = [seed_words(row) for row in rows]
    by_width: dict[int, list[int]] = {}
    for i, row_words in enumerate(words):
        by_width.setdefault(max(len(row_words), POOL_SIZE), []).append(i)
    states = np.empty((len(words), POOL_SIZE), dtype=np.uint64)
    for width, members in by_width.items():
        entropy = np.array([words[i] + [0] * (width - len(words[i])) for i in members], dtype=np.uint32)
        states[members] = _generate_state(entropy.T)
    return states


def generators(states: np.ndarray) -> Iterator[np.random.Generator]:
    """For each row of `seed_states(rows)`, a generator in the state that
    `np.random.default_rng(row)` starts in.

    One `Generator` is re-set and yielded for every row, so draw from it
    before advancing the iterator.
    """
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    for seed_hi, seed_lo, seq_hi, seq_lo in states.tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator
