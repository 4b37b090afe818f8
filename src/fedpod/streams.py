"""Many seeded numpy streams at once.

Every per-node stream is keyed by a row of ints `(*prefix, id)`: a few
fixed ints and the node's id. `seed_states` takes such keys as blocks
`(prefix, ids)` and computes `np.random.SeedSequence([*prefix, id])
.generate_state(4, np.uint64)` for every id of every block in one
vectorized pass per call (all its keys of one entropy width), and
`generators` turns each such state into the generator
`np.random.default_rng([*prefix, id])` would return, by setting the state
of one reused `Generator`. The two mirror numpy's algorithms step for step:

- ints become uint32 words as numpy's `_coerce_to_uint32_array` makes them:
  least significant word first, 0 as one word, a negative int a ValueError;
  a prefix is split once per block, its ids as uint32 word columns;
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
from typing import Iterable, Iterator, Sequence

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


KeyBlock = tuple[Sequence[int], Sequence[int] | np.ndarray]


def _id_words(ids: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high uint32 words of a column of ids in [0, 2**64)."""
    if isinstance(ids, np.ndarray):
        if ids.dtype.kind == "i" and (ids < 0).any():
            raise ValueError("expected non-negative integer")
    else:
        try:
            ids = np.fromiter(map(operator.index, ids), dtype=np.uint64, count=len(ids))
        except OverflowError:
            if min(ids) < 0:
                raise ValueError("expected non-negative integer") from None
            raise
    words = np.ascontiguousarray(ids, dtype="<u8").view("<u4").reshape(-1, 2)
    return words[:, 0], words[:, 1]


def seed_states(blocks: Iterable[KeyBlock]) -> np.ndarray:
    """`np.random.SeedSequence([*prefix, id]).generate_state(4, np.uint64)`
    for every id of every block `(prefix, ids)`, as an (n, 4) uint64 array
    with rows in block order; column 0 is `generate_state(1, np.uint64)`.
    An id is a uint32 word or two, so each must be in [0, 2**64).

    One `_generate_state` pass serves the call (none a call of no ids), so
    its keys must share one entropy width, or it raises ValueError. Entropy
    shorter than the pool mixes as if padded with zero words, so keys of up
    to POOL_SIZE words have one width; an id of two words makes a key one
    word wider than an id of one, unless both fit the pool.
    """
    keys = []
    widths = set()
    for prefix, ids in blocks:
        words = seed_words(prefix)
        lo, hi = _id_words(ids)
        if not len(lo):
            continue
        keys.append((words, lo, hi))
        if not hi.all():
            widths.add(max(len(words) + 1, POOL_SIZE))
        if hi.any():
            widths.add(max(len(words) + 2, POOL_SIZE))
    if not keys:
        return np.empty((0, POOL_SIZE), dtype=np.uint64)
    if len(widths) > 1:
        raise ValueError(f"keys of entropy widths {sorted(widths)} need one seed_states call per width")
    width = max(widths)
    # One column per key: its prefix words, its id's words, then zeros.
    entropy = np.zeros((width, sum(len(lo) for _, lo, _ in keys)), dtype=np.uint32)
    end = 0
    for words, lo, hi in keys:
        start, end = end, end + len(lo)
        entropy[: len(words), start:end] = _columns(words)
        entropy[len(words), start:end] = lo
        if len(words) + 1 < width:
            entropy[len(words) + 1, start:end] = hi
    return _generate_state(entropy)


# The generator `generators` re-sets, built from a ready seed sequence.
_SEED_SEQUENCE = np.random.SeedSequence(0)


def generators(states: np.ndarray) -> Iterator[np.random.Generator]:
    """For each row of `seed_states(blocks)`, a generator in the state that
    `np.random.default_rng([*prefix, id])` starts in.

    One `Generator` is re-set through one state dict and yielded for every
    row, so draw from it before advancing the iterator.
    """
    generator = np.random.Generator(np.random.PCG64(_SEED_SEQUENCE))
    bit_generator = generator.bit_generator
    seed_hi, seed_lo, seq_hi, seq_lo = states.T.tolist()
    incs = [((hi << 64 | lo) << 1 | 1) & _MASK128 for hi, lo in zip(seq_hi, seq_lo)]
    starts = [
        ((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128 for inc, hi, lo in zip(incs, seed_hi, seed_lo)
    ]
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for start, inc in zip(starts, incs):
        pcg["state"], pcg["inc"] = start, inc
        bit_generator.state = state
        yield generator
