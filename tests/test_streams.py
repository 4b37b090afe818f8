"""`fedpod.streams` against numpy's own `SeedSequence` and `default_rng`."""

from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpod import engine, params, streams
from fedpod.engine import CohortSpec, ExperimentConfig, run_experiment
from fedpod.streams import generators, seed_states, seed_words

# Word-count boundaries of numpy's int coercion, plus multi-word values.
EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**96 + 7, 2**130 + 3]
ints = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64 - 1), st.integers(0, 2**160))
uint64s = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))
ID_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1]


def row_block(row):
    """A key row of any ints as a one-key block: every word of the row but
    the last as a prefix int of its own, and the last word as the id."""
    words = seed_words(row)
    return words[:-1], [words[-1]]


def keys_of(blocks):
    return [[*prefix, int(i)] for prefix, ids in blocks for i in np.asarray(ids, dtype=object).tolist()]


def assert_streams_match(blocks, keys=None):
    """`seed_states(blocks)` and its generators against numpy for every key
    `[*prefix, id]` in block order, or for `keys` if the blocks stand for
    keys of other ints with the same words."""
    keys = keys_of(blocks) if keys is None else keys
    states = seed_states(blocks)
    assert states.shape == (len(keys), 4) and states.dtype == np.uint64
    for key, state, generator in zip(keys, states, generators(states)):
        sequence = np.random.SeedSequence(key)
        assert state.tolist() == sequence.generate_state(4, np.uint64).tolist()
        assert state[0] == sequence.generate_state(1, np.uint64)[0]
        reference = np.random.default_rng(key)
        assert generator.bit_generator.state == reference.bit_generator.state
        assert generator.random(3).tolist() == reference.random(3).tolist()
        assert generator.permutation(17).tolist() == reference.permutation(17).tolist()
        assert generator.integers(2**40) == reference.integers(2**40)


def by_width(blocks, keys=None):
    """`blocks` as one `seed_states` call per key entropy width: {width:
    (blocks, keys)}, each block cut into its ids of that width in order (an
    array stays an array), beside the keys they stand for."""
    keys = iter(keys_of(blocks) if keys is None else keys)
    calls = {}
    for prefix, ids in blocks:
        column = np.asarray(ids, dtype=object).tolist()
        widths = [max(len(seed_words([*prefix, i])), streams.POOL_SIZE) for i in column]
        block_keys = [next(keys) for _ in column]
        for width in dict.fromkeys(widths):
            picks = [w == width for w in widths]
            part = ids[np.array(picks)] if isinstance(ids, np.ndarray) else list(compress(ids, picks))
            call_blocks, call_keys = calls.setdefault(width, ([], []))
            call_blocks.append((prefix, part))
            call_keys.extend(compress(block_keys, picks))
    return calls


def assert_streams_match_by_width(blocks, keys=None):
    """`assert_streams_match` over one call per key entropy width."""
    for call_blocks, call_keys in by_width(blocks, keys).values():
        assert_streams_match(call_blocks, call_keys)


# A block's ids as a uint64 array or as a list of ints.
id_columns = st.lists(uint64s, min_size=1, max_size=12)
id_columns = st.one_of(id_columns.map(lambda ids: np.array(ids, dtype=np.uint64)), id_columns)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(ints, max_size=6), id_columns), min_size=1, max_size=6))
def test_prefixed_blocks_match_numpy(blocks):
    # Lists of blocks, each under a prefix of its own, cut into one call
    # per key width; within each call the keys keep block order.
    assert_streams_match_by_width(blocks)


@settings(max_examples=60, deadline=None)
@given(st.lists(ints, max_size=6), st.lists(ints, min_size=1, max_size=12))
def test_prefixed_rows_match_numpy(prefix, column):
    rows = [[*prefix, c] for c in column]
    assert_streams_match_by_width([row_block(row) for row in rows], keys=rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(uint64s, min_size=1, max_size=20))
def test_int_seeds_match_default_rng(seeds):
    states = seed_states([((), np.array(seeds, dtype=np.uint64))])
    for seed, state, generator in zip(seeds, states, generators(states)):
        assert state.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        reference = np.random.default_rng(seed)
        assert generator.permutation(25).tolist() == reference.permutation(25).tolist()
        assert generator.random() == reference.random()


def test_rows_of_every_width_match_numpy():
    rows = [[0], [2**32 - 1, 2**32], [7, 7003, 3, 9], [2**64 - 1, 7004, 3, 9], [1, 2, 3, 4, 5], [2**200, 0, 1]]
    calls = by_width([row_block(row) for row in rows], keys=rows)
    assert sorted(calls) == [4, 5, 9]
    for blocks, keys in calls.values():
        assert_streams_match(blocks, keys)


@pytest.mark.parametrize("prefix", [(), (5,), (5, 7003), (5, 7003, 2), (2**40 + 3, 7003), (2**40 + 3, 7003, 2)])
def test_ids_at_word_edges(prefix):
    # One block whose ids make keys of two widths once the prefix fills
    # the pool, cut into one call per width; as an array and as ints.
    ids = np.array(ID_EDGES, dtype=np.uint64)
    assert_streams_match_by_width([(prefix, ids)])
    assert_streams_match_by_width([(prefix, ids[::-1])])
    assert_streams_match_by_width([(prefix, [0, 2**32 - 1, 2**32, 2**63 - 1])])


def test_multiword_prefixes():
    prefixes = [(2**64 - 1,), (2**96 + 7, 1), (2**40 + 3, 7003, 2), (2**200, 0, 2**33), (1, 2, 3, 4, 5, 6)]
    assert_streams_match_by_width([(prefix, np.arange(5)) for prefix in prefixes])


@pytest.mark.parametrize(
    "blocks",
    [
        # Prefixes of different lengths past the pool: keys of 5 and 6 words.
        [((1, 2, 3, 4), [0]), ((1, 2, 3, 4, 5), np.arange(2))],
        # One block under a 3-word prefix, ids on both sides of 2**32: keys
        # of 4 and 5 words.
        [((5, 7003, 2), [1, 2**32])],
        [((5, 7003, 2), np.array([2**32 - 1, 2**32], dtype=np.uint64))],
    ],
)
def test_keys_of_two_widths_raise(blocks):
    with pytest.raises(ValueError, match="one seed_states call per width"):
        seed_states(blocks)


def test_blocks_of_mixed_widths_keep_block_order():
    # One call per width; within each, the keys keep block order.
    blocks = [
        ((2**40 + 3, 7003, 2), np.arange(4)),
        ((5, 7002), [3, 1, 2]),
        ((2**40 + 3, 7002), np.array([2**64 - 1, 0, 2**32], dtype=np.uint64)),
        ((), np.array([2**64 - 1, 9], dtype=np.uint64)),
        ((1, 2, 3, 4, 5), np.array([7], dtype=np.int64)),
        ((5, 7003, 2), np.arange(3)),
    ]
    assert_streams_match_by_width(blocks)


def test_no_rows_give_no_states():
    assert seed_states([]).shape == (0, 4)
    assert list(generators(seed_states([]))) == []
    assert seed_states([((5, 7003), [])]).shape == (0, 4)
    assert seed_states([((2**40 + 3, 7003, 2), np.arange(0))]).shape == (0, 4)
    blocks = [((5,), []), ((5, 7003), [1, 2]), ((2**40 + 3, 1, 2), []), ((), np.array([2**64 - 1], dtype=np.uint64))]
    assert_streams_match(blocks)


def test_no_ids_make_no_generate_state_pass(monkeypatch):
    # A call of no ids returns at once, also in a run of no rounds, whose
    # two seeding calls, the store pass and the job-stream pass, have no
    # participant and no survivor to seed. ROADMAP item 17, group (c): it
    # counts the engine's calls, as it pins a perf contract, that a seeding
    # call of no keys costs no `_generate_state` pass (38 us each).
    def refused(entropy):
        raise AssertionError("a _generate_state pass over no keys")

    monkeypatch.setattr(streams, "_generate_state", refused)
    results = [seed_states([]), seed_states([((5, 7012), [])])]
    original = engine.seed_states
    monkeypatch.setattr(engine, "seed_states", lambda blocks: results.append(original(blocks)) or results[-1])
    assert run_experiment(ExperimentConfig(max_rounds=0)).records == ()
    assert len(results) == 4
    for states in results:
        assert states.shape == (0, 4) and states.dtype == np.uint64


def test_words_follow_numpy_coercion():
    assert seed_words([0]) == [0]
    assert seed_words([2**32 - 1, 2**32]) == [2**32 - 1, 0, 1]
    assert seed_words([2**64 + 5]) == [5, 0, 1]
    assert seed_words([np.uint64(2**63)]) == [0, 2**31]
    assert seed_words([]) == []


@pytest.mark.parametrize("row", [(-1,), (5, -1), (0, 2**40, -(2**40)), (-1, 5)])
def test_negative_values_raise_like_numpy(row):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(list(row))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        seed_states([(row[:-1], [row[-1]])])


@pytest.mark.parametrize("ids", [[-1], [3, -1], np.array([0, -5]), np.array([-(2**40)], dtype=np.int64)])
def test_a_negative_id_raises(ids):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        seed_states([((5, 7003), [1]), ((5,), ids)])


def _passes(monkeypatch, config):
    """The entropy widths of each `seed_states` call in a run, in call order:
    one list per call, of its `_generate_state` passes. Only `engine` seeds:
    `params` does not import `seed_states`."""
    assert not hasattr(params, "seed_states")
    calls = []
    generate_state, original = streams._generate_state, engine.seed_states

    def counted(entropy):
        calls[-1].append(len(entropy))
        return generate_state(entropy)

    def recorded(blocks):
        calls.append([])
        return original(blocks)

    monkeypatch.setattr(streams, "_generate_state", counted)
    monkeypatch.setattr(engine, "seed_states", recorded)
    run_experiment(config)
    return calls


@pytest.mark.parametrize(
    "seed, first, later",
    [
        # Every key fits the pool: one width.
        (5, [4], [4]),
        # Two-word seed: the training and timing keys are five words, the
        # shard and validation keys four.
        (2**40 + 3, [5], [4]),
    ],
)
def test_one_generate_state_pass_per_width_a_round(monkeypatch, seed, first, later):
    """The engine first plans each round in one pass, of widths `first`, over
    its training and timing keys, and later seeds every shard in one pass, of
    widths `later`; then its training pass makes one pass for the whole run,
    over every round's survivors' training seeds. ROADMAP item 17, group
    (c): it counts the engine's calls, as it pins the measured keeper that
    seeding in columns pays only when the passes are fused."""
    config = ExperimentConfig(
        seed=seed,
        cohort=CohortSpec(n_institutions=9, mean_samples=12.0, n_outliers=2, outlier_scale=6.0),
        participation="all",
        batch_size=8,
        max_rounds=3,
    )
    # The training seeds are uint64s: one pass of 4 words for every round.
    assert _passes(monkeypatch, config) == [first] * 3 + [later, [4]]
