"""`fedpod.streams` against numpy's own `SeedSequence` and `default_rng`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpod.streams import generators, seed_states, seed_words

# Word-count boundaries of numpy's int coercion, plus multi-word values.
EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**96 + 7, 2**130 + 3]
ints = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64 - 1), st.integers(0, 2**160))
uint64s = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


def assert_streams_match(rows):
    states = seed_states(rows)
    assert states.shape == (len(rows), 4) and states.dtype == np.uint64
    for row, state, generator in zip(rows, states, generators(states)):
        sequence = np.random.SeedSequence(row)
        assert state.tolist() == sequence.generate_state(4, np.uint64).tolist()
        assert state[0] == sequence.generate_state(1, np.uint64)[0]
        reference = np.random.default_rng(row)
        assert generator.bit_generator.state == reference.bit_generator.state
        assert generator.random(3).tolist() == reference.random(3).tolist()
        assert generator.permutation(17).tolist() == reference.permutation(17).tolist()
        assert generator.integers(2**40) == reference.integers(2**40)


@settings(max_examples=60, deadline=None)
@given(st.lists(ints, max_size=6), st.lists(ints, min_size=1, max_size=12))
def test_prefixed_rows_match_numpy(prefix, column):
    assert_streams_match([[*prefix, c] for c in column])


@settings(max_examples=60, deadline=None)
@given(st.lists(uint64s, min_size=1, max_size=20))
def test_int_seeds_match_default_rng(seeds):
    states = seed_states([(seed,) for seed in seeds])
    for seed, state, generator in zip(seeds, states, generators(states)):
        assert state.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        reference = np.random.default_rng(seed)
        assert generator.permutation(25).tolist() == reference.permutation(25).tolist()
        assert generator.random() == reference.random()


def test_rows_of_every_width_share_one_call():
    rows = [[], [0], [2**32 - 1, 2**32], [7, 7003, 3, 9], [2**64 - 1, 7004, 3, 9], [1, 2, 3, 4, 5], [2**200, 0, 1]]
    assert_streams_match(rows)


def test_words_follow_numpy_coercion():
    assert seed_words([0]) == [0]
    assert seed_words([2**32 - 1, 2**32]) == [2**32 - 1, 0, 1]
    assert seed_words([2**64 + 5]) == [5, 0, 1]
    assert seed_words([np.uint64(2**63)]) == [0, 2**31]
    assert seed_words([]) == []


@pytest.mark.parametrize("row", [(-1,), (5, -1), (0, 2**40, -(2**40))])
def test_negative_values_raise_like_numpy(row):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(list(row))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        seed_states([row])


def test_no_rows_give_no_states():
    assert seed_states([]).shape == (0, 4)
    assert list(generators(seed_states([]))) == []
