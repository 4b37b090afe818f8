"""The stacked SGD kernels on both sides of `_WIDE_ROWS`, against the one-model
kernels of `tests/_oracle.py`, and the class-slice reductions of the wide
side against numpy's own reductions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import _batch_gradient, _mean_cross_entropy
from fedpod.params import (
    _SLICE_CLASSES,
    _WIDE_ROWS,
    DataShard,
    _class_max,
    _class_sum,
    _stacked_cost,
    _stacked_gradient,
)

# Both sides of `_SLICE_CLASSES`: the slice passes run below it, and the
# per-row reductions from it, on numpy's pairwise sums.
CLASS_COUNTS = (2, 3, 4, 8, 9, 17, 130)
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])


def assert_same_bits(got, want):
    """Equal shapes, NaNs in the same places and every other value equal bit
    for bit, signed zeros included. A NaN's payload may depend on which NaN
    an operation met first, so NaNs are compared by place alone."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_class_slices_reduce_as_numpy_does():
    # The order `_class_sum` copies is numpy's, for every class count the
    # slice passes take, on finite values of mixed magnitude and on signed
    # zeros, infinities and NaNs.
    rng = np.random.default_rng(11)
    with np.errstate(over="ignore", invalid="ignore"):
        for n_classes in range(1, _SLICE_CLASSES):
            mixed = rng.standard_normal((3, 5, n_classes)) * 10.0 ** rng.integers(-8, 9, size=(3, 5, n_classes))
            special = rng.choice(SPECIAL, size=(4, n_classes))
            zeros = np.full((1, n_classes), -0.0)
            for z in (mixed, special, zeros, mixed.transpose(1, 0, 2)):
                assert_same_bits(_class_max(z), np.max(z, axis=-1))
                assert_same_bits(_class_sum(z), np.add.reduce(z, axis=-1))


@st.composite
def stacks(draw):
    """k models on k equal-length batches, with a stacked row count on either
    side of `_WIDE_ROWS`; some models' logits overflow."""
    n_classes = draw(st.sampled_from(CLASS_COUNTS))
    feature_dim = draw(st.integers(1, 5))
    if draw(st.booleans()):
        k = draw(st.integers(1, 40))
        length = draw(st.integers(-(-_WIDE_ROWS // k), _WIDE_ROWS))
    else:
        k = draw(st.integers(1, 20))
        length = draw(st.integers(1, (_WIDE_ROWS - 1) // k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 0.3 * rng.standard_normal((k, n_classes * (feature_dim + 1)))
    # A scale of 1e306 overflows some logits; their rows go non-finite.
    values *= rng.choice([1.0, 1.0, 1.0, 1e306], size=(k, 1))
    features = rng.standard_normal((k, length, feature_dim))
    labels = rng.integers(0, n_classes, size=(k, length))
    return values, features, labels, n_classes, feature_dim


@settings(max_examples=120, deadline=None)
@given(stacks())
def test_stacked_gradient_matches_the_one_model_oracle_bitwise(stack):
    values, features, labels, n_classes, feature_dim = stack
    k, length = labels.shape
    onehot = np.eye(n_classes)[labels]
    with np.errstate(over="ignore", invalid="ignore"):
        got = _stacked_gradient(values, features, onehot, n_classes, feature_dim)
    for i in range(k):
        assert_same_bits(got[i], _batch_gradient(values[i], features[i], labels[i], n_classes, feature_dim))


@settings(max_examples=120, deadline=None)
@given(stacks())
def test_stacked_cost_matches_the_one_model_oracle_bitwise_on_both_sides_of_the_gate(stack):
    values, features, labels, n_classes, feature_dim = stack
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.array([max(c, 0.0) for c in _stacked_cost(values, features, labels, n_classes, feature_dim).tolist()])
    want = np.array(
        [
            _mean_cross_entropy(values[i], DataShard(features[i], labels[i]), n_classes, feature_dim)
            for i in range(len(values))
        ]
    )
    assert_same_bits(got, want)
