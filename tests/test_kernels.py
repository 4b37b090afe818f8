"""The stacked SGD and validation kernels on both sides of `_WIDE_ROWS`,
against the one-model kernels of `tests/_oracle.py`, and the class-slice
reductions of the wide side and the class-major ones of the narrow gradient
step against numpy's own reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import Job, lay_out, stacked_cost, stream
from _oracle import StreamSeed, _batch_gradient, _mean_cross_entropy, train_local
from fedpod.errors import TrainingDivergenceError
from fedpod.params import (
    _BLOCK_NODES,
    _SLICE_CLASSES,
    _WIDE_ROWS,
    DataShard,
    ModelParams,
    TrainConfig,
    _bind_step,
    _class_max,
    _class_sum,
    _gradient_views,
    _stacked_gradient,
    _step_scratch,
    _train_block,
    train_round,
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


def test_class_major_sums_reduce_as_numpy_does_on_exp_outputs():
    # The narrow gradient step reduces (k, classes, length) class-major
    # logits over axis 1. On the values `exp` gives (no -0.0, no negative),
    # its max and sum equal numpy's reductions of each contiguous row.
    rng = np.random.default_rng(12)
    exp_outputs = np.array([0.0, 5e-324, 1e-300, 1.0, 1e308, np.inf, np.nan])
    with np.errstate(over="ignore", invalid="ignore"):
        for n_classes in range(1, _SLICE_CLASSES):
            mixed = np.exp(rng.standard_normal((3, n_classes, 5)) * 10.0 ** rng.integers(-8, 4, size=(3, n_classes, 5)))
            special = rng.choice(exp_outputs, size=(4, n_classes, 6))
            for zc in (mixed, special):
                rows = zc.transpose(0, 2, 1).copy()
                col = np.empty((len(zc), 1, zc.shape[2]))
                np.maximum.reduce(zc, axis=1, keepdims=True, out=col)
                assert_same_bits(col[:, 0], np.max(rows, axis=-1))
                np.add.reduce(zc, axis=1, keepdims=True, out=col)
                assert_same_bits(col[:, 0], np.add.reduce(rows, axis=-1))


@st.composite
def stacks(draw):
    """k models on k equal-length batches, with a stacked row count on either
    side of `_WIDE_ROWS`, batches of one row among them, and up to the
    workloads' 8 features; some models' logits overflow."""
    n_classes = draw(st.sampled_from(CLASS_COUNTS))
    feature_dim = draw(st.integers(1, 8))
    wide = draw(st.booleans())
    if draw(st.integers(0, 3)) == 0:
        length = 1
        k = draw(st.integers(_WIDE_ROWS, _WIDE_ROWS + 4) if wide else st.integers(1, _WIDE_ROWS - 1))
    elif wide:
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
def test_stacked_cost_matches_the_one_model_oracle_bitwise_on_both_sides_of_the_gate(stack):
    # Calls `_bind_costs` itself, not `train_round`: it pins the `_WIDE_ROWS`
    # and `_SLICE_CLASSES` gate the roadmap keeps as measured, on class counts
    # and per-model scales no round of one start model reaches.
    values, features, labels, n_classes, feature_dim = stack
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.array([max(c, 0.0) for c in stacked_cost(values, features, labels, n_classes, feature_dim).tolist()])
    want = np.array(
        [
            _mean_cross_entropy(values[i], DataShard(features[i], labels[i]), n_classes, feature_dim)
            for i in range(len(values))
        ]
    )
    assert_same_bits(got, want)


@settings(max_examples=120, deadline=None)
@given(stacks(), st.integers(0, 3), st.integers(0, 3))
def test_bound_steps_on_block_slices_with_stale_scratch_match_the_oracle_bitwise(stack, before, after):
    # As `_train_block` binds them: two steps of one shape, jobs lo:hi of one
    # parameter block and one gradient block, batches as rows of one run
    # buffer, and one `_step_scratch` between them, every buffer of which
    # (the class-major logits too) starts as NaN and keeps the other step's
    # values. Each call writes its rows of the gradient and nothing else.
    values, features, labels, n_classes, feature_dim = stack
    k, length = labels.shape
    cases = [(values, features, labels), (values[::-1].copy(), features[::-1].copy(), labels[::-1].copy())]
    block = np.full((before + 2 * k + after, values.shape[1]), 0.5)
    grad = np.full_like(block, 7.0)
    views = _gradient_views(block, grad, n_classes, feature_dim)
    run = np.full((2 * k * length, feature_dim), np.nan)
    run_onehot = np.full((2 * k * length, n_classes), np.nan)
    scratch = _step_scratch(k, length, n_classes)
    for buffer in scratch:
        if buffer is not None and buffer.base is None:  # the transposed logits are a view
            buffer.fill(np.nan)
    steps = []
    for i, (v, f, y) in enumerate(cases):
        lo, rows = before + i * k, slice(i * k * length, (i + 1) * k * length)
        block[lo : lo + k] = v
        run[rows] = f.reshape(-1, feature_dim)
        run_onehot[rows] = np.eye(n_classes)[y.ravel()]
        batch = run[rows].reshape(k, length, feature_dim), run_onehot[rows].reshape(k, length, n_classes)
        steps.append((lo, v, f, y, _bind_step(views, lo, lo + k, *batch, scratch)))
    block_bytes = block.tobytes()
    written = np.zeros(len(block), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, v, f, y, step in steps + steps[:1]:
            _stacked_gradient(step)
            written[lo : lo + k] = True
            for i in range(k):
                assert_same_bits(grad[lo + i], _batch_gradient(v[i], f[i], y[i], n_classes, feature_dim))
            assert (grad[~written] == 7.0).all()
            assert block.tobytes() == block_bytes


@st.composite
def validation_blocks(draw):
    """One block of 3 classes: jobs whose validation shards take at least 3
    distinct sizes, with all their rows together on either side of
    `_WIDE_ROWS`, and maybe one job whose validation logits overflow."""
    n_classes, feature_dim = 3, 4
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n_jobs, size_range = draw(st.integers(6, 14)), (45, 80)  # at least 270 rows
    else:
        n_jobs, size_range = draw(st.integers(3, 10)), (1, 25)  # at most 250 rows
    distinct = draw(st.lists(st.integers(*size_range), min_size=3, max_size=4, unique=True))
    val_sizes = rng.permutation(distinct[:3] + rng.choice(distinct, n_jobs - 3).tolist())
    # Class 0's weights are all 1, so features of 1e308 overflow its logit.
    start = 0.3 * rng.standard_normal(n_classes * (feature_dim + 1))
    start[:feature_dim] = 1.0
    bad = draw(st.one_of(st.none(), st.integers(0, n_jobs - 1)))
    jobs = []
    for i, size in enumerate(val_sizes.tolist()):
        val = rng.standard_normal((size, feature_dim)) if i != bad else np.full((size, feature_dim), 1e308)
        n_train = int(rng.integers(1, 20))
        jobs.append(
            Job(
                f"n{i}",
                DataShard(rng.standard_normal((n_train, feature_dim)), rng.integers(0, n_classes, n_train)),
                DataShard(val, rng.integers(0, n_classes, size)),
                stream(int(rng.integers(2**63))),
            )
        )
    assert len(jobs) <= _BLOCK_NODES and len({len(job.val) for job in jobs}) >= 3
    return ModelParams(start), jobs, None if bad is None else f"n{bad}", n_classes, feature_dim


@settings(max_examples=100, deadline=None)
@given(validation_blocks())
def test_flat_validation_pass_matches_the_one_model_oracle_bitwise(block):
    # Each job's cost column from one `_train_block` of one epoch: before
    # training on the start model and after it on the trained one. A job
    # whose validation cost is not finite leaves every other cost exact.
    start, jobs, bad, n_classes, feature_dim = block
    jobs.sort(key=lambda job: len(job.shard))
    with np.errstate(over="ignore", invalid="ignore"):
        values, costs, diverged = _train_block(start, *lay_out(jobs), np.arange(len(jobs)), 1, 1e-3, 8)
    want_diverged = {}
    for i, job in enumerate(jobs):
        want = np.array(
            [_mean_cross_entropy(v, job.val, n_classes, feature_dim) for v in (start.values, values[i])]
        )
        assert_same_bits(np.where(costs[:, i] < 0.0, 0.0, costs[:, i]), want)
        if not np.isfinite(want[0]):
            want_diverged[i] = "validation cost at epoch 0"
    assert diverged == want_diverged
    assert [jobs[i].node_id for i in diverged] == ([] if bad is None else [bad])
    # The round raises the oracle's first error, or has the oracle's costs.
    oracle_error = None
    for job in jobs:
        try:
            train_local(start, job.shard, job.val, TrainConfig(1, 1e-3, StreamSeed(job.stream), 8), node_id=job.node_id)
        except TrainingDivergenceError as exc:
            oracle_error = str(exc)
            break
    if oracle_error is not None:
        with pytest.raises(TrainingDivergenceError) as err:
            train_round(start, *lay_out(jobs), 1, 1e-3, 8)
        assert str(err.value) == oracle_error
    else:
        got = train_round(start, *lay_out(jobs), 1, 1e-3, 8).costs
        assert got.tobytes() == np.where(costs < 0.0, 0.0, costs).tobytes()
