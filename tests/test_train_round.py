"""`train_round` against its oracle: `train_local` run node by node."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpod.errors import ShapeError, TrainingDivergenceError, ValidationError
from fedpod.params import (
    _BLOCK_NODES,
    DataShard,
    ModelParams,
    TrainConfig,
    TrainJob,
    _stacked_gradient,
    _step_ranges,
    _train_block,
    train_local,
    train_round,
)
from fedpod.streams import seed_states
from fedpod.selection import window_indices

N_CLASSES = 3
FEATURE_DIM = 4
DIM = N_CLASSES * (FEATURE_DIM + 1)


def shard(rng, n, scale=1.0):
    labels = rng.integers(0, N_CLASSES, size=n)
    return DataShard(scale * rng.standard_normal((n, FEATURE_DIM)), labels)


def rows_of(data, rows):
    """The shard `train_local` sees for a job: its rows, in order."""
    if rows is None:
        return data
    return DataShard(data.features[rows], data.labels[rows])


def sequential(start, jobs, epochs, learning_rate, batch_size):
    return [
        train_local(
            start,
            rows_of(job.shard, job.rows),
            job.val,
            TrainConfig(epochs, learning_rate, job.seed, batch_size),
            node_id=job.node_id,
        )
        for job in jobs
    ]


def assert_bit_identical(batched, reference):
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        assert got.node_id == want.node_id
        assert got.data_size == want.data_size
        assert got.params.values.tobytes() == want.params.values.tobytes()
        assert got.trajectory.costs == want.trajectory.costs


def check(start, jobs, epochs, learning_rate, batch_size):
    batched = train_round(start, jobs, epochs, learning_rate, batch_size)
    assert_bit_identical(batched, sequential(start, jobs, epochs, learning_rate, batch_size))


@st.composite
def rounds(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jobs = []
    for k in range(draw(st.integers(1, 7))):
        n = draw(st.integers(1, 40))
        data = shard(rng, n)
        rows = None
        if draw(st.booleans()):
            quota = draw(st.integers(1, n))
            rows = window_indices(n, draw(st.integers(0, n - 1)), quota)
        val = shard(rng, draw(st.integers(1, 12)))
        jobs.append(TrainJob(f"node{k}", data, val, draw(st.integers(0, 2**64 - 1)), rows))
    start = ModelParams(0.3 * rng.standard_normal(DIM))
    epochs = draw(st.integers(1, 4))
    learning_rate = draw(st.sampled_from([1e-3, 0.05, 0.5]))
    batch_size = draw(st.integers(1, 9))
    return start, jobs, epochs, learning_rate, batch_size


@settings(max_examples=60, deadline=None)
@given(rounds())
def test_train_round_matches_train_local_bitwise(case):
    check(*case)


def test_edge_shapes_match_train_local():
    rng = np.random.default_rng(3)
    start = ModelParams(0.1 * rng.standard_normal(DIM))
    big = shard(rng, 23)
    jobs = [
        TrainJob("one-sample", shard(rng, 1), shard(rng, 5), 1),
        TrainJob("last-batch-of-one", shard(rng, 17), shard(rng, 5), 2),  # 17 = 2 * 8 + 1
        TrainJob("wrapping-window", big, shard(rng, 7), 3, window_indices(23, 18, 12)),
        TrainJob("full-batches", shard(rng, 16), shard(rng, 7), 4),
        TrainJob("same-shard-whole", big, shard(rng, 1), 5),
    ]
    check(start, jobs, 3, 0.05, 8)
    check(start, jobs, 2, 0.05, 1)


def test_one_and_two_word_seeds_share_a_round():
    rng = np.random.default_rng(7)
    seeds = [0, 2**32 - 1, 2**32, 1, 2**64 - 1, 2**63 + 12345, 99, 2**32 + 1]
    jobs = [TrainJob(f"n{k}", shard(rng, 5 + k), shard(rng, 3), seed) for k, seed in enumerate(seeds)]
    check(ModelParams(0.2 * rng.standard_normal(DIM)), jobs, 3, 0.05, 4)


def test_negative_seed_raises_like_default_rng():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        train_round(ModelParams.zeros(DIM), [TrainJob("n", shard(rng, 4), shard(rng, 3), -1)], 1, 0.1, 4)


def test_many_jobs_span_several_blocks():
    rng = np.random.default_rng(4)
    jobs = [TrainJob(f"n{k:03d}", shard(rng, 1 + k % 7), shard(rng, 2 + k % 3), k) for k in range(300)]
    check(ModelParams.zeros(DIM), jobs, 2, 0.05, 4)


def test_no_jobs_trains_nothing():
    assert train_round(ModelParams.zeros(DIM), [], 1, 0.1, 4) == []


def test_divergence_names_first_diverging_job_in_plan_order():
    rng = np.random.default_rng(5)
    start = ModelParams.zeros(DIM)
    jobs = [
        TrainJob("calm-a", shard(rng, 9), shard(rng, 4), 1),
        # One step per epoch: logits overflow on the second step.
        TrainJob("late", shard(rng, 4, scale=1e150), shard(rng, 4), 2),
        TrainJob("calm-b", shard(rng, 12), shard(rng, 4), 3, window_indices(12, 10, 4)),
        # The very first update overflows the parameters.
        TrainJob("early", shard(rng, 4, scale=1e300), shard(rng, 4), 4),
    ]
    epochs, learning_rate, batch_size = 3, 1e10, 4
    messages = {}
    for job in jobs:
        try:
            sequential(start, [job], epochs, learning_rate, batch_size)
        except TrainingDivergenceError as exc:
            messages[job.node_id] = str(exc)
    assert messages == {
        "late": "training diverged on node 'late': gradient at epoch 2",
        "early": "training diverged on node 'early': parameters at epoch 1",
    }
    with pytest.raises(TrainingDivergenceError) as err:
        train_round(start, jobs, epochs, learning_rate, batch_size)
    assert err.value.node_id == "late"
    assert str(err.value) == messages["late"]


def test_inputs_are_checked():
    rng = np.random.default_rng(6)
    start = ModelParams.zeros(DIM)
    job = TrainJob("n", shard(rng, 5), shard(rng, 3), 0)
    with pytest.raises(ValidationError):
        train_round(start, [job], 0, 0.1, 4)
    with pytest.raises(ValidationError):
        train_round(start, [job], 1, 0.1, 0)
    with pytest.raises(ValidationError, match="learning_rate must be finite"):
        train_round(start, [job], 1, np.inf, 4)
    other_dim = DataShard(np.zeros((2, 2)), np.zeros(2, dtype=int))
    with pytest.raises(ShapeError):
        train_round(start, [job, TrainJob("m", other_dim, job.val, 0)], 1, 0.1, 4)
    bad_label = DataShard(np.zeros((2, FEATURE_DIM)), np.array([0, N_CLASSES]))
    with pytest.raises(ValidationError, match="out of range"):
        train_round(start, [TrainJob("m", bad_label, job.val, 0)], 1, 0.1, 4)
    with pytest.raises(ValidationError, match="no training rows"):
        train_round(start, [TrainJob("m", job.shard, job.val, 0, np.array([], dtype=np.int64))], 1, 0.1, 4)


def first_error(start, jobs, epochs, learning_rate, batch_size):
    """`str` of the first error `train_local` raises, job by job in plan order, or None."""
    for job in jobs:
        try:
            sequential(start, [job], epochs, learning_rate, batch_size)
        except TrainingDivergenceError as exc:
            return job.node_id, str(exc)
    return None


def check_with_divergence(start, jobs, epochs, learning_rate, batch_size):
    """`check`, where a round that diverges must raise `train_local`'s first error."""
    want = first_error(start, jobs, epochs, learning_rate, batch_size)
    if want is None:
        check(start, jobs, epochs, learning_rate, batch_size)
        return None
    with pytest.raises(TrainingDivergenceError) as err:
        train_round(start, jobs, epochs, learning_rate, batch_size)
    assert (err.value.node_id, str(err.value)) == want
    return want[1]


def scaled(data, scale):
    """`data` with its features pushed toward overflow; tanh keeps them finite."""
    return DataShard(scale * np.tanh(data.features), data.labels)


@st.composite
def diverging_rounds(draw):
    start, jobs, epochs, _, batch_size = draw(rounds())
    out = []
    for job in jobs:
        data, val = job.shard, job.val
        if draw(st.booleans()):
            data = scaled(data, 10.0 ** draw(st.integers(100, 300)))
        if draw(st.integers(0, 3)) == 0:
            val = scaled(val, 10.0 ** draw(st.integers(300, 308)))
        out.append(TrainJob(job.node_id, data, val, job.seed, job.rows))
    learning_rate = draw(st.sampled_from([0.05, 1.0, 1e10, 1e100]))
    return start, out, epochs, learning_rate, batch_size


@settings(max_examples=80, deadline=None)
@given(diverging_rounds())
def test_divergence_matches_train_local_first_error(case):
    check_with_divergence(*case)


def test_divergence_across_blocks_names_first_job_in_plan_order():
    rng = np.random.default_rng(12)
    start = ModelParams(0.1 * rng.standard_normal(DIM))
    calm = [TrainJob(f"n{k:03d}", shard(rng, 5 + k % 5), shard(rng, 3), k) for k in range(2 * _BLOCK_NODES + 5)]
    # The smallest job trains in the first block and the largest in the last;
    # the first diverges in a later epoch than the second.
    late = TrainJob("late", shard(rng, 4, scale=1e150), shard(rng, 3), 1)
    early = TrainJob("early", shard(rng, 40, scale=1e300), shard(rng, 3), 2)
    assert first_error(start, [late], 3, 1e10, 4)[1] == "training diverged on node 'late': gradient at epoch 2"
    assert first_error(start, [early], 3, 1e10, 4)[1] == "training diverged on node 'early': parameters at epoch 1"
    for first, second in ((late, early), (early, late)):
        jobs = [*calm[:3], first, *calm[3:200], second, *calm[200:]]
        assert check_with_divergence(start, jobs, 3, 1e10, 4).startswith(f"training diverged on node {first.node_id!r}")


def test_non_finite_validation_cost_names_the_node():
    rng = np.random.default_rng(13)
    calm = TrainJob("calm", shard(rng, 6), shard(rng, 3), 1)
    job = TrainJob("overflowing-val", shard(rng, 6), scaled(shard(rng, 3), 1.7e308), 2)
    # A unit-scale model overflows the validation logits before training; the
    # zero model's logits are its biases until the first epoch moves its weights.
    for start, epoch in ((ModelParams(rng.standard_normal(DIM)), 0), (ModelParams.zeros(DIM), 1)):
        want = f"training diverged on node 'overflowing-val': validation cost at epoch {epoch}"
        assert check_with_divergence(start, [calm, job], 2, 1.0, 4) == want


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), min_size=1, max_size=6),
    st.sampled_from([1e-3, 0.5, 1e10]),
    st.sampled_from([1.0, 1e200]),
    st.integers(0, 2**32 - 1),
)
def test_non_finite_parameters_stay_non_finite(injected, learning_rate, feature_scale, seed):
    rng = np.random.default_rng(seed)
    k, length = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    params = rng.standard_normal((k, DIM))
    for value in injected:
        params[rng.integers(k), rng.integers(DIM)] = value
    features = feature_scale * rng.standard_normal((k, length, FEATURE_DIM))
    hot = np.arange(k * length) * N_CLASSES + rng.integers(0, N_CLASSES, size=k * length)
    was_bad = ~np.isfinite(params).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _stacked_gradient(params, features, hot, N_CLASSES, FEATURE_DIM)
        params -= learning_rate * grad
    is_bad = ~np.isfinite(params).all(axis=1)
    assert is_bad[was_bad].all()
    assert is_bad[~np.isfinite(grad).all(axis=1)].all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=12), st.integers(1, 9))
def test_step_ranges_match_flatnonzero_grouping(sizes, batch_size):
    sizes = np.sort(np.array(sizes))
    n_steps = -(-sizes // batch_size)
    last_length = sizes - (n_steps - 1) * batch_size
    want = []
    for step in range(int(n_steps.max())):
        lengths = np.where(n_steps > step + 1, batch_size, last_length)
        for length in np.unique(lengths[n_steps > step]):
            group = np.flatnonzero((n_steps > step) & (lengths == length))
            want.append((step * batch_size, group.tolist(), int(length)))
    got = [(offset, list(range(lo, hi)), length) for offset, lo, hi, length in _step_ranges(sizes, batch_size)]
    assert got == want


def test_train_block_rejects_jobs_out_of_size_order():
    rng = np.random.default_rng(14)
    jobs = [TrainJob("big", shard(rng, 5), shard(rng, 3), 1), TrainJob("small", shard(rng, 4), shard(rng, 3), 2)]
    states = seed_states([(job.seed,) for job in jobs])
    with pytest.raises(ValidationError, match="sorted by training size"):
        _train_block(ModelParams.zeros(DIM), jobs, [slice(None)] * 2, states, 1, 0.1, 4)
