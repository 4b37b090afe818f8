"""`train_round` against its oracle: `train_local` run node by node."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpod.engine import TimingSample
from fedpod.errors import ShapeError, TrainingDivergenceError, ValidationError
from fedpod.params import DataShard, ModelParams, TrainConfig, TrainJob, train_local, train_round
from fedpod.selection import window_indices

N_CLASSES = 3
FEATURE_DIM = 4
DIM = N_CLASSES * (FEATURE_DIM + 1)


def shard(rng, n, scale=1.0, tag="s"):
    labels = rng.integers(0, N_CLASSES, size=n)
    return DataShard(scale * rng.standard_normal((n, FEATURE_DIM)), labels, tuple(f"{tag}{k}" for k in range(n)))


def rows_of(data, rows):
    """The shard `train_local` sees for a job: its rows, in order."""
    if rows is None:
        return data
    return DataShard(data.features[rows], data.labels[rows], tuple(data.sample_ids[i] for i in rows))


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
        assert got.pre_cost == want.pre_cost
        assert got.post_cost == want.post_cost
        assert got.trajectory.samples == want.trajectory.samples


def check(start, jobs, epochs, learning_rate, batch_size):
    batched = train_round(start, jobs, epochs, learning_rate, batch_size)
    assert_bit_identical(batched, sequential(start, jobs, epochs, learning_rate, batch_size))


@st.composite
def rounds(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jobs = []
    for k in range(draw(st.integers(1, 7))):
        n = draw(st.integers(1, 40))
        data = shard(rng, n, tag=f"n{k}-")
        rows = None
        if draw(st.booleans()):
            quota = draw(st.integers(1, n))
            rows = window_indices(n, draw(st.integers(0, n - 1)), quota)
        val = shard(rng, draw(st.integers(1, 12)), tag=f"v{k}-")
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
    big = shard(rng, 23, tag="big")
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


def test_updates_carry_their_jobs_timings():
    rng = np.random.default_rng(8)
    timings = TimingSample(1.0, 2.0, 3.0, 4.0)
    jobs = [
        TrainJob("timed", shard(rng, 6), shard(rng, 3), 1, timings=timings),
        TrainJob("untimed", shard(rng, 4), shard(rng, 3), 2),
    ]
    updates = train_round(ModelParams.zeros(DIM), jobs, 1, 0.1, 4)
    assert [u.timings for u in updates] == [timings, None]


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
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
    other_dim = DataShard(np.zeros((2, 2)), np.zeros(2, dtype=int), ("a", "b"))
    with pytest.raises(ShapeError):
        train_round(start, [job, TrainJob("m", other_dim, job.val, 0)], 1, 0.1, 4)
    bad_label = DataShard(np.zeros((2, FEATURE_DIM)), np.array([0, N_CLASSES]), ("a", "b"))
    with pytest.raises(ValidationError, match="out of range"):
        train_round(start, [TrainJob("m", bad_label, job.val, 0)], 1, 0.1, 4)
    with pytest.raises(ValidationError, match="no training rows"):
        train_round(start, [TrainJob("m", job.shard, job.val, 0, np.array([], dtype=np.int64))], 1, 0.1, 4)
