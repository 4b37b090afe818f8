"""`train_round` against its oracle: the sequential `train_local` of
`tests/_oracle.py` run node by node."""

from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import stacked_cost, stacked_gradient, take
from _oracle import _mean_cross_entropy, step_plan, step_ranges, train_local
from fedpod import params
from fedpod.errors import ShapeError, TrainingDivergenceError, ValidationError
from fedpod.params import (
    _BLOCK_NODES,
    _GATHER_ROWS,
    DataShard,
    ModelParams,
    TrainConfig,
    TrainJob,
    _classifier_dims,
    _step_plan,
    _train_block,
    blob_geometry,
    make_blob_shards,
    train_round,
)
from fedpod.streams import seed_states

N_CLASSES = 3
FEATURE_DIM = 4
DIM = N_CLASSES * (FEATURE_DIM + 1)


def shard(rng, n, scale=1.0):
    labels = rng.integers(0, N_CLASSES, size=n)
    return DataShard(scale * rng.standard_normal((n, FEATURE_DIM)), labels)


def window_rows(job):
    """The rows of `job`'s window, in order, computed in plain Python. A
    quota given as None is the whole shard's length by now."""
    return [(job.offset + k) % len(job.shard) for k in range(job.quota)]


def window_of(job):
    """The shard `train_local` sees for a job: its window's rows, in order."""
    rows = window_rows(job)
    return DataShard(job.shard.features[rows], job.shard.labels[rows])


def sequential(start, jobs, epochs, learning_rate, batch_size):
    return [
        train_local(
            start,
            window_of(job),
            job.val,
            TrainConfig(epochs, learning_rate, job.seed, batch_size),
            node_id=job.node_id,
        )
        for job in jobs
    ]


def assert_bit_identical(batched, reference):
    """Node i of the round `batched` against the one-node update `reference[i]`."""
    assert len(batched) == len(reference)
    for i, want in enumerate(reference):
        got = take(batched, [i])
        assert got.node_ids == want.node_ids
        assert got.sizes.tolist() == want.sizes.tolist()
        assert got.params.tobytes() == want.params.tobytes()
        assert got.costs.tobytes() == want.costs.tobytes()


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
        # A whole shard, or a window that may wrap past the shard's end.
        offset = draw(st.integers(0, n - 1))
        quota = draw(st.one_of(st.none(), st.integers(1, n)))
        val = shard(rng, draw(st.integers(1, 12)))
        jobs.append(TrainJob(f"node{k}", data, val, draw(st.integers(0, 2**64 - 1)), offset, quota))
    start = ModelParams(0.3 * rng.standard_normal(DIM))
    epochs = draw(st.integers(1, 4))
    learning_rate = draw(st.sampled_from([1e-3, 0.05, 0.5]))
    batch_size = draw(st.integers(1, 9))
    return start, jobs, epochs, learning_rate, batch_size


@settings(max_examples=60, deadline=None)
@given(rounds())
def test_train_round_matches_train_local_bitwise(case):
    check(*case)
    # `fedpod.params.train_local`, the one-job form of `train_round`, matches too.
    start, jobs, epochs, learning_rate, batch_size = case
    for job in jobs:
        cfg = TrainConfig(epochs, learning_rate, job.seed, batch_size)
        got = params.train_local(start, window_of(job), job.val, cfg, node_id=job.node_id)
        assert_bit_identical(got, sequential(start, [job], epochs, learning_rate, batch_size))


def test_edge_shapes_match_train_local():
    rng = np.random.default_rng(3)
    start = ModelParams(0.1 * rng.standard_normal(DIM))
    big = shard(rng, 23)
    jobs = [
        TrainJob("one-sample", shard(rng, 1), shard(rng, 5), 1),
        TrainJob("last-batch-of-one", shard(rng, 17), shard(rng, 5), 2),  # 17 = 2 * 8 + 1
        TrainJob("wrapping-window", big, shard(rng, 7), 3, 18, 12),
        TrainJob("full-batches", shard(rng, 16), shard(rng, 7), 4),
        TrainJob("same-shard-whole", big, shard(rng, 1), 5),
        TrainJob("inner-window", big, shard(rng, 3), 6, 4, 11),
        TrainJob("window-to-the-last-row", big, shard(rng, 3), 7, 12, 11),
        TrainJob("rotated-whole-shard", big, shard(rng, 2), 8, 5),
    ]
    check(start, jobs, 3, 0.05, 8)
    check(start, jobs, 2, 0.05, 1)


@settings(max_examples=6, deadline=None)
@given(st.integers(40, 140), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_train_round_matches_train_local_at_workload_scale(n_jobs, epochs, seed):
    # A wide round as the benchmark's runs it: 4 classes and 8 features,
    # Poisson(30) shards in batches of 16, and validation shards of a few
    # sizes, so most SGD steps and validation groups stack past `_WIDE_ROWS`.
    rng = np.random.default_rng(seed)
    geometry = blob_geometry(4, 8, seed % 1000)
    train = make_blob_shards(np.maximum(rng.poisson(30, n_jobs), 1).tolist(), geometry, repeat(rng, n_jobs))
    val = make_blob_shards(rng.integers(8, 11, n_jobs).tolist(), geometry, repeat(rng, n_jobs))
    jobs = [TrainJob(f"n{k:03d}", t, v, seed + k) for k, (t, v) in enumerate(zip(train, val))]
    check(ModelParams(0.1 * rng.standard_normal(4 * 9)), jobs, epochs, 1e-3, 16)


@pytest.mark.parametrize(("epochs", "n_whole"), [(3, 2), (4, 4)])
def test_train_round_matches_train_local_at_deep_local_scale(epochs, n_whole):
    # A narrow, deep round as `deep-local-23` runs it: 4 classes and 8
    # features, three jobs on quota windows of about 1,450 rows of
    # 10,000-row shards and a few whole shards of about 1,000 rows, in
    # batches of 16 at the default learning rate, so every job takes
    # hundreds of sequential steps, stacked no wider than `_WIDE_ROWS`.
    rng = np.random.default_rng(23 + epochs)
    geometry = blob_geometry(4, 8, 23)
    windowed = make_blob_shards([10_000] * 3, geometry, repeat(rng, 3))
    whole = make_blob_shards(rng.integers(950, 1_050, n_whole).tolist(), geometry, repeat(rng, n_whole))
    val = make_blob_shards(rng.integers(8, 65, 3 + n_whole).tolist(), geometry, repeat(rng, 3 + n_whole))
    windows = [(int(rng.integers(10_000)), int(rng.integers(1_400, 1_500))) for _ in windowed]
    jobs = [
        TrainJob(f"n{k}", data, v, int(rng.integers(2**63)), *window)
        for k, (data, v, window) in enumerate(zip(windowed + whole, val, windows + [(0, None)] * n_whole))
    ]
    check(ModelParams(0.1 * rng.standard_normal(4 * 9)), jobs, epochs, 1e-3, 16)


def unequal_runs_round(rng):
    """Five jobs in one block, in batches of 9, whose last batches hold 9,
    8, 1, 7 and 2 rows, and whose epoch splits into at least three gather
    runs of unequal length."""
    sizes = [153, 611, 1342, 2005, 2891]
    geometry = blob_geometry(N_CLASSES, FEATURE_DIM, 31)
    train = make_blob_shards(sizes, geometry, repeat(rng, len(sizes)))
    val = make_blob_shards([5, 9, 7, 5, 11], geometry, repeat(rng, len(sizes)))
    _, runs = _step_plan(np.array(sizes), 9)
    assert len({end - first for first, end, _ in runs}) >= 3
    return [TrainJob(f"n{k}", t, v, 40 + k) for k, (t, v) in enumerate(zip(train, val))]


def test_reused_run_buffers_across_unequal_gather_runs_match_train_local():
    # Every gather run refills the same batch buffers, and each step reads
    # them at rows counted from its run's first row, epoch after epoch.
    rng = np.random.default_rng(31)
    check(ModelParams(0.1 * rng.standard_normal(DIM)), unequal_runs_round(rng), 2, 0.05, 9)


def test_divergence_in_the_last_gather_run_is_found_by_the_replay():
    # The largest job's last row in its first epoch's order overflows its
    # logits, so its gradient. That row is in its last batch, which only the
    # plan's last step trains, in the last gather run; the replay of epoch 1
    # runs the bound steps of every run again to find it.
    rng = np.random.default_rng(32)
    jobs = unequal_runs_round(rng)
    big = jobs[-1]
    features = big.shard.features.copy()
    features[np.random.default_rng(big.seed).permutation(len(features))[-1]] *= 1e300
    jobs[-1] = TrainJob(big.node_id, DataShard(features, big.shard.labels), big.val, big.seed)
    got = check_with_divergence(ModelParams(0.1 * rng.standard_normal(DIM)), jobs, 2, 1e10, 9)
    assert got == "training diverged on node 'n4': gradient at epoch 1"


def test_one_and_two_word_seeds_share_a_round():
    rng = np.random.default_rng(7)
    seeds = [0, 2**32 - 1, 2**32, 1, 2**64 - 1, 2**63 + 12345, 99, 2**32 + 1]
    jobs = [TrainJob(f"n{k}", shard(rng, 5 + k), shard(rng, 3), seed) for k, seed in enumerate(seeds)]
    check(ModelParams(0.2 * rng.standard_normal(DIM)), jobs, 3, 0.05, 4)


def test_seeds_of_more_than_two_words_keep_their_streams():
    rng = np.random.default_rng(8)
    seeds = [2**64, 5, 2**96 + 7, 2**64 - 1, 2**130 + 3, 0]
    jobs = [TrainJob(f"n{k}", shard(rng, 4 + k), shard(rng, 3), seed) for k, seed in enumerate(seeds)]
    check(ModelParams(0.2 * rng.standard_normal(DIM)), jobs, 2, 0.05, 4)


def test_negative_seed_raises_like_default_rng():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        train_round(ModelParams.zeros(DIM), [TrainJob("n", shard(rng, 4), shard(rng, 3), -1)], 1, 0.1, 4)


def test_many_jobs_span_several_blocks():
    rng = np.random.default_rng(4)
    jobs = [TrainJob(f"n{k:03d}", shard(rng, 1 + k % 7), shard(rng, 2 + k % 3), k) for k in range(300)]
    check(ModelParams.zeros(DIM), jobs, 2, 0.05, 4)


def test_updates_share_one_read_only_block():
    rng = np.random.default_rng(16)
    jobs = [TrainJob(f"n{k}", shard(rng, 3 + k), shard(rng, 2), k) for k in range(5)]
    updates = train_round(ModelParams.zeros(DIM), jobs, 2, 0.05, 4)
    assert updates.params.shape == (5, DIM) and updates.costs.shape == (3, 5)
    for array in (updates.params, updates.sizes, updates.costs):
        # Neither the column nor any array it views can be written through.
        while array is not None:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0
            array = array.base


def test_no_jobs_trains_nothing():
    updates = train_round(ModelParams.zeros(DIM), [], 1, 0.1, 4)
    assert len(updates) == 0 and updates.params.shape == (0, DIM) and updates.costs.shape == (2, 0)


def test_divergence_names_first_diverging_job_in_plan_order():
    rng = np.random.default_rng(5)
    start = ModelParams.zeros(DIM)
    jobs = [
        TrainJob("calm-a", shard(rng, 9), shard(rng, 4), 1),
        # One step per epoch: logits overflow on the second step.
        TrainJob("late", shard(rng, 4, scale=1e150), shard(rng, 4), 2),
        TrainJob("calm-b", shard(rng, 12), shard(rng, 4), 3, 10, 4),
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
    for offset, quota in ((0, 0), (5, 1), (-1, 2), (1, 6)):
        with pytest.raises(ValidationError) as err:
            train_round(start, [job, TrainJob("m", job.shard, job.val, 0, offset, quota)], 1, 0.1, 4)
        assert str(err.value) == f"job 'm': window of {quota} at {offset} is outside its 5 rows"


def test_windows_wrap_and_refuse_a_quota_above_the_shard():
    # A window of 4 at row 3 of a 5-row shard trains on rows 3, 4, 0 and 1,
    # in that order, and one of 4 rows on a 3-row shard is refused.
    rng = np.random.default_rng(17)
    data, val = shard(rng, 5), shard(rng, 3)
    job = TrainJob("n", data, val, 9, 3, 4)
    assert window_rows(job) == [3, 4, 0, 1]
    rows = DataShard(data.features[[3, 4, 0, 1]], data.labels[[3, 4, 0, 1]])
    want = train_local(ModelParams.zeros(DIM), rows, val, TrainConfig(3, 0.05, 9, 2), node_id="n")
    assert_bit_identical(train_round(ModelParams.zeros(DIM), [job], 3, 0.05, 2), [want])
    small = TrainJob("small", shard(rng, 3), val, 9, 0, 4)
    with pytest.raises(ValidationError, match="^job 'small': window of 4 at 0 is outside its 3 rows$"):
        train_round(ModelParams.zeros(DIM), [small], 1, 0.1, 4)


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
        out.append(TrainJob(job.node_id, data, val, job.seed, job.offset, job.quota))
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
    onehot = np.eye(N_CLASSES)[rng.integers(0, N_CLASSES, size=(k, length))]
    was_bad = ~np.isfinite(params).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = stacked_gradient(params, features, onehot, N_CLASSES, FEATURE_DIM)
        params -= learning_rate * grad
    is_bad = ~np.isfinite(params).all(axis=1)
    assert is_bad[was_bad].all()
    assert is_bad[~np.isfinite(grad).all(axis=1)].all()


def assert_steps_match_flatnonzero_grouping(sizes, batch_size):
    """`_step_plan`'s steps, in order, are the oracle's groups of jobs and batch lengths."""
    _, runs = _step_plan(sizes, batch_size)
    got = [(list(range(lo, hi)), length) for _, _, steps in runs for lo, hi, length, _, _ in steps]
    assert got == [(jobs.tolist(), length) for _, jobs, length in step_ranges(sizes, batch_size)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=12), st.integers(1, 9))
def test_step_ranges_match_flatnonzero_grouping(sizes, batch_size):
    assert_steps_match_flatnonzero_grouping(np.sort(np.array(sizes)), batch_size)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(1, 70), st.sampled_from([1.0, 1e10]), st.integers(0, 2**32 - 1))
def test_stacked_cost_matches_the_one_model_oracle_bitwise(k, size, feature_scale, seed):
    """Clipped at 0, each slice is the oracle's cost, bit for bit; with
    overflowing models the non-finite costs sit in the same places."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((k, DIM)) * rng.choice([1.0, 1e300], size=(k, 1))
    features = feature_scale * rng.standard_normal((k, size, FEATURE_DIM))
    labels = rng.integers(0, N_CLASSES, size=(k, size))
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.array([max(c, 0.0) for c in stacked_cost(values, features, labels, N_CLASSES, FEATURE_DIM).tolist()])
    want = np.array(
        [_mean_cross_entropy(values[i], DataShard(features[i], labels[i]), N_CLASSES, FEATURE_DIM) for i in range(k)]
    )
    finite = np.isfinite(want)
    assert np.isfinite(got).tolist() == finite.tolist()
    assert got[finite].tobytes() == want[finite].tobytes()
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 3000), min_size=1, max_size=300).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)
    ),
    st.integers(1, 64),
)
def test_step_ranges_match_flatnonzero_grouping_at_workload_scale(sizes, batch_size):
    assert_steps_match_flatnonzero_grouping(np.sort(np.array(sizes)), batch_size)


@st.composite
def plans(draw):
    """Sorted job sizes and a batch size: equal sizes, sizes below one batch
    and exact multiples of it, or a mix, some long enough that the plan's
    gather runs split."""
    batch_size = draw(st.integers(1, 32))
    size = st.one_of(
        st.integers(1, max(batch_size - 1, 1)),
        st.integers(1, 40).map(lambda m: m * batch_size),
        st.integers(1, 700),
    )
    n_jobs = draw(st.integers(1, 12))
    if draw(st.booleans()):
        sizes = [draw(size)] * n_jobs
    else:
        sizes = draw(st.lists(size, min_size=n_jobs, max_size=n_jobs))
    return np.sort(np.array(sizes)), batch_size


@settings(max_examples=200, deadline=None)
@given(plans())
def test_step_plan_matches_the_per_step_oracle(plan):
    # The flat plan's runs tile its positions in order, each run's steps tile
    # the run, and no run passes `_GATHER_ROWS` rows unless it is one step.
    # Step by step, its jobs and batch rows are the per-step oracle's.
    sizes, batch_size = plan
    positions, runs = _step_plan(sizes, batch_size)
    assert len(positions) == sizes.sum()
    got = []
    run_first = 0
    for first, end, steps in runs:
        assert first == run_first and steps
        assert end - first <= _GATHER_ROWS or len(steps) == 1
        row = 0
        for lo, hi, length, row_lo, row_hi in steps:
            assert row_lo == row and row_hi - row_lo == (hi - lo) * length
            got.append((lo, hi, positions[first + row_lo : first + row_hi].reshape(hi - lo, length).tolist()))
            row = row_hi
        assert first + row == end
        run_first = end
    assert run_first == len(positions)
    assert got == [(lo, hi, rows.tolist()) for lo, hi, rows in step_plan(sizes, batch_size)]


def test_train_block_rejects_jobs_out_of_size_order():
    rng = np.random.default_rng(14)
    jobs = [TrainJob("big", shard(rng, 5), shard(rng, 3), 1), TrainJob("small", shard(rng, 4), shard(rng, 3), 2)]
    states = seed_states([((), [job.seed for job in jobs])])
    with pytest.raises(ValidationError, match="sorted by training size"):
        _train_block(ModelParams.zeros(DIM), jobs, states, 1, 0.1, 4)


def per_job_input_error(start, jobs):
    """(type, str) of the first input error of checking job by job in `jobs`
    order, after the model against the first job's validation shard, or None.
    A job's training labels are checked over its window's rows only."""
    try:
        n_classes, feature_dim = _classifier_dims(start, jobs[0].val)
        for job in jobs:
            if job.shard.feature_dim != feature_dim or job.val.feature_dim != feature_dim:
                raise ShapeError(f"job {job.node_id!r}: shards must share feature dim {feature_dim}")
            _classifier_dims(start, job.val)
            n, offset, quota = len(job.shard), job.offset, job.quota
            if not (0 <= offset < n and 1 <= quota <= n):
                raise ValidationError(f"job {job.node_id!r}: window of {quota} at {offset} is outside its {n} rows")
            labels = job.shard.labels[window_rows(job)]
            if int(labels.max()) >= n_classes:
                raise ValidationError(f"label {int(labels.max())} out of range for {n_classes} classes")
    except (ShapeError, ValidationError) as exc:
        return type(exc), str(exc)
    return None


# Window faults: "empty" is a quota of 0, "row-outside" an offset at the
# shard's end, "offset-negative" an offset of -1 and "quota-past" a quota
# above the shard. "window" is a valid window drawn from the job's stream,
# which may leave a bad training label in the last row outside it.
FAULTS = (
    "train-dim",
    "val-dim",
    "empty",
    "train-label",
    "val-label",
    "row-outside",
    "offset-negative",
    "quota-past",
    "window",
)


def faulty_job(rng, node_id, faults, bad_label):
    """A job with each named input fault; a bad label is `bad_label`."""
    n = 6
    data, val = shard(rng, n), shard(rng, 3)
    offset, quota = (int(rng.integers(n)), int(rng.integers(1, n + 1))) if "window" in faults else (0, None)
    if "train-dim" in faults:
        data = DataShard(rng.standard_normal((n, FEATURE_DIM + 1)), data.labels)
    if "val-dim" in faults:
        val = DataShard(rng.standard_normal((3, FEATURE_DIM + 1)), val.labels)
    if "train-label" in faults:
        data = DataShard(data.features, np.append(data.labels[:-1], bad_label))
    if "val-label" in faults:
        val = DataShard(val.features, np.append(val.labels[:-1], bad_label))
    if "empty" in faults:
        quota = 0
    if "row-outside" in faults:
        offset = n
    if "offset-negative" in faults:
        offset = -1
    if "quota-past" in faults:
        quota = n + 1
    return TrainJob(node_id, data, val, 0, offset, quota)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sets(st.sampled_from(FAULTS), max_size=2), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_input_errors_match_the_per_job_checks(faults, seed):
    # With several jobs bad at once, `train_round` raises the error that
    # checking job by job raises, for the same first job.
    rng = np.random.default_rng(seed)
    jobs = [faulty_job(rng, f"n{k}", job_faults, N_CLASSES + k) for k, job_faults in enumerate(faults)]
    want = per_job_input_error(ModelParams.zeros(DIM), jobs)
    if want is None:
        train_round(ModelParams.zeros(DIM), jobs, 1, 0.1, 4)
        return
    with pytest.raises(want[0]) as err:
        train_round(ModelParams.zeros(DIM), jobs, 1, 0.1, 4)
    assert str(err.value) == want[1]


@pytest.mark.parametrize(
    ("first", "second", "message"),
    [
        ("train-dim", "train-dim", "job 'b': shards must share feature dim 4"),
        ("val-dim", "empty", "job 'b': shards must share feature dim 4"),
        ("empty", "empty", "job 'b': window of 0 at 0 is outside its 6 rows"),
        ("empty", "val-dim", "job 'b': window of 0 at 0 is outside its 6 rows"),
        ("train-label", "train-label", "label 4 out of range for 3 classes"),
        ("train-label", "val-label", "label 4 out of range for 3 classes"),
        ("val-label", "val-label", "label 4 out of range for 3 classes"),
        ("val-label", "row-outside", "label 4 out of range for 3 classes"),
        ("row-outside", "train-label", "job 'b': window of 6 at 6 is outside its 6 rows"),
        ("quota-past", "empty", "job 'b': window of 7 at 0 is outside its 6 rows"),
        ("val-label", "quota-past", "label 4 out of range for 3 classes"),
    ],
)
def test_input_error_names_the_first_bad_job(first, second, message):
    rng = np.random.default_rng(15)
    jobs = [
        faulty_job(rng, "a", (), 0),
        faulty_job(rng, "b", {first}, N_CLASSES + 1),
        faulty_job(rng, "c", (), 0),
        faulty_job(rng, "d", {second}, N_CLASSES + 2),
    ]
    with pytest.raises((ShapeError, ValidationError)) as err:
        train_round(ModelParams.zeros(DIM), jobs, 1, 0.1, 4)
    assert str(err.value) == message
