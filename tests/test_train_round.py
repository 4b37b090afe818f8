"""`train_round` against its oracle: the sequential `train_local` of
`tests/_oracle.py` run node by node."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import Job, lay_out, stacked_gradient, stream, take
from _oracle import StreamSeed, step_plan, train_local
from fedpod import params
from fedpod.errors import ShapeError, TrainingDivergenceError, ValidationError
from fedpod.params import (
    _BLOCK_NODES,
    _GATHER_ROWS,
    DataShard,
    ModelParams,
    RoundJobs,
    TrainConfig,
    _step_plan,
    _train_block,
    blob_geometry,
    make_blob_shard,
    train_round,
)

N_CLASSES = 3
FEATURE_DIM = 4
DIM = N_CLASSES * (FEATURE_DIM + 1)


def shard(rng, n, scale=1.0):
    labels = rng.integers(0, N_CLASSES, size=n)
    return DataShard(scale * rng.standard_normal((n, FEATURE_DIM)), labels)


def blob_shards(sizes, geometry, rng):
    """A shard of each size, drawn one after another from `rng`."""
    return [make_blob_shard(n, geometry, rng) for n in sizes]


def window_rows(job):
    """The rows of `job`'s window, in order, computed in plain Python. A
    quota of None is the whole shard."""
    quota = len(job.shard) if job.quota is None else job.quota
    return [(job.offset + k) % len(job.shard) for k in range(quota)]


def window_of(job):
    """The shard `train_local` sees for a job: its window's rows, in order."""
    rows = window_rows(job)
    return DataShard(job.shard.features[rows], job.shard.labels[rows])


def sequential(start, jobs, epochs, learning_rate, batch_size):
    """The oracle, job by job, each drawing its batch orders from its own stream."""
    return [
        train_local(
            start,
            window_of(job),
            job.val,
            TrainConfig(epochs, learning_rate, StreamSeed(job.stream), batch_size),
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
    batched = train_round(start, *lay_out(jobs), epochs, learning_rate, batch_size)
    assert_bit_identical(batched, sequential(start, jobs, epochs, learning_rate, batch_size))


@st.composite
def seeded_rounds(draw):
    """A round, `(start, jobs, epochs, learning_rate, batch_size)`, and the
    seed of each job's stream."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jobs, seeds = [], []
    for k in range(draw(st.integers(1, 7))):
        n = draw(st.integers(1, 40))
        data = shard(rng, n)
        # A whole shard, or a window that may wrap past the shard's end.
        offset = draw(st.integers(0, n - 1))
        quota = draw(st.one_of(st.none(), st.integers(1, n)))
        val = shard(rng, draw(st.integers(1, 12)))
        seeds.append(draw(st.integers(0, 2**64 - 1)))
        jobs.append(Job(f"node{k}", data, val, stream(seeds[-1]), offset, quota))
    start = ModelParams(0.3 * rng.standard_normal(DIM))
    epochs = draw(st.integers(1, 4))
    learning_rate = draw(st.sampled_from([1e-3, 0.05, 0.5]))
    batch_size = draw(st.integers(1, 9))
    return (start, jobs, epochs, learning_rate, batch_size), seeds


def rounds():
    return seeded_rounds().map(lambda drawn: drawn[0])


@settings(max_examples=60, deadline=None)
@given(seeded_rounds())
def test_train_round_matches_train_local_bitwise(drawn):
    case, seeds = drawn
    check(*case)
    # `fedpod.params.train_local`, the one-job form of `train_round`, matches
    # too, on the seed of the job's stream.
    start, jobs, epochs, learning_rate, batch_size = case
    for job, seed in zip(jobs, seeds):
        cfg = TrainConfig(epochs, learning_rate, seed, batch_size)
        got = params.train_local(start, window_of(job), job.val, cfg, node_id=job.node_id)
        assert_bit_identical(got, sequential(start, [job], epochs, learning_rate, batch_size))


def test_edge_shapes_match_train_local():
    rng = np.random.default_rng(3)
    start = ModelParams(0.1 * rng.standard_normal(DIM))
    big = shard(rng, 23)
    jobs = [
        Job("one-sample", shard(rng, 1), shard(rng, 5), stream(1)),
        Job("last-batch-of-one", shard(rng, 17), shard(rng, 5), stream(2)),  # 17 = 2 * 8 + 1
        Job("wrapping-window", big, shard(rng, 7), stream(3), 18, 12),
        Job("full-batches", shard(rng, 16), shard(rng, 7), stream(4)),
        Job("same-shard-whole", big, shard(rng, 1), stream(5)),
        Job("inner-window", big, shard(rng, 3), stream(6), 4, 11),
        Job("window-to-the-last-row", big, shard(rng, 3), stream(7), 12, 11),
        Job("rotated-whole-shard", big, shard(rng, 2), stream(8), 5),
    ]
    check(start, jobs, 3, 0.05, 8)
    check(start, jobs, 2, 0.05, 1)


@settings(max_examples=6, deadline=None)
@given(st.integers(40, 140), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_train_round_matches_train_local_at_workload_scale(n_jobs, epochs, seed):
    # A wide round as the benchmark's runs it: 4 classes and 8 features, so
    # class-major softmax everywhere, Poisson(30) shards in batches of 16,
    # and validation shards of a few sizes, so most SGD steps stack past
    # `_WIDE_ROWS` and reduce their bias gradient from a copy.
    rng = np.random.default_rng(seed)
    geometry = blob_geometry(4, 8, seed % 1000)
    train = blob_shards(np.maximum(rng.poisson(30, n_jobs), 1).tolist(), geometry, rng)
    val = blob_shards(rng.integers(8, 11, n_jobs).tolist(), geometry, rng)
    jobs = [Job(f"n{k:03d}", t, v, stream(seed + k)) for k, (t, v) in enumerate(zip(train, val))]
    check(ModelParams(0.1 * rng.standard_normal(4 * 9)), jobs, epochs, 1e-3, 16)


@pytest.mark.parametrize(("epochs", "n_whole"), [(3, 2), (4, 4)])
def test_train_round_matches_train_local_at_deep_local_scale(epochs, n_whole):
    # A narrow, deep round as `deep-local-23` runs it: 4 classes and 8
    # features, three jobs on quota windows of about 1,450 rows of
    # 10,000-row shards and a few whole shards of about 1,000 rows, in
    # batches of 16 at the default learning rate, so every job takes
    # hundreds of sequential class-major steps of a few models, below
    # `_WIDE_ROWS`, which reduce their bias gradient model by model.
    rng = np.random.default_rng(23 + epochs)
    geometry = blob_geometry(4, 8, 23)
    windowed = blob_shards([10_000] * 3, geometry, rng)
    whole = blob_shards(rng.integers(950, 1_050, n_whole).tolist(), geometry, rng)
    val = blob_shards(rng.integers(8, 65, 3 + n_whole).tolist(), geometry, rng)
    windows = [(int(rng.integers(10_000)), int(rng.integers(1_400, 1_500))) for _ in windowed]
    jobs = [
        Job(f"n{k}", data, v, stream(int(rng.integers(2**63))), *window)
        for k, (data, v, window) in enumerate(zip(windowed + whole, val, windows + [(0, None)] * n_whole))
    ]
    check(ModelParams(0.1 * rng.standard_normal(4 * 9)), jobs, epochs, 1e-3, 16)


def unequal_runs_round(rng):
    """Five jobs in one block, in batches of 9, whose last batches hold 9,
    8, 1, 7 and 2 rows, and whose epoch splits into at least three gather
    runs of unequal length."""
    sizes = [153, 611, 1342, 2005, 2891]
    geometry = blob_geometry(N_CLASSES, FEATURE_DIM, 31)
    train = blob_shards(sizes, geometry, rng)
    val = blob_shards([5, 9, 7, 5, 11], geometry, rng)
    _, runs = _step_plan(np.array(sizes), 9)
    assert len({end - first for first, end, _ in runs}) >= 3
    return [Job(f"n{k}", t, v, stream(40 + k)) for k, (t, v) in enumerate(zip(train, val))]


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
    features[np.random.default_rng(StreamSeed(big.stream)).permutation(len(features))[-1]] *= 1e300
    jobs[-1] = Job(big.node_id, DataShard(features, big.shard.labels), big.val, big.stream)
    got = check_with_divergence(ModelParams(0.1 * rng.standard_normal(DIM)), jobs, 2, 1e10, 9)
    assert got == "training diverged on node 'n4': gradient at epoch 1"


def check_train_local(start, seeds, sizes, epochs, learning_rate, batch_size, rng):
    """`fedpod.params.train_local` on each seed against the oracle on
    `default_rng(seed)`, each on a fresh shard of the next size."""
    for seed, n in zip(seeds, sizes, strict=True):
        data, val = shard(rng, n), shard(rng, 3)
        cfg = TrainConfig(epochs, learning_rate, seed, batch_size)
        assert_bit_identical(params.train_local(start, data, val, cfg), [train_local(start, data, val, cfg)])


def test_one_and_two_word_seeds_share_a_round():
    # `train_local` takes any seed below 2**64, one uint32 word or two.
    rng = np.random.default_rng(7)
    seeds = [0, 2**32 - 1, 2**32, 1, 2**64 - 1, 2**63 + 12345, 99, 2**32 + 1]
    check_train_local(ModelParams(0.2 * rng.standard_normal(DIM)), seeds, range(5, 13), 3, 0.05, 4, rng)


def test_seeds_of_more_than_two_words_keep_their_streams():
    rng = np.random.default_rng(8)
    seeds = [2**64, 5, 2**96 + 7, 2**64 - 1, 2**130 + 3, 0]
    check_train_local(ModelParams(0.2 * rng.standard_normal(DIM)), seeds, range(4, 10), 2, 0.05, 4, rng)


def test_negative_seed_raises_like_default_rng():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        params.train_local(ModelParams.zeros(DIM), shard(rng, 4), shard(rng, 3), TrainConfig(1, 0.1, -1, 4))


@pytest.mark.parametrize(
    "bad",
    [
        stream(5)[:3],
        np.append(stream(5), np.uint64(1)),
        stream(5).astype(np.int64),
        stream(5).reshape(2, 2),
        [int(word) for word in stream(5)],
        5,
    ],
    ids=["3 words", "5 words", "int64 words", "2x2 words", "a list of ints", "an int seed"],
)
def test_a_stream_that_is_not_4_uint64_words_is_refused(bad):
    # The streams column of one job, and of two jobs where the other's is
    # good: a ragged column, which numpy refuses, unless the bad one is 4 words.
    with pytest.raises(ShapeError, match="^each job's stream must be 4 uint64 words$"):
        RoundJobs(("bad",), [0], [4], [0], [3], [0], [4], [bad])
    with pytest.raises(ShapeError, match="^each job's stream must be 4 uint64 words$"):
        RoundJobs(("good", "bad"), [0, 4], [4, 4], [0, 3], [3, 3], [0, 0], [4, 4], [stream(1), bad])


def test_many_jobs_span_several_blocks():
    rng = np.random.default_rng(4)
    jobs = [Job(f"n{k:03d}", shard(rng, 1 + k % 7), shard(rng, 2 + k % 3), stream(k)) for k in range(300)]
    check(ModelParams.zeros(DIM), jobs, 2, 0.05, 4)


def test_updates_share_one_read_only_block():
    rng = np.random.default_rng(16)
    jobs = [Job(f"n{k}", shard(rng, 3 + k), shard(rng, 2), stream(k)) for k in range(5)]
    updates = train_round(ModelParams.zeros(DIM), *lay_out(jobs), 2, 0.05, 4)
    assert updates.params.shape == (5, DIM) and updates.costs.shape == (3, 5)
    for array in (updates.params, updates.sizes, updates.costs):
        # Neither the column nor any array it views can be written through.
        while array is not None:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0
            array = array.base


def test_no_jobs_trains_nothing():
    empty = RoundJobs((), [], [], [], [], [], [], np.empty((0, 4), np.uint64))
    updates = train_round(ModelParams.zeros(DIM), shard(np.random.default_rng(0), 1), empty, 1, 0.1, 4)
    assert len(updates) == 0 and updates.params.shape == (0, DIM) and updates.costs.shape == (2, 0)


def test_divergence_names_first_diverging_job_in_plan_order():
    rng = np.random.default_rng(5)
    start = ModelParams.zeros(DIM)
    jobs = [
        Job("calm-a", shard(rng, 9), shard(rng, 4), stream(1)),
        # One step per epoch: logits overflow on the second step.
        Job("late", shard(rng, 4, scale=1e150), shard(rng, 4), stream(2)),
        Job("calm-b", shard(rng, 12), shard(rng, 4), stream(3), 10, 4),
        # The very first update overflows the parameters.
        Job("early", shard(rng, 4, scale=1e300), shard(rng, 4), stream(4)),
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
        train_round(start, *lay_out(jobs), epochs, learning_rate, batch_size)
    assert err.value.node_id == "late"
    assert str(err.value) == messages["late"]


def test_inputs_are_checked():
    rng = np.random.default_rng(6)
    start = ModelParams.zeros(DIM)
    job = Job("n", shard(rng, 5), shard(rng, 3), stream(0))
    store, columns = lay_out([job])
    with pytest.raises(ValidationError):
        train_round(start, store, columns, 0, 0.1, 4)
    with pytest.raises(ValidationError):
        train_round(start, store, columns, 1, 0.1, 0)
    with pytest.raises(ValidationError, match="learning_rate must be finite"):
        train_round(start, store, columns, 1, np.inf, 4)
    # A store of a feature dim the model does not fit.
    other_dim = DataShard(np.zeros((8, 3)), np.zeros(8, dtype=int))
    with pytest.raises(ShapeError, match="^model dim 15 does not fit feature dim 3$"):
        train_round(start, other_dim, columns, 1, 0.1, 4)
    # `train_local` lays its two shards into one store, so they must share a feature dim.
    cfg = TrainConfig(1, 0.1, 0, 4)
    for data, val, dims in ((job.shard, other_dim, "4 training, 3"), (other_dim, job.val, "3 training, 4")):
        with pytest.raises(ShapeError, match=f"^the shards' feature dims differ: {dims} validation$"):
            params.train_local(start, data, val, cfg)
    # A job's training or validation rows past the end of the store, before its start or empty.
    bad_rows = [(shard(rng, 7), columns)]
    # A start plus its count past int64 must not wrap round into the store.
    huge = [2**62, 2**62]
    for rows in ([-1, 5, 5, 3], [0, 5, -1, 3], [0, 5, 5, 0], [0, 9, 5, 3], [0, 5, 6, 3], huge + [5, 3], [0, 5] + huge):
        bad_rows.append((store, RoundJobs(("n",), *([row] for row in rows), [0], [5], [stream(0)])))
    for case in bad_rows:
        with pytest.raises(ValidationError, match="^job 'n': its rows are not all inside the store$"):
            train_round(start, *case, 1, 0.1, 4)
    # A label out of range in a job's rows, and one that no job reads.
    bad_label = DataShard(np.zeros((2, FEATURE_DIM)), np.array([0, N_CLASSES]))
    with pytest.raises(ValidationError, match="out of range"):
        train_round(start, *lay_out([Job("m", bad_label, job.val, job.stream)]), 1, 0.1, 4)
    with pytest.raises(ValidationError, match="out of range"):
        train_round(start, *lay_out([Job("m", job.shard, bad_label, job.stream)]), 1, 0.1, 4)
    unread = DataShard(np.vstack([store.features, bad_label.features]), np.append(store.labels, bad_label.labels))
    train_round(start, unread, columns, 1, 0.1, 4)
    # The columns: windows inside each job's rows, and store places and counts.
    for offset, quota in ((0, 0), (5, 1), (-1, 2), (1, 6)):
        with pytest.raises(ValidationError) as err:
            lay_out([job, Job("m", job.shard, job.val, job.stream, offset, quota)])
        assert str(err.value) == f"job 'm': window of {quota} at {offset} is outside its 5 rows"
    with pytest.raises(ShapeError, match="^every job column must hold one entry per node, 2 nodes$"):
        RoundJobs(("n", "m"), [0], [5], [0], [3], [0], [5], [stream(0), stream(1)])


def test_job_columns_hold_one_int64_integer_per_node():
    good = {"train_start": [0, 5], "train_count": [5, 5], "val_start": [10, 13], "val_count": [3, 3]}
    good.update(offset=[4, 0], quota=[2, 5])
    one = {name: column[:1] for name, column in good.items()}
    streams = [stream(0), stream(1)]
    RoundJobs(("n", "m"), *good.values(), streams)
    # Any integer dtype whose entries fit int64, and a round of no jobs.
    jobs = RoundJobs(("n", "m"), *(np.array(column, np.uint64) for column in good.values()), streams)
    assert [getattr(jobs, name).tolist() for name in good] == list(good.values())
    RoundJobs((), [], [], [], [], [], [], np.empty((0, 4), np.uint64))
    for name in good:
        # Each column in turn: one entry too few or too many, or not one row.
        for column in ([0], [0, 5, 5], [[0, 5]], 0):
            with pytest.raises(ShapeError, match="^every job column must hold one entry per node, 2 nodes$"):
                RoundJobs(("n", "m"), *{**good, name: column}.values(), streams)
        # A fraction, which would truncate to a row, integers past int64 at
        # either end, and an entry that is itself a sequence (a ragged column).
        bad = ([0.5, 1], [1.0, 1], [1, 2**63], [-(2**63) - 1, 1], [1, 2**64], [1, None], ["1", "2"], [0, [1]], [[0], 1])
        for column in bad:
            with pytest.raises(ValidationError, match=f"^job column {name!r} must hold integers in int64 range$"):
                RoundJobs(("n", "m"), *{**good, name: column}.values(), streams)
        # A ragged column is refused by name whatever its length.
        with pytest.raises(ValidationError, match=f"^job column {name!r} must hold integers in int64 range$"):
            RoundJobs(("n",), *{**one, name: [0, [1]]}.values(), [stream(0)])


def test_a_window_wraps_within_its_own_rows_of_a_shared_store():
    # Two institutions' rows lie next to each other in one training store.
    # The first's window of 4 at row 3 of its 5 rows wraps to its own rows 0
    # and 1: the modulo is its row count, not the store's length.
    rng = np.random.default_rng(20)
    jobs = [
        Job("wraps", shard(rng, 5), shard(rng, 3), stream(1), 3, 4),
        Job("next", shard(rng, 6), shard(rng, 3), stream(2)),
    ]
    store, columns = lay_out(jobs)
    assert len(store) == 17 and columns.train_start.tolist() == [0, 5] and columns.val_start.tolist() == [11, 14]
    assert window_rows(jobs[0]) == [3, 4, 0, 1]
    check(ModelParams(0.1 * rng.standard_normal(DIM)), jobs, 3, 0.05, 2)


@st.composite
def scattered_rounds(draw):
    """A round from `rounds()`, and the store and columns of its jobs'
    training and validation shards and a few spare shards that no job
    reads, laid out in a drawn order."""
    start, jobs, epochs, learning_rate, batch_size = draw(rounds())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spare = [shard(rng, n) for n in draw(st.lists(st.integers(1, 5), max_size=3))]
    order = draw(st.permutations(range(2 * len(jobs) + len(spare))))
    return (start, jobs, epochs, learning_rate, batch_size), *lay_out(jobs, order, spare)


@settings(max_examples=40, deadline=None)
@given(scattered_rounds())
def test_validation_rows_may_lie_anywhere_in_the_store(drawn):
    # A job's validation rows may come before its window, between other
    # jobs' windows or after them all; only the columns place them.
    (start, jobs, epochs, learning_rate, batch_size), store, columns = drawn
    batched = train_round(start, store, columns, epochs, learning_rate, batch_size)
    assert_bit_identical(batched, sequential(start, jobs, epochs, learning_rate, batch_size))


def test_windows_wrap_and_refuse_a_quota_above_the_shard():
    # A window of 4 at row 3 of a 5-row shard trains on rows 3, 4, 0 and 1,
    # in that order, and one of 4 rows on a 3-row shard is refused.
    rng = np.random.default_rng(17)
    data, val = shard(rng, 5), shard(rng, 3)
    job = Job("n", data, val, stream(9), 3, 4)
    assert window_rows(job) == [3, 4, 0, 1]
    rows = DataShard(data.features[[3, 4, 0, 1]], data.labels[[3, 4, 0, 1]])
    want = train_local(ModelParams.zeros(DIM), rows, val, TrainConfig(3, 0.05, 9, 2), node_id="n")
    assert_bit_identical(train_round(ModelParams.zeros(DIM), *lay_out([job]), 3, 0.05, 2), [want])
    small = Job("small", shard(rng, 3), val, stream(9), 0, 4)
    with pytest.raises(ValidationError, match="^job 'small': window of 4 at 0 is outside its 3 rows$"):
        lay_out([small])


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
        train_round(start, *lay_out(jobs), epochs, learning_rate, batch_size)
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
        out.append(Job(job.node_id, data, val, job.stream, job.offset, job.quota))
    learning_rate = draw(st.sampled_from([0.05, 1.0, 1e10, 1e100]))
    return start, out, epochs, learning_rate, batch_size


@settings(max_examples=80, deadline=None)
@given(diverging_rounds())
def test_divergence_matches_train_local_first_error(case):
    check_with_divergence(*case)


def test_divergence_across_blocks_names_first_job_in_plan_order():
    rng = np.random.default_rng(12)
    start = ModelParams(0.1 * rng.standard_normal(DIM))
    calm = [Job(f"n{k:03d}", shard(rng, 5 + k % 5), shard(rng, 3), stream(k)) for k in range(2 * _BLOCK_NODES + 5)]
    # The smallest job trains in the first block and the largest in the last;
    # the first diverges in a later epoch than the second.
    late = Job("late", shard(rng, 4, scale=1e150), shard(rng, 3), stream(1))
    early = Job("early", shard(rng, 40, scale=1e300), shard(rng, 3), stream(2))
    assert first_error(start, [late], 3, 1e10, 4)[1] == "training diverged on node 'late': gradient at epoch 2"
    assert first_error(start, [early], 3, 1e10, 4)[1] == "training diverged on node 'early': parameters at epoch 1"
    for first, second in ((late, early), (early, late)):
        jobs = [*calm[:3], first, *calm[3:200], second, *calm[200:]]
        assert check_with_divergence(start, jobs, 3, 1e10, 4).startswith(f"training diverged on node {first.node_id!r}")


def test_non_finite_validation_cost_names_the_node():
    rng = np.random.default_rng(13)
    calm = Job("calm", shard(rng, 6), shard(rng, 3), stream(1))
    job = Job("overflowing-val", shard(rng, 6), scaled(shard(rng, 3), 1.7e308), stream(2))
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


@st.composite
def plans(draw):
    """Sorted job sizes and a batch size: equal sizes, sizes below one batch
    and exact multiples of it, or a mix, some long enough that the plan's
    gather runs split; or, at workload scale, up to 300 jobs of up to 3,000
    rows, drawn from a pool of sizes so that many jobs share one."""
    if draw(st.integers(0, 3)) == 0:
        n_jobs = draw(st.integers(1, 300))
        pool = draw(st.lists(st.integers(1, 3000), min_size=1, max_size=n_jobs))
        sizes = draw(st.lists(st.sampled_from(pool), min_size=n_jobs, max_size=n_jobs))
        return np.sort(np.array(sizes)), draw(st.integers(1, 64))
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
    jobs = [Job("big", shard(rng, 5), shard(rng, 3), stream(1)), Job("small", shard(rng, 4), shard(rng, 3), stream(2))]
    with pytest.raises(ValidationError, match="sorted by training size"):
        _train_block(ModelParams.zeros(DIM), *lay_out(jobs), np.arange(2), 1, 0.1, 4)


def per_job_input_error(jobs):
    """`str` of the first input error of checking job by job in `jobs`
    order, or None: first every window inside its shard, then each job's
    validation labels and its window's training labels. A label in no
    job's window is not read."""
    for job in jobs:
        n, quota = len(job.shard), len(window_rows(job))
        if not (0 <= job.offset < n and 1 <= quota <= n):
            return f"job {job.node_id!r}: window of {quota} at {job.offset} is outside its {n} rows"
    for job in jobs:
        for labels in (job.val.labels, job.shard.labels[window_rows(job)]):
            if labels.max() >= N_CLASSES:
                return f"label {labels.max()} out of range for {N_CLASSES} classes"
    return None


# Window faults: "empty" is a quota of 0, "row-outside" an offset at the
# shard's end, "offset-negative" an offset of -1 and "quota-past" a quota
# above the shard. "window" is a valid window drawn from the job's stream,
# which may leave a bad training label in the last row outside it.
FAULTS = (
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
    return Job(node_id, data, val, stream(0), offset, quota)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sets(st.sampled_from(FAULTS), max_size=2), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_input_errors_match_the_per_job_checks(faults, seed):
    # With several jobs bad at once, building the round's columns or
    # training it raises the error that checking job by job raises, for the
    # same first job.
    rng = np.random.default_rng(seed)
    jobs = [faulty_job(rng, f"n{k}", job_faults, N_CLASSES + k) for k, job_faults in enumerate(faults)]
    want = per_job_input_error(jobs)
    if want is None:
        train_round(ModelParams.zeros(DIM), *lay_out(jobs), 1, 0.1, 4)
        return
    with pytest.raises(ValidationError) as err:
        train_round(ModelParams.zeros(DIM), *lay_out(jobs), 1, 0.1, 4)
    assert str(err.value) == want


@pytest.mark.parametrize(
    ("first", "second", "message"),
    [
        ("empty", "empty", "job 'b': window of 0 at 0 is outside its 6 rows"),
        ("empty", "val-label", "job 'b': window of 0 at 0 is outside its 6 rows"),
        ("train-label", "train-label", "label 4 out of range for 3 classes"),
        ("train-label", "val-label", "label 4 out of range for 3 classes"),
        ("val-label", "val-label", "label 4 out of range for 3 classes"),
        ("val-label", "row-outside", "job 'd': window of 6 at 6 is outside its 6 rows"),
        ("row-outside", "train-label", "job 'b': window of 6 at 6 is outside its 6 rows"),
        ("quota-past", "empty", "job 'b': window of 7 at 0 is outside its 6 rows"),
        ("val-label", "quota-past", "job 'd': window of 7 at 0 is outside its 6 rows"),
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
    with pytest.raises(ValidationError) as err:
        train_round(ModelParams.zeros(DIM), *lay_out(jobs), 1, 0.1, 4)
    assert str(err.value) == message


@pytest.mark.parametrize("batch_size", [9, 10, 2**62, 2**63 - 1, 2**63, 10**21])
def test_a_batch_past_the_largest_job_takes_the_steps_of_one_that_size(batch_size):
    # From the largest job's size on, every job's window is one batch: the
    # steps and positions of a batch of that size, also past int64's range.
    sizes = np.array([3, 5, 5, 9])
    positions, runs = _step_plan(sizes, batch_size)
    want_positions, want_runs = _step_plan(sizes, 9)
    assert positions.tolist() == want_positions.tolist() and runs == want_runs
    assert [(lo, hi, rows.tolist()) for lo, hi, rows in step_plan(sizes, 9)] == [
        (lo, hi, positions[row_lo:row_hi].reshape(hi - lo, length).tolist())
        for _, _, steps in runs
        for lo, hi, length, row_lo, row_hi in steps
    ]
    rng = np.random.default_rng(19)
    jobs = [Job(f"n{k}", shard(rng, n), shard(rng, 3), stream(k)) for k, n in enumerate(sizes.tolist())]
    check(ModelParams(0.1 * rng.standard_normal(DIM)), jobs, 2, 0.05, batch_size)
