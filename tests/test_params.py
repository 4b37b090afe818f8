import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import build_update
from _oracle import _logits, trapezoid
from fedpod.aggregation import aggregate
from fedpod.errors import ShapeError, TrainingDivergenceError, ValidationError
from fedpod.params import (
    _SYNTH_ROWS,
    BlobGeometry,
    DataShard,
    ModelParams,
    RoundUpdates,
    TrainConfig,
    blob_geometry,
    dice_score,
    evaluate_cost,
    make_blob_shard,
    make_blob_shards,
    predict_labels,
    train_local,
)
from fedpod.streams import generators, seed_states


def vec(*values):
    return ModelParams(np.array(values, dtype=float))


def round_with(*models):
    """A round whose node ids sort in the order of `models`."""
    return RoundUpdates(
        tuple(f"n{i:03d}" for i in range(len(models))),
        np.array(models, dtype=float),
        np.ones(len(models), dtype=np.int64),
        np.zeros((2, len(models))),
    )


# ---------------------------------------------------------------- combine: the weighted merge in `aggregate`


def test_combine_identity_weight():
    assert np.array_equal(aggregate(round_with([1, 2, 3]), [1.0]).values, [1, 2, 3])


def test_combine_equal_weight_mean():
    out = aggregate(round_with([1, 3], [3, 5]), [0.5, 0.5])
    assert np.array_equal(out.values, [2, 4])


def test_combine_weighted_sum_matches_scalar_oracle():
    expected = [0.25 * 4 + 0.75 * 0, 0.25 * 0 + 0.75 * 4]
    assert np.array_equal(aggregate(round_with([4, 0], [0, 4]), [0.25, 0.75]).values, expected)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_combine_adds_in_input_order_bitwise(n, dim, seed):
    # The running sum from 0.0, node by node in node-id order, which is the
    # input order here: a 1-wide model too, which a lone-axis numpy sum would
    # add pairwise, and -0.0 products. The weights must sum to 1.
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-8, 1, n)
    weights[-1] = 1.0 - math.fsum(weights[:-1].tolist())
    values = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-8, 8, (n, 1))
    values[rng.random((n, dim)) < 0.2] = -0.0
    acc = np.zeros(dim)
    for w, v in zip(weights.tolist(), values):
        acc += w * v
    assert aggregate(round_with(*values), weights.tolist()).values.tobytes() == acc.tobytes()


def test_combine_rejects_empty_and_mismatched():
    with pytest.raises(ValidationError):
        aggregate(round_with([1.0]).take([]), [])
    with pytest.raises(ShapeError):
        aggregate(round_with([1, 2], [1, 2]), [1.0])
    with pytest.raises(ValidationError, match="weights must be finite"):
        aggregate(round_with([1.0]), [float("nan")])


def test_combine_overflow_is_rejected():
    with pytest.raises(ValidationError):
        aggregate(round_with([1e308, 1.0], [1e308, 1.0]), [2.0, -1.0])


@given(st.floats(-10, 10), st.lists(st.floats(-5, 5), min_size=1, max_size=6))
def test_combine_is_linear_in_weights(scale, raw):
    # Weights must sum to 1, so the line runs through two weight vectors that do.
    n = len(raw)
    models = round_with(*([float(i + 1), float(-i)] for i in range(n)))
    first = raw[:-1] + [1.0 - sum(raw[:-1])]
    second = [1.0 / n] * n
    left = aggregate(models, [scale * a + (1 - scale) * b for a, b in zip(first, second)]).values
    right = scale * aggregate(models, first).values + (1 - scale) * aggregate(models, second).values
    assert np.allclose(left, right, atol=1e-9)


@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
def test_combine_convex_weights_of_identical_model_is_identity(raw):
    total = sum(raw)
    weights = [w / total for w in raw]
    model = vec(0.25, -1.5, 3.0)
    out = aggregate(round_with(*[model.values] * len(weights)), weights)
    assert np.max(np.abs(out.values - model.values)) <= 1e-12


# ---------------------------------------------------------------- cost


def _cross_entropy_oracle(values, shard, n_classes, feature_dim):
    # Independent per-sample reimplementation with plain floats.
    total = 0.0
    for x, y in zip(shard.features, shard.labels):
        logits = []
        for c in range(n_classes):
            z = sum(values[c * feature_dim + j] * x[j] for j in range(feature_dim))
            logits.append(z + values[n_classes * feature_dim + c])
        top = max(logits)
        lse = top + math.log(sum(math.exp(z - top) for z in logits))
        total += lse - logits[int(y)]
    return total / len(shard)


def _shard(n, n_classes=3, feature_dim=4, seed=0):
    geometry = blob_geometry(n_classes, feature_dim, seed)
    rng = np.random.default_rng(seed + 1)
    return make_blob_shard(n, geometry, rng)


def test_uniform_model_cost_is_log_n_classes():
    for n_classes in (2, 4):
        shard = _shard(40, n_classes=n_classes)
        model = ModelParams.zeros(n_classes * (shard.feature_dim + 1))
        assert evaluate_cost(model, shard) == pytest.approx(math.log(n_classes), abs=1e-9)


def test_cost_matches_per_sample_oracle():
    shard = _shard(25, n_classes=3, feature_dim=4, seed=9)
    rng = np.random.default_rng(42)
    model = ModelParams(rng.standard_normal(3 * 5))
    expected = _cross_entropy_oracle(model.values, shard, 3, 4)
    assert evaluate_cost(model, shard) == pytest.approx(expected, abs=1e-12)


def test_cost_is_non_negative_even_when_confident():
    shard = _shard(10, n_classes=2, feature_dim=4, seed=3)
    # Saturated logits drive per-sample cross-entropy to the 0 boundary.
    confident = ModelParams(1e4 * np.random.default_rng(1).standard_normal(2 * 5))
    assert evaluate_cost(confident, shard) >= 0.0


def test_non_finite_cost_is_rejected():
    overflowing = ModelParams(np.full(36, 1e300))
    shard = DataShard(np.full((5, 8), 1e10), np.zeros(5, dtype=int))
    with pytest.raises(ValidationError) as err:
        evaluate_cost(overflowing, shard)
    assert str(err.value) == "validation cost is nan, not finite"


def test_empty_shard_is_unconstructible():
    with pytest.raises(ShapeError):
        DataShard(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_constructors_copy_a_callers_writeable_arrays():
    features, labels, values = np.ones((3, 2)), np.array([0, 1, 0]), np.array([1.0, -2.0])
    shard, model = DataShard(features, labels), ModelParams(values)
    features[:] = 7.0
    labels[:] = 1
    values[:] = 7.0
    assert shard.features.tolist() == [[1.0, 1.0]] * 3 and shard.labels.tolist() == [0, 1, 0]
    assert model.values.tolist() == [1.0, -2.0]
    for array in (shard.features, shard.labels, model.values):
        assert not array.flags.writeable


def test_blob_shards_keep_their_arrays_read_only():
    shard = make_blob_shard(9, blob_geometry(3, 4, seed=2), np.random.default_rng(0))
    assert shard.features.dtype == np.float64 and shard.labels.dtype == np.int64
    for array in (shard.features, shard.labels):
        assert not array.flags.writeable and array.base is None
        with pytest.raises(ValueError):
            array[0] = 0


def test_model_dim_must_fit_shard():
    shard = _shard(5, n_classes=3, feature_dim=4)
    with pytest.raises(ShapeError):
        evaluate_cost(ModelParams.zeros(7), shard)


# ---------------------------------------------------------------- training


def _separable_shards(n=48, seed=5):
    geometry = blob_geometry(2, 3, seed)
    rng = np.random.default_rng(seed)
    train = make_blob_shard(n, geometry, rng)
    val = make_blob_shard(n // 2, geometry, rng)
    return train, val


def test_train_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0, learning_rate=1e-3, seed=1)
    for rate in (0.0, -np.inf, np.nan):
        with pytest.raises(ValidationError, match="^learning_rate must be > 0$"):
            TrainConfig(epochs=1, learning_rate=rate, seed=1)
    with pytest.raises(ValidationError, match="^learning_rate must be finite$"):
        TrainConfig(epochs=1, learning_rate=np.inf, seed=1)


def test_training_reduces_validation_cost_and_is_deterministic():
    train, val = _separable_shards()
    start = ModelParams.zeros(2 * 4)
    cfg = TrainConfig(epochs=4, learning_rate=1e-3, seed=77, batch_size=8)
    first = train_local(start, train, val, cfg, node_id="n0")
    second = train_local(start, train, val, cfg, node_id="n0")
    assert first.costs[-1, 0] < first.costs[0, 0]
    assert np.array_equal(first.params, second.params)
    assert first.costs.tobytes() == second.costs.tobytes()


def test_trajectory_samples_every_epoch_boundary():
    train, val = _separable_shards()
    start = ModelParams.zeros(8)
    cfg = TrainConfig(epochs=4, learning_rate=1e-3, seed=1, batch_size=16)
    update = train_local(start, train, val, cfg)
    assert update.costs.shape == (cfg.epochs + 1, 1)
    assert update.costs[0, 0] == evaluate_cost(start, val)
    assert update.costs[-1, 0] == evaluate_cost(ModelParams(update.params[0]), val)
    assert update.node_ids == ("local",) and update.sizes.tolist() == [len(train)]


def test_divergence_names_the_node():
    train, val = _separable_shards()
    cfg = TrainConfig(epochs=2, learning_rate=1e308, seed=1, batch_size=4)
    with pytest.raises(TrainingDivergenceError) as err:
        train_local(ModelParams.zeros(8), train, val, cfg, node_id="hospital-9")
    assert "hospital-9" in str(err.value)


def test_predict_labels_are_valid_classes():
    train, _ = _separable_shards()
    labels = predict_labels(ModelParams.zeros(8), train)
    assert set(np.unique(labels)) <= {0, 1}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 8),
    # Holdout-scale row counts too (the last three are the workloads'
    # seed-1 holdouts), since the BLAS kernel of a product depends on them.
    st.one_of(st.integers(1, 40), st.sampled_from([257, 1000, 6143, 10024, 12166])),
    st.sampled_from(["normal", "zero", "coarse", "duplicate rows", "overflow"]),
    st.integers(0, 2**32 - 1),
)
def test_predict_labels_is_argmax_of_the_logits(n_classes, feature_dim, n, kind, seed):
    """Element for element and in dtype, with ties to the lowest class; an
    error exactly when a logit is not finite. Each of the first 40 rows is
    also scored alone, because whether overflowing products sum to a finite
    value depends on the BLAS kernel, which depends on the number of rows."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, feature_dim))
    weights = rng.standard_normal((n_classes, feature_dim))
    biases = rng.standard_normal(n_classes)
    if kind == "zero":
        weights[:], biases[:] = 0.0, 0.0
    elif kind == "coarse":
        # Small integers tie often, across different rows too.
        features = rng.integers(-2, 3, size=features.shape).astype(float)
        weights = rng.integers(-2, 3, size=weights.shape).astype(float)
        biases = rng.integers(-2, 3, size=n_classes).astype(float)
    elif kind == "duplicate rows":
        copies = rng.integers(0, n_classes, size=n_classes)
        weights, biases = weights[copies], biases[copies]
    elif kind == "overflow":
        # Products overflow to +-inf, and sums of opposite infinities are NaN.
        features *= 1e10
        weights = rng.choice([-1e300, 0.0, 1e300], size=weights.shape)
        copies = rng.integers(0, n_classes, size=n_classes)
        weights[::2], biases[::2] = weights[copies][::2], biases[copies][::2]
    model = ModelParams(np.concatenate([weights.ravel(), biases]))
    for rows in [slice(None), *(slice(i, i + 1) for i in range(min(n, 40)))]:
        shard = DataShard(features[rows], np.zeros(len(features[rows]), dtype=int))
        with np.errstate(over="ignore", invalid="ignore"):
            logits = _logits(model.values, shard.features, n_classes, feature_dim)
        if not np.isfinite(logits).all():
            with pytest.raises(ValidationError) as caught:
                predict_labels(model, shard)
            assert str(caught.value) == "logits are not finite"
            continue
        want = np.argmax(logits, axis=1)
        got = predict_labels(model, shard)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 255, 256, 257, 300]), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_predict_labels_break_exact_ties_to_the_lowest_class_in_any_label_width(n_classes, feature_dim, seed):
    """Tied logits everywhere: small integers, and every class's row copied
    to other classes. Past 256 classes the running argmax is two bytes
    wide; the labels are intp either way."""
    rng = np.random.default_rng(seed)
    features = rng.integers(-1, 2, size=(50, feature_dim)).astype(float)
    copies = rng.integers(0, n_classes, size=n_classes)
    weights = rng.integers(-1, 2, size=(n_classes, feature_dim)).astype(float)[copies]
    biases = rng.integers(-1, 2, size=n_classes).astype(float)[copies]
    model = ModelParams(np.concatenate([weights.ravel(), biases]))
    shard = DataShard(features, np.zeros(50, dtype=int))
    want = np.argmax(_logits(model.values, features, n_classes, feature_dim), axis=1)
    got = predict_labels(model, shard)
    assert got.dtype == np.intp
    assert got.tolist() == want.tolist()


# ---------------------------------------------------------------- round updates and their trajectories


def test_trajectory_validation():
    with pytest.raises(ValidationError, match="at least pre- and post-training"):
        build_update("a", 1, 1.0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            build_update("a", 1, bad, 0.5)
        with pytest.raises(ValidationError, match="finite and non-negative"):
            build_update("a", 1, 1.0, 0.9, bad)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="model parameters must be finite"):
            build_update("a", 1, 1.0, 0.5, params=(0.0, bad))
    with pytest.raises(ValidationError, match="sizes must be positive"):
        build_update("a", 0, 1.0, 0.5)


@pytest.mark.parametrize(
    "columns",
    [
        dict(params=np.zeros((2, 3))),
        dict(params=np.zeros((1, 0))),
        dict(params=np.zeros(3)),
        dict(sizes=[1, 1]),
        dict(costs=np.zeros((2, 2))),
        dict(costs=np.zeros(2)),
    ],
    ids=["params-rows", "params-empty", "params-1d", "sizes", "costs-columns", "costs-1d"],
)
def test_round_updates_check_their_shapes(columns):
    good = dict(params=np.zeros((1, 3)), sizes=[1], costs=np.zeros((2, 1)))
    with pytest.raises(ShapeError):
        RoundUpdates(("a",), **{**good, **columns})


def test_round_updates_copy_and_freeze_their_columns():
    params, costs = np.ones((2, 3)), np.full((3, 2), 0.5)
    updates = RoundUpdates(("a", "b"), params, [4, 5], costs)
    params[:] = 7.0
    costs[:] = 7.0
    assert updates.params.tolist() == [[1.0] * 3] * 2 and updates.costs.tolist() == [[0.5, 0.5]] * 3
    for array in (updates.params, updates.sizes, updates.costs):
        assert not array.flags.writeable
    taken = updates.take([1, 0, 1])
    assert taken.node_ids == ("b", "a", "b") and taken.sizes.tolist() == [5, 4, 5] and len(taken) == 3
    assert len(updates.take([])) == 0


def test_two_point_integral_is_midpoint_exactly():
    assert build_update("a", 1, 1.3, 0.7).integral().tolist() == [(1.3 + 0.7) / 2]


def test_integral_matches_manual_trapezoid():
    expected = 0.5 * (2.0 + 1.0) * 0.5 + 0.5 * (1.0 + 0.5) * 0.5
    assert build_update("a", 1, 2.0, 1.0, 0.5).integral()[0] == pytest.approx(expected, abs=1e-15)


def pair_trapezoid(costs):
    """The trapezoid over (e / n, cost) pairs, as the integral was once computed."""
    n = len(costs) - 1
    samples = [(e / n, cost) for e, cost in enumerate(costs)]
    total = 0.0
    for (f0, c0), (f1, c1) in zip(samples, samples[1:]):
        total += 0.5 * (c0 + c1) * (f1 - f0)
    return total


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 9).flatmap(
        lambda n: st.lists(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n), min_size=1, max_size=5)
    )
)
def test_integral_matches_the_pair_trapezoid_bitwise(nodes):
    # Column by column, the scalar trapezoid of each node's costs.
    n = len(nodes)
    updates = RoundUpdates(tuple(map(str, range(n))), np.zeros((n, 1)), [1] * n, np.array(nodes).T)
    got = [value.hex() for value in updates.integral().tolist()]
    assert got == [trapezoid(costs).hex() for costs in nodes] == [pair_trapezoid(costs).hex() for costs in nodes]


# ---------------------------------------------------------------- dice


def test_dice_perfect_agreement():
    assert dice_score([1, 0, 1], [1, 0, 1], 1) == 1.0


def test_dice_disjoint():
    assert dice_score([1, 1, 0], [0, 0, 1], 1) == 0.0


def test_dice_half_overlap():
    # |X| = 2, |Y| = 2, |X & Y| = 1
    assert dice_score([1, 1, 0, 0], [1, 0, 1, 0], 1) == 0.5


def test_dice_empty_sets_count_as_agreement():
    assert dice_score([0, 0], [0, 0], 3) == 1.0


def test_dice_length_mismatch():
    with pytest.raises(ShapeError):
        dice_score([1, 2], [1], 1)


def reference_dice(pred, truth, cls) -> float:
    """Dice over Python ints and the same float expression."""
    x = [int(p) == cls for p in pred]
    y = [int(t) == cls for t in truth]
    denom = sum(x) + sum(y)
    return 1.0 if denom == 0 else 2.0 * sum(a and b for a, b in zip(x, y)) / denom


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=300),
    st.integers(0, 5),
    st.sampled_from([list, np.int8, np.intp]),
    st.randoms(use_true_random=False),
)
def test_dice_matches_the_reference_for_list_int8_and_intp_predictions(pred, cls, kind, rnd):
    # Class 5 never occurs, so both sets are empty for it.
    truth = pred.copy()
    rnd.shuffle(truth)
    got_pred = pred if kind is list else np.array(pred, dtype=kind)
    got = dice_score(got_pred, np.array(truth, dtype=np.int64), cls)
    assert type(got) is float
    assert got.hex() == reference_dice(pred, truth, cls).hex()


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=30),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_dice_symmetric_and_bounded(pred, cls, rnd):
    truth = pred.copy()
    rnd.shuffle(truth)
    forward = dice_score(pred, truth, cls)
    backward = dice_score(truth, pred, cls)
    assert forward == backward
    assert 0.0 <= forward <= 1.0


# ---------------------------------------------------------------- blobs


def test_blob_generation_is_deterministic():
    geometry = blob_geometry(4, 8, 123)
    a = make_blob_shard(3, geometry, np.random.default_rng(5))
    b = make_blob_shard(3, geometry, np.random.default_rng(5))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_blob_labels_cover_expected_range():
    geometry = blob_geometry(4, 8, 7)
    shard = make_blob_shard(500, geometry, np.random.default_rng(0))
    assert set(np.unique(shard.labels)) == {0, 1, 2, 3}
    # class 0 is the dominant background
    counts = np.bincount(shard.labels)
    assert counts[0] > max(counts[1:])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**64 - 1), st.integers(1, 300))
def test_blob_shard_draws_as_choice_with_priors(n_classes, feature_dim, seed, n):
    """Labels are `rng.choice(p=class_probs)`'s, and the feature draws that follow match too."""
    geometry = blob_geometry(n_classes, feature_dim, seed % 1000)
    rng = np.random.default_rng(seed)
    labels = rng.choice(n_classes, size=n, p=geometry.class_probs)
    noise = rng.standard_normal((n, feature_dim))
    shard = make_blob_shard(n, geometry, np.random.default_rng(seed))
    assert shard.labels.tolist() == labels.tolist()
    assert shard.features.tobytes() == (geometry.centers[labels] + geometry.scales[labels] * noise).tobytes()


def _assert_batch_matches_one_by_one(sizes, geometry, seed):
    """`make_blob_shards` from generators re-set per stream, as the engine's
    seeding pass makes them, equals `make_blob_shard` of each stream alone,
    and the choice-and-noise formula of each stream."""
    rows = [(seed, i) for i in range(len(sizes))]
    shards = make_blob_shards(sizes, geometry, generators(seed_states([((seed,), np.arange(len(sizes)))])))
    assert len(shards) == len(sizes)
    for n, row, shard in zip(sizes, rows, shards):
        want = make_blob_shard(n, geometry, np.random.default_rng(row))
        assert len(shard) == n
        assert shard.labels.dtype == np.int64 and shard.labels.tobytes() == want.labels.tobytes()
        assert shard.features.dtype == np.float64 and shard.features.tobytes() == want.features.tobytes()
        rng = np.random.default_rng(row)
        labels = rng.choice(geometry.n_classes, size=n, p=geometry.class_probs)
        noise = rng.standard_normal((n, geometry.centers.shape[1]))
        assert shard.features.tobytes() == (geometry.centers[labels] + geometry.scales[labels] * noise).tobytes()
        for array in (shard.features, shard.labels):
            assert not array.flags.writeable and not array.base.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 60), min_size=2, max_size=20),
    st.integers(2, 6),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_blob_shard_batches_match_one_shard_at_a_time(sizes, n_classes, feature_dim, seed):
    _assert_batch_matches_one_by_one(sizes, blob_geometry(n_classes, feature_dim, seed % 1000), seed)


@pytest.mark.parametrize(
    "sizes",
    [
        [1, 1, 1],
        [_SYNTH_ROWS - 1, 2, 1],
        [_SYNTH_ROWS, _SYNTH_ROWS],
        [3, _SYNTH_ROWS + 5, 1, _SYNTH_ROWS - 3],
        [1, 2 * _SYNTH_ROWS + 1],
    ],
    ids=["ones", "straddle", "on-edge", "longer-than-a-chunk", "one-then-two-chunks"],
)
def test_blob_shard_batches_across_chunk_edges(sizes):
    _assert_batch_matches_one_by_one(sizes, blob_geometry(4, 8, 3), 17)


def test_empty_blob_shard_batch_builds_nothing():
    assert make_blob_shards([], blob_geometry(4, 8, 3), iter(())) == []


def test_blob_shard_batch_checks_sizes_and_streams():
    geometry = blob_geometry(3, 2, 1)
    with pytest.raises(ValidationError, match="at least one sample"):
        make_blob_shards([4, 0], geometry, [np.random.default_rng(0)] * 2)
    with pytest.raises(ValueError):
        make_blob_shards([4, 5], geometry, [np.random.default_rng(0)])


@pytest.mark.parametrize(
    "probs", [[0.5, 0.6], [1.5, -0.5], [np.nan, 1.0], [0.25, 0.25, 0.5]], ids=["sum", "negative", "nan", "length"]
)
def test_blob_geometry_checks_its_priors(probs):
    with pytest.raises(ValidationError):
        BlobGeometry(np.zeros((2, 3)), np.ones((2, 3)), np.array(probs))
