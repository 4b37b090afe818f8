import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpod.errors import ShapeError, TrainingDivergenceError, ValidationError
from fedpod.params import (
    BlobGeometry,
    CostTrajectory,
    DataShard,
    ModelParams,
    TrainConfig,
    blob_geometry,
    combine,
    dice_score,
    evaluate_cost,
    make_blob_shard,
    predict_labels,
    train_local,
)


def vec(*values):
    return ModelParams(np.array(values, dtype=float))


# ---------------------------------------------------------------- combine


def test_combine_identity_weight():
    assert np.array_equal(combine([(1.0, vec(1, 2, 3))]).values, [1, 2, 3])


def test_combine_equal_weight_mean():
    out = combine([(0.5, vec(1, 3)), (0.5, vec(3, 5))])
    assert np.array_equal(out.values, [2, 4])


def test_combine_weighted_sum_matches_scalar_oracle():
    pairs = [(0.25, vec(4, 0)), (0.75, vec(0, 4))]
    expected = [0.25 * 4 + 0.75 * 0, 0.25 * 0 + 0.75 * 4]
    assert np.array_equal(combine(pairs).values, expected)


def test_combine_rejects_empty_and_mismatched():
    with pytest.raises(ValidationError):
        combine([])
    with pytest.raises(ShapeError):
        combine([(1.0, vec(1, 2)), (1.0, vec(1, 2, 3))])
    with pytest.raises(ValidationError):
        combine([(float("nan"), vec(1.0))])


def test_combine_overflow_is_rejected():
    with pytest.raises(ValidationError):
        combine([(1e308, vec(1e308, 1.0)), (1e308, vec(1e308, 1.0))])


@given(st.floats(-10, 10), st.lists(st.floats(-5, 5), min_size=1, max_size=6))
def test_combine_is_linear_in_weights(scale, weights):
    models = [vec(float(i + 1), float(-i)) for i in range(len(weights))]
    left = combine([(scale * w, m) for w, m in zip(weights, models)]).values
    right = scale * combine(list(zip(weights, models))).values
    assert np.allclose(left, right, atol=1e-9)


@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
def test_combine_convex_weights_of_identical_model_is_identity(raw):
    total = sum(raw)
    weights = [w / total for w in raw]
    model = vec(0.25, -1.5, 3.0)
    out = combine([(w, model) for w in weights])
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


def test_empty_shard_is_unconstructible():
    with pytest.raises(ShapeError):
        DataShard(np.zeros((0, 3)), np.zeros(0, dtype=int))


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
    assert first.trajectory.post_cost < first.trajectory.pre_cost
    assert np.array_equal(first.params.values, second.params.values)
    assert first.trajectory == second.trajectory


def test_trajectory_samples_every_epoch_boundary():
    train, val = _separable_shards()
    start = ModelParams.zeros(8)
    cfg = TrainConfig(epochs=4, learning_rate=1e-3, seed=1, batch_size=16)
    update = train_local(start, train, val, cfg)
    assert len(update.trajectory.costs) == cfg.epochs + 1
    assert update.trajectory.pre_cost == evaluate_cost(start, val)
    assert update.trajectory.post_cost == evaluate_cost(update.params, val)
    assert update.data_size == len(train)


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


# ---------------------------------------------------------------- trajectory


def test_trajectory_validation():
    with pytest.raises(ValidationError, match="at least pre- and post-training"):
        CostTrajectory((1.0,))
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            CostTrajectory((bad, 0.5))
        with pytest.raises(ValidationError, match="finite and non-negative"):
            CostTrajectory((1.0, 0.9, bad))


def test_two_point_integral_is_midpoint_exactly():
    traj = CostTrajectory((1.3, 0.7))
    assert traj.integral() == (1.3 + 0.7) / 2


def test_integral_matches_manual_trapezoid():
    traj = CostTrajectory((2.0, 1.0, 0.5))
    expected = 0.5 * (2.0 + 1.0) * 0.5 + 0.5 * (1.0 + 0.5) * 0.5
    assert traj.integral() == pytest.approx(expected, abs=1e-15)


def pair_trapezoid(costs):
    """The trapezoid over (e / n, cost) pairs, as the integral was once computed."""
    n = len(costs) - 1
    samples = [(e / n, cost) for e, cost in enumerate(costs)]
    total = 0.0
    for (f0, c0), (f1, c1) in zip(samples, samples[1:]):
        total += 0.5 * (c0 + c1) * (f1 - f0)
    return total


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
def test_integral_matches_the_pair_trapezoid_bitwise(costs):
    assert CostTrajectory(costs).integral() == pair_trapezoid(costs)


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


@pytest.mark.parametrize(
    "probs", [[0.5, 0.6], [1.5, -0.5], [np.nan, 1.0], [0.25, 0.25, 0.5]], ids=["sum", "negative", "nan", "length"]
)
def test_blob_geometry_checks_its_priors(probs):
    with pytest.raises(ValidationError):
        BlobGeometry(np.zeros((2, 3)), np.ones((2, 3)), np.array(probs))
