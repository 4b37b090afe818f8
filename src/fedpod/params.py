"""Flat parameter vectors, the synthetic classification task, and metrics.

The model everywhere is a multinomial logistic regression stored as one flat
float64 vector: a (classes x features) weight matrix in row-major order
followed by one bias per class. Institutions hold `DataShard`s of per-class
Gaussian samples; validation cost is mean cross-entropy. A node's round
output, `LocalUpdate`, holds each value once: its trained parameters, its
training-set size and, in a `CostTrajectory`, its validation cost at every
epoch boundary. Simulated timings stay with the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ShapeError, TrainingDivergenceError, ValidationError
from .streams import generators, seed_states

# Seed-stream salt for the blob geometry; every shard of one experiment must
# be generated against the same geometry.
_GEOMETRY_SALT = 7099
# Task difficulty knobs. Overlapping anisotropic clouds plus a dominant
# background class mean the best boundary needs calibrated logit magnitudes
# (bias offsets against the class prior), which SGD at lr ~1e-3 approaches
# over thousands of steps, so scores keep improving across rounds instead of
# saturating in one.
_CENTER_SPREAD = 0.55
_SCALE_LO = 0.4
_SCALE_HI = 1.8
_BACKGROUND_SHARE = 0.55


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Immutable flat parameter vector; all entries finite."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.ndim != 1 or vals.size == 0:
            raise ShapeError("model parameters must be a non-empty 1-D vector")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("model parameters must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    @staticmethod
    def zeros(dim: int) -> ModelParams:
        if dim < 1:
            raise ValidationError("dim must be positive")
        return ModelParams(np.zeros(dim))


@dataclass(frozen=True, eq=False)
class DataShard:
    """Feature vectors and their integer class labels, one row per sample."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64, copy=True)
        labels = np.array(self.labels, dtype=np.int64, copy=True)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ShapeError("features must be a non-empty (n, feature_dim) array")
        if labels.shape != (feats.shape[0],):
            raise ShapeError("labels must align with features")
        if not np.all(np.isfinite(feats)):
            raise ValidationError("features must be finite")
        if labels.min() < 0:
            raise ValidationError("labels must be non-negative class ids")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class CostTrajectory:
    """Validation cost at each epoch boundary of local training.

    Over n = len(costs) - 1 epochs, boundary e sits at training fraction
    e / n: the first cost is taken before training and the last after it.
    """

    costs: tuple[float, ...]

    def __post_init__(self):
        costs = tuple(map(float, self.costs))
        object.__setattr__(self, "costs", costs)
        if len(costs) < 2:
            raise ValidationError("trajectory needs at least pre- and post-training costs")
        if not all(0 <= c < math.inf for c in costs):
            raise ValidationError("trajectory costs must be finite and non-negative")

    @property
    def pre_cost(self) -> float:
        return self.costs[0]

    @property
    def post_cost(self) -> float:
        return self.costs[-1]

    def integral(self) -> float:
        """Trapezoidal integral of cost over the training fraction in [0, 1].

        Each step spans (e + 1) / n - e / n, which is not always 1 / n in
        floating point.
        """
        n = len(self.costs) - 1
        total = 0.0
        for e, (c0, c1) in enumerate(zip(self.costs, self.costs[1:])):
            total += 0.5 * (c0 + c1) * ((e + 1) / n - e / n)
        return total


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float
    seed: int
    batch_size: int = 32

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValidationError("learning_rate must be > 0")
        if not math.isfinite(self.learning_rate):
            raise ValidationError("learning_rate must be finite")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")


@dataclass(frozen=True, eq=False)
class LocalUpdate:
    """One node's round output: trained params, the number of samples it
    trained on, and its validation costs, the evidence the aggregation
    rules weigh (pre- and post-training cost are the trajectory's ends)."""

    node_id: str
    params: ModelParams
    data_size: int
    trajectory: CostTrajectory

    def __post_init__(self):
        if self.data_size < 1:
            raise ValidationError("data_size must be positive")


def combine(weighted: Sequence[tuple[float, ModelParams]]) -> ModelParams:
    """Elementwise weighted sum of parameter vectors.

    Accumulation follows the input order; callers that need order
    independence must sort first.
    """
    if not weighted:
        raise ValidationError("combine needs at least one (weight, model) pair")
    dims = {model.dim for _, model in weighted}
    if len(dims) != 1:
        raise ShapeError(f"mixed parameter dims {sorted(dims)}")
    acc = np.zeros(dims.pop())
    # Overflow surfaces as the constructor's finiteness error, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for weight, model in weighted:
            w = float(weight)
            if not np.isfinite(w):
                raise ValidationError("weights must be finite")
            acc += w * model.values
    return ModelParams(acc)


def _classifier_dims(model: ModelParams, shard: DataShard) -> tuple[int, int]:
    """Infer (n_classes, feature_dim) and check the model fits the shard."""
    f = shard.feature_dim
    if model.dim % (f + 1) != 0:
        raise ShapeError(f"model dim {model.dim} does not fit feature dim {f}")
    c = model.dim // (f + 1)
    if c < 2:
        raise ShapeError("classifier needs at least 2 classes")
    if int(shard.labels.max()) >= c:
        raise ValidationError(f"label {int(shard.labels.max())} out of range for {c} classes")
    return c, f


def _logits(values: np.ndarray, features: np.ndarray, n_classes: int, feature_dim: int) -> np.ndarray:
    w = values[: n_classes * feature_dim].reshape(n_classes, feature_dim)
    b = values[n_classes * feature_dim :]
    return features @ w.T + b


def _mean_cross_entropy(values: np.ndarray, shard: DataShard, n_classes: int, feature_dim: int) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        z = _logits(values, shard.features, n_classes, feature_dim)
        z = z - z.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(z).sum(axis=1))
        picked = z[np.arange(len(shard)), shard.labels]
        # Clip away the odd -1ulp rounding artefact; cost is non-negative by definition.
        return max(float(np.mean(log_norm - picked)), 0.0)


def evaluate_cost(model: ModelParams, shard: DataShard) -> float:
    """Mean cross-entropy of the softmax classifier over a shard.

    The all-zero model predicts uniformly, so its cost is ln(n_classes)
    no matter what the shard contains.
    """
    n_classes, feature_dim = _classifier_dims(model, shard)
    return _mean_cross_entropy(model.values, shard, n_classes, feature_dim)


def predict_labels(model: ModelParams, shard: DataShard) -> np.ndarray:
    """Argmax class per sample (ties resolve to the lowest class id)."""
    n_classes, feature_dim = _classifier_dims(model, shard)
    return np.argmax(_logits(model.values, shard.features, n_classes, feature_dim), axis=1)


def _batch_gradient(
    values: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    feature_dim: int,
) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        z = _logits(values, features, n_classes, feature_dim)
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(labels)), labels] -= 1.0
        p /= len(labels)
        grad_w = p.T @ features
        grad_b = p.sum(axis=0)
        return np.concatenate([grad_w.ravel(), grad_b])


def train_local(
    start: ModelParams,
    shard: DataShard,
    val: DataShard,
    cfg: TrainConfig,
    node_id: str = "local",
) -> LocalUpdate:
    """Mini-batch SGD from `start` over `shard` for cfg.epochs.

    Batch order is shuffled by the node's own seeded stream, so the result
    is bit-reproducible for a fixed cfg.seed. Validation cost is sampled at
    every epoch boundary, giving the trajectory the aggregation integral
    needs. This is the single-node reference that `train_round` reproduces
    bit for bit.
    """
    n_classes, feature_dim = _classifier_dims(start, shard)
    _classifier_dims(start, val)
    rng = np.random.default_rng(cfg.seed)
    values = start.values.copy()

    def sample(epoch: int) -> float:
        cost = _mean_cross_entropy(values, val, n_classes, feature_dim)
        if not math.isfinite(cost):
            raise TrainingDivergenceError(node_id, f"validation cost at epoch {epoch}")
        return cost

    costs = [sample(0)]
    n = len(shard)
    # Overflow surfaces as the divergence checks' error, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                grad = _batch_gradient(values, shard.features[idx], shard.labels[idx], n_classes, feature_dim)
                if not np.all(np.isfinite(grad)):
                    raise TrainingDivergenceError(node_id, f"gradient at epoch {epoch + 1}")
                values -= cfg.learning_rate * grad
                if not np.all(np.isfinite(values)):
                    raise TrainingDivergenceError(node_id, f"parameters at epoch {epoch + 1}")
            costs.append(sample(epoch + 1))
    return LocalUpdate(node_id, ModelParams(values), n, CostTrajectory(tuple(costs)))


@dataclass(frozen=True, eq=False)
class TrainJob:
    """One participant of a round: the positional rows of `shard` it trains
    on (None for every row), its validation shard, and the seed of its
    batch-order stream."""

    node_id: str
    shard: DataShard
    val: DataShard
    seed: int
    rows: np.ndarray | None = None


def _stacked_logits(values: np.ndarray, features: np.ndarray, n_classes: int, feature_dim: int) -> np.ndarray:
    """`_logits` of k models, (k, dim), on k equal-length batches, (k, L, feature_dim)."""
    split = n_classes * feature_dim
    w = values[:, :split].reshape(len(values), n_classes, feature_dim)
    return np.matmul(features, w.transpose(0, 2, 1)) + values[:, None, split:]


def _stacked_gradient(
    values: np.ndarray,
    features: np.ndarray,
    hot: np.ndarray,
    n_classes: int,
    feature_dim: int,
) -> np.ndarray:
    """`_batch_gradient` of k models on k equal-length batches at once.

    `hot` is each sample's true-class index into the flat (k, length,
    n_classes) probabilities. Each slice goes through the same kernels, with
    the same shapes and strides, as one `_batch_gradient` call, so every row
    of the result equals it bit for bit. The caller holds the `np.errstate`.
    """
    k, length = features.shape[:2]
    z = _stacked_logits(values, features, n_classes, feature_dim)
    z -= z.max(axis=2, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=2, keepdims=True)
    p.reshape(-1)[hot] -= 1.0
    p /= length
    grad_w = np.matmul(p.transpose(0, 2, 1), features)
    return np.concatenate([grad_w.reshape(k, -1), p.sum(axis=1)], axis=1)


def _stacked_cost(
    values: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    feature_dim: int,
) -> np.ndarray:
    """`_mean_cross_entropy` of k models on k equal-size shards, before its clip at 0."""
    k, size = labels.shape
    with np.errstate(over="ignore", invalid="ignore"):
        z = _stacked_logits(values, features, n_classes, feature_dim)
        z = z - z.max(axis=2, keepdims=True)
        log_norm = np.log(np.exp(z).sum(axis=2))
        picked = z[np.arange(k)[:, None], np.arange(size), labels]
        return np.mean(log_norm - picked, axis=1)


# Jobs trained together by `train_round`. Bounds the pooled rows, the gathered
# batches and their temporaries, so memory stays flat however many nodes
# take part.
_BLOCK_NODES = 128


def _step_ranges(sizes: np.ndarray, batch_size: int) -> list[tuple[int, int, int, int]]:
    """One epoch's SGD steps over jobs of ascending training `sizes`, as
    (row offset, lo, hi, length): jobs lo:hi share a batch length at that
    step, as full batches are a suffix and last batches ascend before it."""
    if (np.diff(sizes) < 0).any():
        raise ValidationError("jobs must be sorted by training size")
    ranges = []
    for offset in range(0, int(sizes[-1]), batch_size):
        first = int(np.searchsorted(sizes, offset, side="right"))
        lengths = np.minimum(sizes[first:] - offset, batch_size)
        edges = [first, *(first + 1 + np.flatnonzero(np.diff(lengths))).tolist(), len(sizes)]
        ranges += [(offset, lo, hi, int(lengths[lo - first])) for lo, hi in zip(edges, edges[1:])]
    return ranges


def _train_block(
    start: ModelParams,
    jobs: Sequence[TrainJob],
    rows: Sequence[np.ndarray | slice],
    states: np.ndarray,
    epochs: int,
    learning_rate: float,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """`train_round`'s SGD for one block of jobs, sorted by training size.

    `states` holds each job's batch-order stream, as `seed_states` rows.
    Returns the trained parameters (jobs, dim), the validation costs before
    the clip at 0 (epochs + 1, jobs), and the earliest fault of each job
    that diverged, by position in `jobs`, in `train_local`'s order.
    """
    n_classes, feature_dim = _classifier_dims(start, jobs[0].val)
    # The jobs' training rows back to back: job i owns [starts[i], starts[i] + sizes[i]).
    features = np.concatenate([job.shard.features[r] for job, r in zip(jobs, rows)])
    job_labels = [job.shard.labels[r] for job, r in zip(jobs, rows)]
    labels = np.concatenate(job_labels)
    sizes = np.array([len(y) for y in job_labels])
    starts = np.cumsum(sizes) - sizes

    # One epoch as (jobs lo:hi, positions of their batches in the epoch's
    # shuffled rows, one-hot base of `_stacked_gradient`'s `hot`), step by step.
    steps = [
        (lo, hi, (starts[lo:hi] + offset)[:, None] + np.arange(length), np.arange((hi - lo) * length) * n_classes)
        for offset, lo, hi, length in _step_ranges(sizes, batch_size)
    ]
    val_sizes = np.array([len(job.val) for job in jobs])
    vals = []
    for size in np.unique(val_sizes):
        group = np.flatnonzero(val_sizes == size)
        val_features = np.stack([jobs[i].val.features for i in group])
        vals.append((group, val_features, np.stack([jobs[i].val.labels for i in group])))

    values = np.tile(start.values, (len(jobs), 1))
    costs = np.empty((epochs + 1, len(jobs)))
    diverged: dict[int, str] = {}

    def validate(epoch: int) -> None:
        for group, val_features, val_labels in vals:
            costs[epoch, group] = _stacked_cost(values[group], val_features, val_labels, n_classes, feature_dim)
        for j in np.flatnonzero(~np.isfinite(costs[epoch])):
            diverged.setdefault(int(j), f"validation cost at epoch {epoch}")

    def sgd(order: np.ndarray, epoch: int | None) -> None:
        for lo, hi, positions, base in steps:
            batch = order[positions]
            params = values[lo:hi]
            grad = _stacked_gradient(params, features[batch], base + labels[batch].ravel(), n_classes, feature_dim)
            params -= learning_rate * grad
            if epoch is not None and not (np.isfinite(grad).all() and np.isfinite(params).all()):
                bad_grad = ~np.isfinite(grad).all(axis=1)
                for j in np.flatnonzero(bad_grad | ~np.isfinite(params).all(axis=1)):
                    diverged.setdefault(lo + int(j), f"{'gradient' if bad_grad[j] else 'parameters'} at epoch {epoch}")

    # Each job's stream is its own, so drawing a job's epochs back to back
    # gives the permutations `train_local` draws epoch by epoch.
    perms = [[rng.permutation(n) for _ in range(epochs)] for n, rng in zip(sizes, generators(states))]
    owner_starts = np.repeat(starts, sizes)
    # With a finite learning rate, a non-finite gradient or parameter leaves
    # its row non-finite through every later step, so one check at the end of
    # an epoch finds any divergence in it. That epoch is then replayed with
    # `epoch` given to `sgd`, which checks every step for the exact detail.
    with np.errstate(over="ignore", invalid="ignore"):
        validate(0)
        for epoch in range(1, epochs + 1):
            order = np.concatenate([job_perms[epoch - 1] for job_perms in perms]) + owner_starts
            saved = values.copy()
            sgd(order, None)
            if not np.isfinite(values).all():
                values[:] = saved
                sgd(order, epoch)
            validate(epoch)
    return values, costs, diverged


def train_round(
    start: ModelParams,
    jobs: Sequence[TrainJob],
    epochs: int,
    learning_rate: float,
    batch_size: int,
) -> list[LocalUpdate]:
    """Mini-batch SGD from `start` for all of one round's jobs at once.

    Element i equals `train_local` run on job i's rows of its shard with
    `TrainConfig(epochs, learning_rate, job.seed, batch_size)`, bit for bit.
    Jobs train in blocks of similar size. At each SGD step a block's jobs
    are grouped by their exact batch length, so nothing is padded and each
    job's batch goes through the same kernels as in `train_local`. Every
    job's parameters are checked once per epoch, an epoch that diverged is
    replayed with every step's gradient and parameters checked, and every
    validation cost is checked. If jobs diverge, the error is the one
    `train_local` raises for the first of them in `jobs` order. Inputs are
    checked before any training, and all shards must share one feature_dim.
    One `seed_states` pass seeds every job's batch-order stream as
    `default_rng(job.seed)` would.
    """
    TrainConfig(epochs, learning_rate, 0, batch_size)  # train_local's argument checks
    if not jobs:
        return []
    n_classes, feature_dim = _classifier_dims(start, jobs[0].val)
    rows = [slice(None) if job.rows is None else np.asarray(job.rows, dtype=np.int64) for job in jobs]
    sizes = np.empty(len(jobs), dtype=np.int64)
    for i, (job, r) in enumerate(zip(jobs, rows)):
        if job.shard.feature_dim != feature_dim or job.val.feature_dim != feature_dim:
            raise ShapeError(f"job {job.node_id!r}: shards must share feature dim {feature_dim}")
        _classifier_dims(start, job.val)
        train_labels = job.shard.labels[r]
        if not len(train_labels):
            raise ValidationError(f"job {job.node_id!r} has no training rows")
        if int(train_labels.max()) >= n_classes:
            raise ValidationError(f"label {int(train_labels.max())} out of range for {n_classes} classes")
        sizes[i] = len(train_labels)

    states = seed_states([(job.seed,) for job in jobs])
    values = np.empty((len(jobs), start.dim))
    costs = np.empty((epochs + 1, len(jobs)))
    diverged: dict[int, str] = {}
    # Jobs of similar size share most of their batch lengths.
    by_size = np.argsort(sizes, kind="stable")
    for lo in range(0, len(jobs), _BLOCK_NODES):
        block = by_size[lo : lo + _BLOCK_NODES]
        block_values, block_costs, block_diverged = _train_block(
            start, [jobs[i] for i in block], [rows[i] for i in block], states[block], epochs, learning_rate, batch_size
        )
        values[block] = block_values
        costs[:, block] = block_costs
        diverged.update((int(block[j]), detail) for j, detail in block_diverged.items())

    updates = []
    for i, (job, job_costs) in enumerate(zip(jobs, costs.T.tolist())):
        if i in diverged:
            raise TrainingDivergenceError(job.node_id, diverged[i])
        trajectory = CostTrajectory(tuple(max(cost, 0.0) for cost in job_costs))
        updates.append(LocalUpdate(job.node_id, ModelParams(values[i]), int(sizes[i]), trajectory))
    return updates


def dice_score(pred: Sequence[int], truth: Sequence[int], cls: int) -> float:
    """Overlap 2|X & Y| / (|X| + |Y|) of the index sets equal to cls.

    Both sets empty counts as perfect agreement (1.0).
    """
    p = np.asarray(pred)
    t = np.asarray(truth)
    if p.ndim != 1 or p.shape != t.shape or p.size == 0:
        raise ShapeError("pred and truth must be equal-length non-empty sequences")
    x = p == cls
    y = t == cls
    denom = int(x.sum()) + int(y.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(x & y)) / denom


@dataclass(frozen=True, eq=False)
class BlobGeometry:
    """Per-class Gaussian cloud shapes shared by every shard of one experiment.

    `cdf` is the class priors' cumulative distribution, computed and checked
    once here as `Generator.choice(p=class_probs)` would on every call.
    """

    centers: np.ndarray
    scales: np.ndarray
    class_probs: np.ndarray
    cdf: np.ndarray = field(init=False)

    def __post_init__(self):
        probs = np.asarray(self.class_probs, dtype=np.float64)
        if probs.shape != (self.n_classes,):
            raise ShapeError("class_probs must hold one prior per class")
        total = math.fsum(probs.tolist())
        if math.isnan(total) or np.any(probs < 0) or abs(total - 1.0) > math.sqrt(np.finfo(np.float64).eps):
            raise ValidationError("class_probs must be non-negative and sum to 1")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "cdf", cdf)

    @property
    def n_classes(self) -> int:
        return int(self.centers.shape[0])


def blob_geometry(n_classes: int, feature_dim: int, seed: int) -> BlobGeometry:
    """Class means, per-class axis-aligned noise scales, and the class mix.

    Class 0 plays the dominant background; the remaining mass is split evenly
    over the foreground classes.
    """
    if n_classes < 2 or feature_dim < 1:
        raise ValidationError("need at least 2 classes and 1 feature")
    rng = np.random.default_rng([seed, _GEOMETRY_SALT])
    centers = _CENTER_SPREAD * rng.standard_normal((n_classes, feature_dim))
    scales = rng.uniform(_SCALE_LO, _SCALE_HI, size=(n_classes, feature_dim))
    probs = np.full(n_classes, (1.0 - _BACKGROUND_SHARE) / (n_classes - 1))
    probs[0] = _BACKGROUND_SHARE
    return BlobGeometry(centers, scales, probs)


def make_blob_shard(n: int, geometry: BlobGeometry, rng: np.random.Generator) -> DataShard:
    """`n` Gaussian samples around per-class centers, mixed by the class priors.

    Labels are drawn as `rng.choice(n_classes, size=n, p=class_probs)` draws
    them once its checks pass, which `BlobGeometry` has already made.
    """
    if n < 1:
        raise ValidationError("a shard needs at least one sample")
    labels = geometry.cdf.searchsorted(rng.random(n), side="right")
    noise = rng.standard_normal((n, geometry.centers.shape[1]))
    features = geometry.centers[labels] + geometry.scales[labels] * noise
    return DataShard(features, labels)
