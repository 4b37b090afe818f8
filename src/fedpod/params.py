"""Flat parameter vectors, the synthetic classification task, and metrics.

The model everywhere is a multinomial logistic regression stored as one flat
float64 vector: a (classes x features) weight matrix in row-major order
followed by one bias per class. Institutions hold `DataShard`s of per-class
Gaussian samples; validation cost is mean cross-entropy.

Local training has one implementation, `train_round`, which trains all of a
round's nodes at once on stacked kernels; `train_local` is its one-node form.
A round's output is one `RoundUpdates` of columns, one entry per node: the
trained parameters as a (nodes, dim) block, the training-set sizes and the
validation cost at every epoch boundary. Simulated timings stay with the
engine.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Sequence

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


def _set_read_only(obj, **fields) -> None:
    """Set fields of a frozen dataclass, each array among them made read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


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
        _set_read_only(self, values=vals)

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
        if not np.isfinite(feats).all():
            raise ValidationError("features must be finite")
        if labels.min() < 0:
            raise ValidationError("labels must be non-negative class ids")
        _set_read_only(self, features=feats, labels=labels)

    @classmethod
    def _adopt(cls, features: np.ndarray, labels: np.ndarray) -> DataShard:
        """A shard of float64 features and int64 labels already checked as the
        constructor checks them, which no one writes to: kept, not copied."""
        shard = object.__new__(cls)
        _set_read_only(shard, features=features, labels=labels)
        return shard

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


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
class RoundUpdates:
    """One round's node outputs as columns, in job order: the nodes' ids,
    their trained parameters as one (nodes, dim) block, the number of
    samples each trained on, and their validation costs at every epoch
    boundary as an (epochs + 1, nodes) array, the evidence the aggregation
    rules weigh.

    Over n = epochs, cost row e sits at training fraction e / n: the first
    row is taken before training and the last after it. The constructor
    copies the columns and checks them once; all are kept read-only.
    """

    node_ids: tuple[str, ...]
    params: np.ndarray
    sizes: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        node_ids = tuple(self.node_ids)
        params = np.array(self.params, dtype=np.float64)
        sizes = np.array(self.sizes, dtype=np.int64)
        costs = np.array(self.costs, dtype=np.float64)
        n = len(node_ids)
        if params.ndim != 2 or params.shape[0] != n or params.shape[1] == 0:
            raise ShapeError(f"params must be a non-empty ({n}, dim) block")
        if sizes.shape != (n,) or costs.ndim != 2 or costs.shape[1] != n:
            raise ShapeError(f"sizes and costs must hold one column per node, {n} nodes")
        if len(costs) < 2:
            raise ValidationError("costs need at least pre- and post-training rows")
        if not (sizes >= 1).all():
            raise ValidationError("sizes must be positive")
        if not np.isfinite(params).all():
            raise ValidationError("model parameters must be finite")
        if not (np.isfinite(costs).all() and (costs >= 0).all()):
            raise ValidationError("costs must be finite and non-negative")
        _set_read_only(self, node_ids=node_ids, params=params, sizes=sizes, costs=costs)

    def __len__(self) -> int:
        return len(self.node_ids)

    def take(self, index: Sequence[int]) -> RoundUpdates:
        """The nodes at positions `index`, in that order. Their columns are
        new arrays of values already checked, so they are not checked again."""
        index = np.asarray(index, dtype=np.intp)
        taken = object.__new__(RoundUpdates)
        node_ids = tuple(self.node_ids[i] for i in index.tolist())
        _set_read_only(
            taken, node_ids=node_ids, params=self.params[index], sizes=self.sizes[index], costs=self.costs[:, index]
        )
        return taken

    def integral(self) -> np.ndarray:
        """Each node's trapezoidal integral of cost over the training
        fraction in [0, 1].

        Each step spans (e + 1) / n - e / n, which is not always 1 / n in
        floating point. Steps are added epoch by epoch, elementwise, so each
        node's total is the scalar running sum, bit for bit.
        """
        n = len(self.costs) - 1
        total = np.zeros(len(self))
        for e in range(n):
            total += 0.5 * (self.costs[e] + self.costs[e + 1]) * ((e + 1) / n - e / n)
        return total


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


def _stacked_logits(values: np.ndarray, features: np.ndarray, n_classes: int, feature_dim: int) -> np.ndarray:
    """Logits of k models, (k, dim), on k equal-length batches, (k, L, feature_dim)."""
    split = n_classes * feature_dim
    w = values[:, :split].reshape(len(values), n_classes, feature_dim)
    z = np.matmul(features, w.transpose(0, 2, 1))
    z += values[:, None, split:]
    return z


# Stacked rows, k models times their equal batch or shard length, from which
# `_stacked_gradient` and `_stacked_cost` reduce over class slices instead of
# along each row. One per-row reduction costs a call per row; a slice pass
# costs a call per class, so small stacks stay on the per-row reductions. At
# 4 classes the two cross at about 100 to 250 rows.
_WIDE_ROWS = 256

# Class counts below which the slice passes run. Below 8 classes numpy sums a
# row left to right, which `_class_sum` repeats; from 8 it sums pairwise, and
# those class counts keep the per-row reductions.
_SLICE_CLASSES = 8


def _class_max(z: np.ndarray) -> np.ndarray:
    """`z.max(axis=-1)` as a chain of `np.maximum` over the class slices. A
    maximum is exact in any order, and a NaN propagates as it does in `max`."""
    out = z[..., 0].copy()
    for c in range(1, z.shape[-1]):
        np.maximum(out, z[..., c], out=out)
    return out


def _class_sum(z: np.ndarray) -> np.ndarray:
    """`np.add.reduce(z, axis=-1)` bit for bit for fewer than `_SLICE_CLASSES`
    classes: numpy adds so short a contiguous row left to right, onto an
    initial 0.0, and so do these elementwise adds of the class slices.
    Starting from `0.0 + slice` turns -0.0 into 0.0, as that initial value
    does, and changes no other value. `tests/test_kernels.py` pins the order
    against numpy itself, so a numpy release that changed it fails there.
    """
    out = z[..., 0] + 0.0
    for c in range(1, z.shape[-1]):
        out += z[..., c]
    return out


def _stacked_cost(
    values: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    feature_dim: int,
) -> np.ndarray:
    """Mean cross-entropy of k models on k equal-size shards, before the clip at 0.

    Each slice equals the one-model form in `tests/_oracle.py` bit for bit:
    the row sum over its size is what `np.mean` computes. From `_WIDE_ROWS`
    stacked rows of fewer than `_SLICE_CLASSES` classes, the class max and
    the sum of exponentials run over class slices (`_class_max`,
    `_class_sum`), which give what the per-row reductions give, bit for bit.
    The caller holds the `np.errstate`.
    """
    k, size = labels.shape
    wide = k * size >= _WIDE_ROWS and n_classes < _SLICE_CLASSES
    z = _stacked_logits(values, features, n_classes, feature_dim)
    z -= _class_max(z)[..., None] if wide else z.max(axis=2, keepdims=True)
    picked = z.reshape(-1)[np.arange(k * size) * n_classes + labels.ravel()]
    np.exp(z, out=z)
    log_norm = np.log(_class_sum(z) if wide else z.sum(axis=2))
    return (log_norm - picked.reshape(k, size)).sum(axis=1) / size


def evaluate_cost(model: ModelParams, shard: DataShard) -> float:
    """Mean cross-entropy of the softmax classifier over a shard.

    The all-zero model predicts uniformly, so its cost is ln(n_classes)
    no matter what the shard contains. A model whose logits overflow has no
    finite cost, which raises `ValidationError`.
    """
    n_classes, feature_dim = _classifier_dims(model, shard)
    with np.errstate(over="ignore", invalid="ignore"):
        costs = _stacked_cost(model.values[None], shard.features[None], shard.labels[None], n_classes, feature_dim)
    cost = float(costs[0])
    if not math.isfinite(cost):
        raise ValidationError(f"validation cost is {cost}, not finite")
    # Clip away the odd -1ulp rounding artefact; cost is non-negative by definition.
    return max(cost, 0.0)


def predict_labels(model: ModelParams, shard: DataShard) -> np.ndarray:
    """Argmax class per sample, as `np.argmax` of the logits gives it.

    A tie goes to the lowest class id. A model whose logits overflow is an
    error, as its validation cost is in `evaluate_cost`.
    """
    n_classes, feature_dim = _classifier_dims(model, shard)
    split = n_classes * feature_dim
    # The logits class by class, as one (classes, n) product: the same dot
    # products and bias sums as `features @ w.T + b`, each class's scores contiguous.
    with np.errstate(over="ignore", invalid="ignore"):
        z = model.values[:split].reshape(n_classes, feature_dim) @ shard.features.T
        z += model.values[split:, None]
    if not np.isfinite(z).all():
        raise ValidationError("logits are not finite")
    pred = np.zeros(len(shard), dtype=np.intp)
    best = z[0].copy()
    for c in range(1, n_classes):
        pred += (z[c] > best) * (c - pred)
        np.maximum(best, z[c], out=best)
    return pred


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


def _stacked_gradient(
    values: np.ndarray,
    features: np.ndarray,
    onehot: np.ndarray,
    n_classes: int,
    feature_dim: int,
) -> np.ndarray:
    """Mean cross-entropy gradient of k models on k equal-length batches at once.

    `onehot` holds each sample's true class as a (k, length, n_classes) block
    of 0.0 and 1.0. Each slice goes through the same kernels, with the same
    shapes and strides, as one call of the one-model gradient in
    `tests/_oracle.py`, so every row of the result equals it bit for bit.
    The steps that differ in form give the same bits:
    - `p -= onehot` subtracts 1.0 where the oracle's fancy index does, and
      0.0 elsewhere, which leaves every value as it was, -0.0 and NaN too;
    - the bias is added in place to the logits, the same one addition;
    - the weight gradient's matmul and the bias gradient's reduction write
      into the two column ranges of one (k, dim) block through `out=`, with
      the same operands and order as the oracle's product and `sum`, so no
      concatenation copies them.

    From `_WIDE_ROWS` stacked rows of fewer than `_SLICE_CLASSES` classes,
    the three reductions run as whole-array passes that give the same bits:
    - the class max is `_class_max`, exact in any order;
    - the class sum is `_class_sum`, numpy's left-to-right order over slices;
    - the bias gradient adds each model's rows one after another, as
      `p.sum(axis=1)` does, as one axis-0 reduction of a (length, k,
      n_classes) copy, whose inner loop runs over all k models at once.

    The gradient is returned unscaled and the caller owns it: it may scale
    it in place by the learning rate, `grad *= learning_rate`, which is the
    product `learning_rate * grad` bit for bit. A caller that checks for
    divergence keeps the gradient unscaled, as `_train_block`'s replay
    does: the oracle checks the gradient before the update, so a finite
    gradient whose scaled product overflows is a parameter fault, not a
    gradient fault. The caller holds the `np.errstate`.
    """
    k, length = features.shape[:2]
    split = n_classes * feature_dim
    wide = k * length >= _WIDE_ROWS and n_classes < _SLICE_CLASSES
    z = _stacked_logits(values, features, n_classes, feature_dim)
    z -= _class_max(z)[..., None] if wide else z.max(axis=2, keepdims=True)
    p = np.exp(z, out=z)
    p /= _class_sum(p)[..., None] if wide else p.sum(axis=2, keepdims=True)
    p -= onehot
    p /= length
    grad = np.empty((k, split + n_classes))
    np.matmul(p.transpose(0, 2, 1), features, out=grad[:, :split].reshape(k, n_classes, feature_dim))
    if wide:
        np.add.reduce(p.transpose(1, 0, 2).copy(), axis=0, out=grad[:, split:])
    else:
        np.add.reduce(p, axis=1, out=grad[:, split:])
    return grad


# Jobs trained together by `train_round`. Bounds the pooled rows, the gathered
# batches and their temporaries, so memory stays flat however many nodes
# take part.
_BLOCK_NODES = 128


# Batch rows `_train_block` gathers at a time. Each epoch's batches are
# gathered for a run of whole steps of at most this many rows, or for one
# larger step alone, so the gathered features and one-hot labels stay small
# however many rows a block trains on.
_GATHER_ROWS = 2048


def _step_plan(sizes: np.ndarray, batch_size: int) -> tuple[np.ndarray, list[tuple[int, int, list]]]:
    """One epoch's SGD steps over jobs of ascending training `sizes`, whose
    rows lie back to back, job i's at sizes[:i].sum() onwards, as one flat
    array of positions into the epoch's order and the steps in gather runs.

    Job i's row r falls in its batch r // batch_size. At each batch offset,
    full batches are a suffix of the jobs and last batches ascend before it,
    so a step is jobs lo:hi that share a batch length there, one step per
    last-batch size and one for the full batches. `positions` holds every
    step's batch rows back to back, in step order, which within an offset
    is job order: one stable sort of the rows by batch. A run (first, end,
    steps) covers positions first:end; each of its steps is (lo, hi, length,
    row lo, row hi), its rows counted from `first`. Runs split at whole
    steps after at most `_GATHER_ROWS` rows.
    """
    row_in_job = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # numpy's default sort is not stable.
    positions = np.argsort(row_in_job // batch_size, kind="stable")
    sizes = sizes.tolist()
    if any(a > b for a, b in zip(sizes, sizes[1:])):
        raise ValidationError("jobs must be sorted by training size")
    runs: list[tuple[int, int, list]] = []
    first = end = 0
    steps: list[tuple[int, int, int, int, int]] = []
    for offset in range(0, sizes[-1], batch_size):
        lo = bisect_right(sizes, offset)
        full = bisect_left(sizes, offset + batch_size, lo)
        while lo < len(sizes):
            if lo < full:
                hi, length = bisect_right(sizes, sizes[lo], lo, full), sizes[lo] - offset
            else:
                hi, length = len(sizes), batch_size
            step_end = end + (hi - lo) * length
            if steps and step_end - first > _GATHER_ROWS:
                runs.append((first, end, steps))
                first, steps = end, []
            steps.append((lo, hi, length, end - first, step_end - first))
            lo, end = hi, step_end
    runs.append((first, end, steps))
    return positions, runs


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
    that diverged, by position in `jobs`, in the sequential oracle's order.
    """
    n_classes, feature_dim = _classifier_dims(start, jobs[0].val)
    # The jobs' training rows back to back: job i owns [starts[i], starts[i] + sizes[i]).
    features = np.concatenate([job.shard.features[r] for job, r in zip(jobs, rows)])
    job_labels = [job.shard.labels[r] for job, r in zip(jobs, rows)]
    labels = np.concatenate(job_labels)
    sizes = np.array([len(y) for y in job_labels])
    starts = np.cumsum(sizes) - sizes

    positions, runs = _step_plan(sizes, batch_size)
    eye = np.eye(n_classes)
    by_val_size: dict[int, list[int]] = {}
    for i, job in enumerate(jobs):
        by_val_size.setdefault(len(job.val), []).append(i)
    vals = [
        (group, np.stack([jobs[i].val.features for i in group]), np.stack([jobs[i].val.labels for i in group]))
        for group in by_val_size.values()
    ]

    values = np.tile(start.values, (len(jobs), 1))
    costs = np.empty((epochs + 1, len(jobs)))
    diverged: dict[int, str] = {}

    def validate(epoch: int) -> None:
        for group, val_features, val_labels in vals:
            costs[epoch, group] = _stacked_cost(values[group], val_features, val_labels, n_classes, feature_dim)
        for j in np.flatnonzero(~np.isfinite(costs[epoch])):
            diverged.setdefault(int(j), f"validation cost at epoch {epoch}")

    def sgd(order: np.ndarray, epoch: int | None) -> None:
        for first, end, steps in runs:
            # The run's batch rows, in step order, as features and one-hot labels.
            batch = order[positions[first:end]]
            run_features = features[batch]
            run_onehot = eye[labels[batch]]
            for lo, hi, length, row_lo, row_hi in steps:
                params = values[lo:hi]
                grad = _stacked_gradient(
                    params,
                    run_features[row_lo:row_hi].reshape(hi - lo, length, feature_dim),
                    run_onehot[row_lo:row_hi].reshape(hi - lo, length, n_classes),
                    n_classes,
                    feature_dim,
                )
                if epoch is None:
                    grad *= learning_rate
                    params -= grad
                    continue
                # Checked before scaling, as the oracle checks the gradient.
                params -= learning_rate * grad
                if not (np.isfinite(grad).all() and np.isfinite(params).all()):
                    bad_grad = ~np.isfinite(grad).all(axis=1)
                    for j in np.flatnonzero(bad_grad | ~np.isfinite(params).all(axis=1)):
                        fault = "gradient" if bad_grad[j] else "parameters"
                        diverged.setdefault(lo + int(j), f"{fault} at epoch {epoch}")

    # Each job's stream is its own, so drawing a job's epochs back to back
    # gives the permutations a one-node trainer draws epoch by epoch. One
    # `permuted` call shuffles each row of `arange(n)` as `permutation(n)`
    # would, row after row: the same orders, leaving the same stream state.
    # Job i's rows are the first sizes[i] columns of one broadcast arange.
    aranges = np.broadcast_to(np.arange(sizes[-1]), (epochs, sizes[-1]))
    orders = np.concatenate(
        [rng.permuted(aranges[:, :n], axis=1) for n, rng in zip(sizes.tolist(), generators(states))], axis=1
    )
    orders += np.repeat(starts, sizes)
    # With a finite learning rate, a non-finite gradient or parameter leaves
    # its row non-finite through every later step, so one check at the end of
    # an epoch finds any divergence in it. That epoch is then replayed with
    # `epoch` given to `sgd`, which checks every step for the exact detail.
    with np.errstate(over="ignore", invalid="ignore"):
        validate(0)
        for epoch in range(1, epochs + 1):
            order = orders[epoch - 1]
            saved = values.copy()
            sgd(order, None)
            if not np.isfinite(values).all():
                values[:] = saved
                sgd(order, epoch)
            validate(epoch)
    return values, costs, diverged


def _job_sizes(
    start: ModelParams, jobs: Sequence[TrainJob], rows: Sequence[np.ndarray | slice], n_classes: int, feature_dim: int
) -> np.ndarray:
    """Each job's number of training rows, its inputs checked as columns over
    all jobs: feature dims, empty rows, and training and validation label
    ranges. Only a failed check walks the jobs, to raise the first job's
    first error as checking job by job would."""
    try:
        train_labels = [job.shard.labels[r] for job, r in zip(jobs, rows)]
    except IndexError:  # a row outside its shard; an earlier job may fail first
        train_labels = None
    if train_labels is not None:
        sizes = np.array([len(labels) for labels in train_labels])
        if (
            all(job.shard.features.shape[1] == job.val.features.shape[1] == feature_dim for job in jobs)
            and sizes.all()
            and np.concatenate(train_labels).max() < n_classes
            and np.concatenate([job.val.labels for job in jobs]).max() < n_classes
        ):
            return sizes
    sizes = np.empty(len(jobs), dtype=np.int64)
    for i, (job, r) in enumerate(zip(jobs, rows)):
        if job.shard.feature_dim != feature_dim or job.val.feature_dim != feature_dim:
            raise ShapeError(f"job {job.node_id!r}: shards must share feature dim {feature_dim}")
        _classifier_dims(start, job.val)
        labels = job.shard.labels[r]
        if not len(labels):
            raise ValidationError(f"job {job.node_id!r} has no training rows")
        if int(labels.max()) >= n_classes:
            raise ValidationError(f"label {int(labels.max())} out of range for {n_classes} classes")
        sizes[i] = len(labels)
    return sizes


def train_round(
    start: ModelParams,
    jobs: Sequence[TrainJob],
    epochs: int,
    learning_rate: float,
    batch_size: int,
) -> RoundUpdates:
    """Mini-batch SGD from `start` for all of one round's jobs at once.

    Node i, in `jobs` order, equals `tests/_oracle.train_local`, the
    sequential one-node SGD, run on job i's rows of its shard with
    `TrainConfig(epochs, learning_rate, job.seed, batch_size)`, bit for
    bit. Jobs train in blocks of similar size. At each SGD step a block's
    jobs are grouped by their exact batch length, so nothing is padded and
    each job's batch goes through the same kernels as in the oracle. Every
    job's parameters are checked once per epoch, an epoch that diverged is
    replayed with every step's gradient and parameters checked, and every
    validation cost is checked. If jobs diverge, the error is the one the
    oracle raises for the first of them in `jobs` order.

    Inputs are checked before any training, as columns over all jobs
    (`_job_sizes`); all shards must share one feature_dim. One `seed_states`
    pass seeds every job's batch-order stream as `default_rng(job.seed)`
    would, and each job draws all its epochs' orders in one call. The
    trained block and the costs, clipped at 0, are checked once, as the
    columns of the returned `RoundUpdates`.
    """
    TrainConfig(epochs, learning_rate, 0, batch_size)  # the argument checks of a one-node config
    if not jobs:
        return RoundUpdates((), np.empty((0, start.dim)), (), np.empty((epochs + 1, 0)))
    n_classes, feature_dim = _classifier_dims(start, jobs[0].val)
    rows = [slice(None) if job.rows is None else np.asarray(job.rows, dtype=np.int64) for job in jobs]
    sizes = _job_sizes(start, jobs, rows, n_classes, feature_dim)

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

    if diverged:
        first = min(diverged)
        raise TrainingDivergenceError(jobs[first].node_id, diverged[first])
    # Clip away the odd -1ulp rounding artefact, as `max(cost, 0.0)` would.
    return RoundUpdates(tuple(job.node_id for job in jobs), values, sizes, np.where(costs < 0.0, 0.0, costs))


def train_local(
    start: ModelParams,
    shard: DataShard,
    val: DataShard,
    cfg: TrainConfig,
    node_id: str = "local",
) -> RoundUpdates:
    """Mini-batch SGD from `start` over all of `shard` for cfg.epochs: the
    one-job form of `train_round`, returning one node's `RoundUpdates`, so
    `shard` and `val` must share one feature_dim.

    Batch order is shuffled by the node's own `default_rng(cfg.seed)`
    stream, and validation cost is sampled at every epoch boundary.
    """
    job = TrainJob(node_id, shard, val, cfg.seed)
    return train_round(start, [job], cfg.epochs, cfg.learning_rate, cfg.batch_size)


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
        _set_read_only(self, cdf=cdf)

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


# Rows of a shard batch that `make_blob_shards` scales and shifts at a time,
# so the gathered per-row scales and centers stay small however many shards
# a round builds. Measured: one unchunked pass raised all-nodes-1000's peak RSS by 0.9-2.4 MB.
_SYNTH_ROWS = 4096


def make_blob_shards(
    sizes: Sequence[int], geometry: BlobGeometry, rngs: Iterable[np.random.Generator]
) -> list[DataShard]:
    """Shard i is `sizes[i]` Gaussian samples around per-class centers, mixed
    by the class priors, drawn from the i-th generator of `rngs`.

    Each generator draws `random(n)` for the labels, as `rng.choice(n_classes,
    size=n, p=class_probs)` draws them once its checks pass, which
    `BlobGeometry` has already made, and then `standard_normal((n,
    feature_dim))` for the noise. Each is drawn from before the next is
    taken, so `rngs` may re-set one generator, as `streams.generators` does;
    a generator past the last shard is not drawn from.
    The draws land in one block for all shards, which one `searchsorted`
    turns into labels and one pass, in bounded row chunks, into features
    `centers[label] + scales[label] * noise`; one check finds any
    non-finite feature. The shards are read-only views into the block.
    """
    if min(sizes, default=1) < 1:
        raise ValidationError("a shard needs at least one sample")
    total = sum(sizes)
    uniform = np.empty(total)
    features = np.empty((total, geometry.centers.shape[1]))
    hi = 0
    for n, rng in zip(sizes, rngs):
        lo, hi = hi, hi + n
        rng.random(out=uniform[lo:hi])
        rng.standard_normal(out=features[lo:hi])
    if hi < total:
        raise ValueError("make_blob_shards needs a generator for every shard")
    labels = geometry.cdf.searchsorted(uniform, side="right").astype(np.int64, copy=False)
    # A small batch is one chunk, unsliced: without it and the lone-shard return, a lone shard cost +10-19%.
    chunks = (
        [(features, labels)]
        if total <= _SYNTH_ROWS
        else [(features[lo : lo + _SYNTH_ROWS], labels[lo : lo + _SYNTH_ROWS]) for lo in range(0, total, _SYNTH_ROWS)]
    )
    for chunk, chunk_labels in chunks:
        chunk *= geometry.scales[chunk_labels]
        chunk += geometry.centers[chunk_labels]
    if not np.isfinite(features).all():
        raise ValidationError("features must be finite")
    # A lone shard owns its arrays (`base` None) and skips the offsets and views: see the chunk case.
    if len(sizes) == 1:
        return [DataShard._adopt(features, labels)]
    features.setflags(write=False)
    labels.setflags(write=False)
    offsets = [0, *accumulate(sizes)]
    return [DataShard._adopt(features[lo:hi], labels[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]


def make_blob_shard(n: int, geometry: BlobGeometry, rng: np.random.Generator) -> DataShard:
    """`n` samples drawn from `rng`: the one-shard case of `make_blob_shards`."""
    return make_blob_shards([n], geometry, [rng])[0]
