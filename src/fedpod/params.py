"""Flat parameter vectors, the synthetic classification task, and metrics.

The model everywhere is a multinomial logistic regression stored as one flat
float64 vector: a (classes x features) weight matrix in row-major order
followed by one bias per class. A `DataShard` holds rows of per-class
Gaussian samples; validation cost is mean cross-entropy.

Local training has one implementation, `train_round`, which trains all of a
round's nodes at once on stacked kernels; `train_local` is its one-node form.
It reads the training and validation rows that `RoundJobs` columns place in
one store, and returns one `RoundUpdates` of columns, one entry per node: the
trained parameters as a (nodes, dim) block, the training-set sizes and the
validation cost at every epoch boundary. Timings stay with the engine.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ShapeError, TrainingDivergenceError, ValidationError
from .streams import generators

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
        """A shard of float64 features and int64 labels, checked as the constructor
        checks them but maybe empty, which no one writes to: kept, not copied."""
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
    """Infer (n_classes, feature_dim) and check the model fits the shard's features."""
    f = shard.feature_dim
    if model.dim % (f + 1) != 0:
        raise ShapeError(f"model dim {model.dim} does not fit feature dim {f}")
    c = model.dim // (f + 1)
    if c < 2:
        raise ShapeError("classifier needs at least 2 classes")
    return c, f


# Class counts below which `_stacked_gradient` and `_bind_costs` run their
# softmax on class-major logits, each class's values for all stacked rows
# contiguous, so the class max and sum are each one reduction over axis 0
# whose inner loop runs along the rows. Below 8 classes numpy sums a
# contiguous row left to right, as that reduction adds the classes; from 8
# it sums pairwise, and those class counts keep the per-row reductions.
_SLICE_CLASSES = 8

# Stacked rows, k models times their batch length, from which
# `_stacked_gradient` reduces the bias gradient over axis 0 of a (length, k,
# n_classes) copy, whose inner loop runs over all k models at once, rather
# than over each model's rows. Below it the copy costs more than it saves.
_WIDE_ROWS = 256


def _bind_costs(
    values: np.ndarray, store: DataShard, starts: np.ndarray, counts: np.ndarray, n_classes: int, feature_dim: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The mean cross-entropy, before the clip at 0, of model i of the (k,
    dim) `values` on `counts[i]` rows of `store` from `starts[i]`,
    as a call that writes the k costs into `out`; it reads `values` afresh.

    One `take` of the store lays the models' rows back to back, grouped by
    count. A call runs one (k, size, feature_dim) product per group into its
    slice of one (rows, n_classes) logits buffer and adds the biases, then
    one pass over all rows (class max, label pick, log of the sum of
    exponentials) and a row sum of each group's (k, size) losses over its
    size. Each product has the shapes of the one-model cost in
    `tests/_oracle.py` and every later step works element by element, row by
    row or class by class, so each cost is the oracle's bit for bit. Below
    `_SLICE_CLASSES` classes the bias add writes the logits class-major,
    into one (n_classes, rows) buffer whose axis 0 the pass reduces, as
    `_stacked_gradient` does; from it the pass reduces each row of the
    logits. The caller holds the `np.errstate`.
    """
    groups: dict[int, list[int]] = {}
    for i, count in enumerate(counts.tolist()):
        groups.setdefault(count, []).append(i)
    order = np.array([i for group in groups.values() for i in group])
    counts = counts[order]
    index = _ranges(starts[order], counts)
    features, labels = store.features.take(index, axis=0), store.labels.take(index)
    sizes = counts.astype(np.float64)
    rows, split = len(labels), n_classes * feature_dim
    models, group_costs = np.empty((len(order), values.shape[1])), np.empty(len(order))
    logits, row, picked = np.empty((rows, n_classes)), np.empty(rows), np.empty(rows)
    class_major = n_classes < _SLICE_CLASSES
    if class_major:
        softmax, axis, reduced, biases = np.empty((n_classes, rows)), 0, row[None], models[:, split:].T[:, :, None]
        picks = labels * rows + np.arange(rows)
    else:
        softmax, axis, reduced, biases = logits, 1, row[:, None], models[:, None, split:]
        picks = np.arange(rows) * n_classes + labels
    products, sums = [], []
    lo = row_lo = 0
    for size, group in groups.items():
        k = len(group)
        hi, row_hi = lo + k, row_lo + k * size
        weights_t = models[lo:hi, :split].reshape(k, n_classes, feature_dim).transpose(0, 2, 1)
        z = logits[row_lo:row_hi].reshape(k, size, n_classes)
        if class_major:
            bias_add = z.transpose(2, 0, 1), biases[:, lo:hi], softmax[:, row_lo:row_hi].reshape(n_classes, k, size)
        else:
            bias_add = z, biases[lo:hi], z
        products.append((features[row_lo:row_hi].reshape(k, size, feature_dim), weights_t, z, *bias_add))
        sums.append((row[row_lo:row_hi].reshape(k, size), group_costs[lo:hi]))
        lo, row_lo = hi, row_hi
    flat = softmax.reshape(-1)

    def costs(out: np.ndarray) -> np.ndarray:
        # Every index is in range; "clip" spares `take` the copy of `out` it makes in "raise" mode.
        values.take(order, axis=0, out=models, mode="clip")
        for x, weights_t, z, z_view, bias, dst in products:
            np.matmul(x, weights_t, out=z)
            np.add(z_view, bias, out=dst)
        np.maximum.reduce(softmax, axis=axis, keepdims=True, out=reduced)
        np.subtract(softmax, reduced, out=softmax)
        flat.take(picks, out=picked, mode="clip")
        np.exp(softmax, out=softmax)
        np.add.reduce(softmax, axis=axis, keepdims=True, out=reduced)
        np.log(row, out=row)
        np.subtract(row, picked, out=row)
        for losses, cost in sums:
            np.add.reduce(losses, axis=1, out=cost)
        np.divide(group_costs, sizes, out=group_costs)
        out[order] = group_costs
        return out

    return costs


def predict_labels(model: ModelParams, shard: DataShard) -> np.ndarray:
    """Argmax class per sample, as `np.argmax` of the logits gives it, as intp.

    A tie goes to the lowest class id. A model whose logits overflow is an
    error, as its validation cost is in `train_round`. The running argmax
    is one byte wide up to 256 classes and has no branch: class c exceeds
    every earlier label, so where its logit is strictly greater it is the max.
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
    pred = np.zeros(len(shard), dtype=np.min_scalar_type(n_classes - 1))
    best = z[0]
    for c in range(1, n_classes):
        np.maximum(pred, (z[c] > best).view(np.uint8) * pred.dtype.type(c), out=pred)
        np.maximum(best, z[c], out=best)
    return pred.astype(np.intp)


_JOB_COLUMNS = ("train_start", "train_count", "val_start", "val_count", "offset", "quota")


@dataclass(frozen=True, eq=False)
class RoundJobs:
    """Jobs as read-only int64 columns over one store of rows: node ids; each
    node's `train_count` training rows from `train_start` and `val_count`
    validation rows from `val_start`; its window, training rows train_start
    + (offset + k) % train_count for k < quota, in order; and its stream, a
    row of `streams`, the 4 uint64 words `default_rng(seed)` seeds itself
    from. Checked once, here, and against a store by `_check_round`: the
    engine checks one table of all its rounds' jobs, before any trains."""

    node_ids: tuple[str, ...]
    train_start: np.ndarray
    train_count: np.ndarray
    val_start: np.ndarray
    val_count: np.ndarray
    offset: np.ndarray
    quota: np.ndarray
    streams: np.ndarray

    def __post_init__(self):
        ids, columns = tuple(self.node_ids), {}
        for name in ("streams", *_JOB_COLUMNS):
            try:
                columns[name] = np.asarray(getattr(self, name))
            except ValueError:  # numpy refuses a ragged column; no check below admits [None]
                columns[name] = np.array([None])
        streams = columns.pop("streams")
        for name, column in columns.items():
            # A Python int past uint64 makes an object column, and one past int64 a uint64 one.
            if column.size and not (column.dtype.kind == "i" or (column.dtype.kind == "u" and column.max() < 2**63)):
                raise ValidationError(f"job column {name!r} must hold integers in int64 range")
            if column.shape != (len(ids),):
                raise ShapeError(f"every job column must hold one entry per node, {len(ids)} nodes")
        block = np.array(list(columns.values()), dtype=np.int64)
        if streams.shape != (len(ids), 4) or streams.dtype != np.uint64:
            raise ShapeError("each job's stream must be 4 uint64 words")
        n, offset, quota = block[1], block[4], block[5]
        outside = (offset < 0) | (offset >= n) | (quota < 1) | (quota > n)
        if outside.any():
            j = int(outside.argmax())
            raise ValidationError(f"job {ids[j]!r}: window of {quota[j]} at {offset[j]} is outside its {n[j]} rows")
        block.setflags(write=False)
        _set_read_only(self, node_ids=ids, streams=streams, **dict(zip(_JOB_COLUMNS, block)))

    def _rows(self, rows: slice) -> RoundJobs:
        """The jobs `rows`, as views of these read-only columns, not checked again."""
        jobs = object.__new__(RoundJobs)
        vars(jobs).update((name, getattr(self, name)[rows]) for name in ("node_ids", "streams", *_JOB_COLUMNS))
        return jobs


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The rows starts[i] + k for k < counts[i], for each i in turn, as one array."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _gradient_views(values: np.ndarray, grad: np.ndarray, n_classes: int, feature_dim: int) -> tuple:
    """The block views that `_bind_step` slices by job: the transposed
    weights and the (jobs, n_classes) biases of the (jobs, dim) `values`,
    and the weight and bias columns of the (jobs, dim) `grad`."""
    split = n_classes * feature_dim
    shape = (len(values), n_classes, feature_dim)
    weights_t = values[:, :split].reshape(shape).transpose(0, 2, 1)
    return weights_t, values[:, split:], grad[:, :split].reshape(shape), grad[:, split:]


def _step_scratch(k: int, length: int, n_classes: int) -> tuple:
    """The scratch of `_stacked_gradient` steps of k models on batches of
    `length`: logits (k, length, n_classes), their transposed view, and
    below `_SLICE_CLASSES` classes class-major logits (n_classes, k, length)
    and class maxima or sums (1, k, length), from it None and row maxima or
    sums (k, length, 1). Steps of one shape may share it."""
    logits = np.empty((k, length, n_classes))
    if n_classes < _SLICE_CLASSES:
        return logits, logits.transpose(0, 2, 1), np.empty((n_classes, k, length)), np.empty((1, k, length))
    return logits, logits.transpose(0, 2, 1), None, np.empty((k, length, 1))


def _bind_step(views: tuple, lo: int, hi: int, features: np.ndarray, onehot: np.ndarray, scratch: tuple) -> tuple:
    """The operands of one `_stacked_gradient` call, for jobs lo:hi of the
    block whose `_gradient_views` are `views`, on their (k, length,
    feature_dim) batches `features` and (k, length, n_classes) `onehot`,
    with `_step_scratch` of that shape. Where the scratch has class-major
    logits the softmax runs on them, with the biases as (n_classes, k, 1)
    columns and its reductions over axis 0; else on the logits in place,
    with the biases as (k, 1, n_classes) rows and its reductions along each
    row. From `_WIDE_ROWS` stacked rows the bias gradient is reduced from a
    copy."""
    weights_t, bias, grad_w, grad_b = views
    z, z_t, zc, reduced = scratch
    k, length, _ = onehot.shape
    if zc is None:
        softmax = z, bias[lo:hi, None], z, 2
    else:
        softmax = z.transpose(2, 0, 1), bias[lo:hi].T[:, :, None], zc, 0
    wide = k * length >= _WIDE_ROWS
    return (features, weights_t[lo:hi], onehot, z, z_t, *softmax, reduced, grad_w[lo:hi], grad_b[lo:hi], length, wide)


def _stacked_gradient(step: tuple) -> None:
    """Mean cross-entropy gradient of k models on k equal-length batches at
    once, for the operands `_bind_step` bound, written into rows lo:hi of
    the block's gradient.

    The operands are views: the weights and biases of rows lo:hi of a
    block's parameters, rows lo:hi of its gradient, and the batch and
    scratch buffers. `_train_block` binds every step once and calls it each
    epoch, so the block's parameters must be updated in place and never
    rebound: a view of an array that was replaced still reads the old one.
    Each slice goes through the same kernels, with the same shapes, strides
    and order, as one call of the one-model gradient in `tests/_oracle.py`,
    so every row of the result equals it bit for bit. The steps that differ
    in form give the same bits:
    - `p -= onehot` subtracts 1.0 where the oracle's fancy index does, and
      0.0 elsewhere, which leaves every value as it was, -0.0 and NaN too;
    - the logits, the class maxima and the class sums go into the scratch
      buffers through `out=`, and each bias is added to its logit, the same
      one addition;
    - the weight gradient's matmul writes into the gradient's weight columns
      through `out=`, with the same operands as the oracle's product;
    - the bias gradient adds each model's rows one after another, as
      `p.sum(axis=0)` does, along axis 1 or, from `_WIDE_ROWS` stacked
      rows, as one axis-0 reduction of a (length, k, n_classes) copy.

    Below `_SLICE_CLASSES` classes the softmax runs on class-major logits:
    - the bias add reads the logits through their (n_classes, k, length)
      transposed view and writes each sum into the contiguous scratch, on
      which `exp` runs, as the oracle's does;
    - the class max and the class sum are each one reduction over axis 0:
      the max is exact in any order, and the sum adds the classes left to
      right, as numpy sums a contiguous row of so few values; the values
      summed are `exp` outputs, never -0.0, so starting from the first
      class gives the bits of numpy's start from 0.0;
    - the normalizing divide writes each quotient back into the row-major
      logits through their transposed view.
    From `_SLICE_CLASSES` classes numpy sums a row pairwise, and the softmax
    runs in place on the row-major logits, reduced along each row.

    The gradient is written unscaled, and the block's gradient buffer
    belongs to the caller until the next call: it may scale it in place by
    the learning rate, `grad *= learning_rate`, which is the product
    `learning_rate * grad` bit for bit. A caller that checks for divergence
    reads its finiteness before scaling, as `_train_block`'s replay does:
    the oracle checks the gradient before the update, so a finite gradient
    whose scaled product overflows is a parameter fault, not a gradient
    fault. The caller holds the `np.errstate`.
    """
    features, weights_t, onehot, z, z_t, z_view, bias, softmax, axis, reduced, grad_w, grad_b, length, wide = step
    np.matmul(features, weights_t, out=z)
    np.add(z_view, bias, out=softmax)
    np.maximum.reduce(softmax, axis=axis, keepdims=True, out=reduced)
    softmax -= reduced
    np.exp(softmax, out=softmax)
    np.add.reduce(softmax, axis=axis, keepdims=True, out=reduced)
    np.divide(softmax, reduced, out=z_view)
    z -= onehot
    z /= length
    np.matmul(z_t, features, out=grad_w)
    if wide:
        np.add.reduce(z.transpose(1, 0, 2).copy(), axis=0, out=grad_b)
    else:
        np.add.reduce(z, axis=1, out=grad_b)


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
    batch_size = min(batch_size, int(sizes.max()))  # a larger batch takes the same steps, past int64 too
    row_in_job = _ranges(np.zeros_like(sizes), sizes)
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
    store: DataShard,
    jobs: RoundJobs,
    block: np.ndarray,
    epochs: int,
    learning_rate: float,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """`train_round`'s SGD for the jobs `block` of `jobs`, sorted by quota.

    Returns the trained parameters (block, dim), the validation costs before
    the clip at 0 (epochs + 1, block), and the earliest fault of each job
    that diverged, by position in `block`, in the sequential oracle's order.
    One index array gathers the windows, and `_bind_costs` the validation
    rows, once; each epoch boundary scores all of them in one flat pass.

    Every SGD step's operands are bound once, with the step plan, and used
    in every epoch: views of the block's parameters `values` and of its one
    gradient buffer, views of one feature and one one-hot buffer that each
    gather run of the plan refills with its batches, rows counted from the
    run's first, and the `_step_scratch` shared by the steps of one shape.
    `values` is therefore only ever written in place: an epoch that is
    replayed restores it with `values[:] = saved`. The gradient buffer is
    the step loop's: each step scales its rows by the learning rate in place
    and subtracts them from its parameters.
    """
    n_classes, feature_dim = _classifier_dims(start, store)
    # The jobs' windows back to back: job i owns sizes[i] rows from sum(sizes[:i]).
    sizes = jobs.quota[block]
    rows = _ranges(jobs.offset[block], sizes) % np.repeat(jobs.train_count[block], sizes)
    rows += np.repeat(jobs.train_start[block], sizes)
    features, labels = store.features.take(rows, axis=0), store.labels.take(rows)
    eye = np.eye(n_classes)

    positions, runs = _step_plan(sizes, batch_size)
    values = np.tile(start.values, (len(block), 1))
    val_costs = _bind_costs(values, store, jobs.val_start[block], jobs.val_count[block], n_classes, feature_dim)
    grad = np.empty_like(values)
    views = _gradient_views(values, grad, n_classes, feature_dim)
    run_rows = max(end - first for first, end, _ in runs)
    run_features = np.empty((run_rows, feature_dim))
    run_onehot = np.empty((run_rows, n_classes))
    scratch: dict[tuple[int, int], tuple] = {}
    bound = []
    for first, end, steps in runs:
        bound_steps = []
        for lo, hi, length, row_lo, row_hi in steps:
            k = hi - lo
            if (k, length) not in scratch:
                scratch[k, length] = _step_scratch(k, length, n_classes)
            x = run_features[row_lo:row_hi].reshape(k, length, feature_dim)
            onehot = run_onehot[row_lo:row_hi].reshape(k, length, n_classes)
            step = _bind_step(views, lo, hi, x, onehot, scratch[k, length])
            bound_steps.append((lo, values[lo:hi], grad[lo:hi], step))
        bound.append((first, end, run_features[: end - first], run_onehot[: end - first], bound_steps))

    costs = np.empty((epochs + 1, len(block)))
    diverged: dict[int, str] = {}

    def validate(epoch: int) -> None:
        val_costs(costs[epoch])
        for j in np.flatnonzero(~np.isfinite(costs[epoch])):
            diverged.setdefault(int(j), f"validation cost at epoch {epoch}")

    def sgd(batches: np.ndarray, epoch: int | None) -> None:
        for first, end, batch_features, batch_onehot, steps in bound:
            # The run's batch rows, in step order. Every index is in range;
            # "clip" spares `take` the copy it makes of `out` in "raise" mode.
            features.take(batches[first:end], axis=0, out=batch_features, mode="clip")
            eye.take(labels.take(batches[first:end]), axis=0, out=batch_onehot, mode="clip")
            for lo, params, step_grad, step in steps:
                _stacked_gradient(step)
                if epoch is not None:
                    # Checked before scaling, as the oracle checks the gradient.
                    bad_grad = ~np.isfinite(step_grad).all(axis=1)
                step_grad *= learning_rate
                params -= step_grad
                if epoch is not None:
                    for j in np.flatnonzero(bad_grad | ~np.isfinite(params).all(axis=1)):
                        fault = "gradient" if bad_grad[j] else "parameters"
                        diverged.setdefault(lo + int(j), f"{fault} at epoch {epoch}")

    # Each job's stream is its own, so drawing a job's epochs back to back
    # gives the permutations a one-node trainer draws epoch by epoch. One
    # `permuted` call shuffles each row of `arange(n)` as `permutation(n)`
    # would, row after row: the same orders, leaving the same stream state.
    # Job i's rows are the first sizes[i] columns of one broadcast arange.
    aranges = np.broadcast_to(np.arange(sizes[-1]), (epochs, sizes[-1]))
    rngs = generators(jobs.streams[block])
    orders = np.concatenate([rng.permuted(aranges[:, :n], axis=1) for n, rng in zip(sizes.tolist(), rngs)], axis=1)
    orders += np.repeat(np.cumsum(sizes) - sizes, sizes)
    # Each epoch's batch rows, in step order.
    orders = orders.take(positions, axis=1)
    # With a finite learning rate, a non-finite gradient or parameter leaves
    # its row non-finite through every later step, so one check at the end of
    # an epoch finds any divergence in it. That epoch is then replayed with
    # `epoch` given to `sgd`, which checks every step for the exact detail.
    with np.errstate(over="ignore", invalid="ignore"):
        validate(0)
        for epoch in range(1, epochs + 1):
            saved = values.copy()
            sgd(orders[epoch - 1], None)
            if not np.isfinite(values).all():
                values[:] = saved
                sgd(orders[epoch - 1], epoch)
            validate(epoch)
    return values, costs, diverged


def _check_round(start: ModelParams, store: DataShard, jobs: RoundJobs) -> None:
    """Check, as columns, that the model fits the store, every job's rows lie
    in it and every label is below the class count. A failed label check walks
    the jobs for the first job's first bad label (validation rows, then window)."""
    n_classes, _ = _classifier_dims(start, store)
    # Counts against the rows left after each start: a start plus its count may pass int64.
    ends = (jobs.train_count > len(store) - jobs.train_start) | (jobs.val_count > len(store) - jobs.val_start)
    outside = ends | (np.minimum(jobs.train_start, jobs.val_start) < 0) | (jobs.val_count < 1)
    if outside.any():
        raise ValidationError(f"job {jobs.node_ids[int(outside.argmax())]!r}: its rows are not all inside the store")
    if store.labels.max(initial=0) < n_classes:
        return
    for j in range(len(jobs.node_ids)):
        window = (jobs.offset[j] + np.arange(jobs.quota[j])) % jobs.train_count[j] + jobs.train_start[j]
        for labels in (store.labels[jobs.val_start[j] : jobs.val_start[j] + jobs.val_count[j]], store.labels[window]):
            if labels.max() >= n_classes:
                raise ValidationError(f"label {int(labels.max())} out of range for {n_classes} classes")


def train_round(
    start: ModelParams, store: DataShard, jobs: RoundJobs, epochs: int, learning_rate: float, batch_size: int
) -> RoundUpdates:
    """Mini-batch SGD from `start` for all of one round's `jobs` at once, on
    their training and validation rows of `store`.

    Node i, in `jobs` order, equals `tests/_oracle.train_local`, the
    sequential one-node SGD, run on job i's window and validation rows with
    `TrainConfig(epochs, learning_rate, seed, batch_size)`, bit for bit,
    when its stream is `SeedSequence(seed).generate_state(4, np.uint64)`.
    Jobs train in blocks of similar quota. At each SGD step a block's jobs
    are grouped by their exact batch length, so nothing is padded and each
    job's batch goes through the same kernels as in the oracle. Every job's
    parameters are checked once per epoch, an epoch that diverged is
    replayed with every step's gradient and parameters checked, and every
    validation cost is checked. If jobs diverge, the error is the one the
    oracle raises for the first of them in `jobs` order.

    The store and the rows the jobs read are checked before any training
    (`_check_round`), the returned columns once, by `RoundUpdates`. The
    engine checks its run's jobs once and trains rounds by `_train_checked`.
    """
    TrainConfig(epochs, learning_rate, 0, batch_size)  # the argument checks of a one-node config
    _check_round(start, store, jobs)
    return _train_checked(start, store, jobs, epochs, learning_rate, batch_size)


def _train_checked(
    start: ModelParams, store: DataShard, jobs: RoundJobs, epochs: int, learning_rate: float, batch_size: int
) -> RoundUpdates:
    """`train_round` on arguments already checked as it checks them."""
    values = np.empty((len(jobs.node_ids), start.dim))
    costs = np.empty((epochs + 1, len(jobs.node_ids)))
    diverged: dict[int, str] = {}
    # Jobs of similar quota share most of their batch lengths.
    by_size = np.argsort(jobs.quota, kind="stable")
    for lo in range(0, len(by_size), _BLOCK_NODES):
        block = by_size[lo : lo + _BLOCK_NODES]
        values[block], costs[:, block], block_diverged = _train_block(
            start, store, jobs, block, epochs, learning_rate, batch_size
        )
        diverged.update((int(block[j]), detail) for j, detail in block_diverged.items())

    if diverged:
        first = min(diverged)
        raise TrainingDivergenceError(jobs.node_ids[first], diverged[first])
    # Clip away the odd -1ulp rounding artefact, as `max(cost, 0.0)` would.
    return RoundUpdates(jobs.node_ids, values, jobs.quota, np.where(costs < 0.0, 0.0, costs))


def train_local(
    start: ModelParams,
    shard: DataShard,
    val: DataShard,
    cfg: TrainConfig,
    node_id: str = "local",
) -> RoundUpdates:
    """Mini-batch SGD from `start` over all of `shard` for cfg.epochs: the
    one-job form of `train_round`, on one store of `shard` then `val`, so
    they must share one feature_dim; returns one node's `RoundUpdates`.

    Batch order is shuffled by numpy's `default_rng(cfg.seed)` stream, for
    any non-negative seed; validation cost is sampled at every epoch boundary.
    """
    if shard.feature_dim != val.feature_dim:
        raise ShapeError(f"the shards' feature dims differ: {shard.feature_dim} training, {val.feature_dim} validation")
    store = DataShard._adopt(np.concatenate([shard.features, val.features]), np.concatenate([shard.labels, val.labels]))
    stream = np.random.SeedSequence(cfg.seed).generate_state(4, np.uint64)
    jobs = RoundJobs((node_id,), [0], [len(shard)], [len(shard)], [len(val)], [0], [len(shard)], stream[None])
    return train_round(start, store, jobs, cfg.epochs, cfg.learning_rate, cfg.batch_size)


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
    denom = int(np.count_nonzero(x) + np.count_nonzero(y))
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
) -> DataShard:
    """One store of shards back to back: shard i, rows sum(sizes[:i]) on, is
    `sizes[i]` Gaussian samples around per-class centers, mixed by the class
    priors, drawn from the i-th generator of `rngs`.

    Each generator draws `random(n)` for the labels, as `rng.choice(n_classes,
    size=n, p=class_probs)` draws them once its checks pass, which
    `BlobGeometry` has already made, and then `standard_normal((n,
    feature_dim))` for the noise. Each is drawn from before the next is
    taken, so `rngs` may re-set one generator, as `streams.generators` does;
    a generator past the last shard is not drawn from.
    The draws land in one block for all shards, which one `searchsorted`
    turns into labels and one pass, in bounded row chunks, into features
    `centers[label] + scales[label] * noise`, each gathered with `take`; one
    check finds any non-finite feature. The block is the store, read-only; no
    sizes give a store of no rows.
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
    for lo in range(0, total, _SYNTH_ROWS):
        chunk, chunk_labels = features[lo : lo + _SYNTH_ROWS], labels[lo : lo + _SYNTH_ROWS]
        chunk *= geometry.scales.take(chunk_labels, axis=0)
        chunk += geometry.centers.take(chunk_labels, axis=0)
    if not np.isfinite(features).all():
        raise ValidationError("features must be finite")
    return DataShard._adopt(features, labels)


def make_blob_shard(n: int, geometry: BlobGeometry, rng: np.random.Generator) -> DataShard:
    """`n` samples drawn from `rng`: the one-shard case of `make_blob_shards`."""
    return make_blob_shards([n], geometry, [rng])
