"""Sequential one-node SGD: the reference `train_round` must match bit for bit.

These are the per-node kernels `train_round` batches: one model, one batch
per step, one `default_rng(cfg.seed)` stream of batch orders. They live here
so the simulator keeps one trainer; tests compare it against this oracle.
`np.argmax` of `_logits` is the reference for `predict_labels`.
"""

import math

import numpy as np

from fedpod.errors import TrainingDivergenceError
from fedpod.params import (
    CostTrajectory,
    DataShard,
    LocalUpdate,
    ModelParams,
    TrainConfig,
    _classifier_dims,
)


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
