"""Node-by-node references the columnar code must match bit for bit.

Sequential one-node SGD: these are the per-node kernels `train_round`
batches: one model, one batch per step, one `default_rng(cfg.seed)` stream
of batch orders. They live here so the simulator keeps one trainer; tests
compare it against this oracle. `step_ranges` groups one block's epoch
into steps and `step_plan` lists each step's positions: the references for
the flat plan `train_round` lays out. `np.argmax` of `_logits` is the
reference for `predict_labels`.

The scalar weight rules: FedAvg, FedPIDAvg and FedPOD written node by node
over Python floats, with the per-node trapezoid, as the reference for the
column rules of `fedpod.aggregation`.
"""

import math
from dataclasses import dataclass

import numpy as np

from fedpod.aggregation import (
    FALLBACK_DERIVATIVE,
    FALLBACK_INTEGRAL,
    KIND_FEDAVG,
    KIND_FEDPIDAVG,
    WeightResult,
)
from fedpod.errors import TrainingDivergenceError, ValidationError
from fedpod.params import (
    DataShard,
    ModelParams,
    RoundUpdates,
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


def step_ranges(sizes: np.ndarray, batch_size: int) -> list[tuple[int, np.ndarray, int]]:
    """One epoch's SGD steps over jobs of ascending training `sizes`, as
    (row offset, jobs, length): at each batch offset, the jobs that still
    have rows there, grouped by the length of their batch at it, shortest
    first. Found job by job with `flatnonzero` masks, not by bisecting the
    sorted sizes as `fedpod.params._step_plan` does."""
    n_steps = -(-sizes // batch_size)
    last_length = sizes - (n_steps - 1) * batch_size
    steps = []
    for step in range(int(n_steps.max())):
        lengths = np.where(n_steps > step + 1, batch_size, last_length)
        for length in np.unique(lengths[n_steps > step]):
            jobs = np.flatnonzero((n_steps > step) & (lengths == length))
            steps.append((step * batch_size, jobs, int(length)))
    return steps


def step_plan(sizes: np.ndarray, batch_size: int) -> list[tuple[int, int, np.ndarray]]:
    """One epoch's SGD steps over jobs of ascending training `sizes`, whose
    rows lie back to back, step by step: (jobs lo:hi, the (hi - lo, length)
    positions of their batches in the epoch's shuffled rows), from
    `step_ranges`. The reference for the flat plan of
    `fedpod.params._step_plan`."""
    starts = np.cumsum(sizes) - sizes
    return [
        (int(jobs[0]), int(jobs[-1]) + 1, (starts[jobs] + offset)[:, None] + np.arange(length))
        for offset, jobs, length in step_ranges(sizes, batch_size)
    ]


def train_local(
    start: ModelParams,
    shard: DataShard,
    val: DataShard,
    cfg: TrainConfig,
    node_id: str = "local",
) -> RoundUpdates:
    """Mini-batch SGD from `start` over `shard` for cfg.epochs, as one node's
    `RoundUpdates`.

    Batch order is shuffled by the node's own seeded stream, so the result
    is bit-reproducible for a fixed cfg.seed. Validation cost is sampled at
    every epoch boundary, giving the costs the aggregation integral needs.
    This is the single-node reference that `train_round` reproduces bit for
    bit.
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
    return RoundUpdates((node_id,), values[None], [n], np.array(costs)[:, None])


@dataclass(frozen=True)
class Node:
    """One node's column of a `RoundUpdates`, as Python numbers."""

    node_id: str
    data_size: int
    costs: tuple[float, ...]

    @property
    def pre_cost(self) -> float:
        return self.costs[0]

    @property
    def post_cost(self) -> float:
        return self.costs[-1]


def per_node(updates: RoundUpdates) -> list[Node]:
    return [
        Node(node_id, size, tuple(costs))
        for node_id, size, costs in zip(updates.node_ids, updates.sizes.tolist(), updates.costs.T.tolist())
    ]


def trapezoid(costs) -> float:
    """Trapezoidal integral of cost over the training fraction in [0, 1].

    Each step spans (e + 1) / n - e / n, which is not always 1 / n in
    floating point.
    """
    n = len(costs) - 1
    total = 0.0
    for e, (c0, c1) in enumerate(zip(costs, costs[1:])):
        total += 0.5 * (c0 + c1) * ((e + 1) / n - e / n)
    return total


def _data_shares(nodes):
    if not nodes:
        raise ValidationError("need at least one update")
    total = sum(u.data_size for u in nodes)
    return [u.data_size / total for u in nodes]


def fedavg_weights(updates):
    return WeightResult(tuple(_data_shares(per_node(updates))))


def _blend(shares, strategy, k_terms, m_terms):
    alpha = strategy.alpha
    fallbacks = []
    k_total = math.fsum(k_terms)
    use_derivative = strategy.beta > 0
    if use_derivative and k_total <= 0:
        alpha += strategy.beta
        use_derivative = False
        fallbacks.append(FALLBACK_DERIVATIVE)
    m_total = math.fsum(m_terms)
    use_integral = strategy.gamma > 0
    if use_integral and m_total <= 0:
        alpha += strategy.gamma
        use_integral = False
        fallbacks.append(FALLBACK_INTEGRAL)
    weights = []
    for share, k, m in zip(shares, k_terms, m_terms):
        w = alpha * share
        if use_derivative:
            w += strategy.beta * (k / k_total)
        if use_integral:
            w += strategy.gamma * (m / m_total)
        weights.append(w)
    return WeightResult(tuple(weights), tuple(fallbacks))


def fedpid_weights(updates, history, strategy):
    nodes = per_node(updates)
    shares = _data_shares(nodes)
    k_terms = []
    m_terms = []
    for update in nodes:
        previous = history.last(update.node_id)
        if previous is None:
            previous = update.pre_cost
        k_terms.append(previous - update.post_cost)
        window = history.recent(update.node_id, strategy.history_window - 1) + (update.post_cost,)
        m_terms.append(sum(window))
    return _blend(shares, strategy, k_terms, m_terms)


def fedpod_weights(updates, strategy):
    nodes = per_node(updates)
    shares = _data_shares(nodes)
    k_terms = [share * (u.pre_cost - u.post_cost) for share, u in zip(shares, nodes)]
    m_terms = [share * trapezoid(u.costs) for share, u in zip(shares, nodes)]
    return _blend(shares, strategy, k_terms, m_terms)


def compute_weights(strategy, updates, history):
    if strategy.kind == KIND_FEDAVG:
        return fedavg_weights(updates)
    if strategy.kind == KIND_FEDPIDAVG:
        return fedpid_weights(updates, history, strategy)
    return fedpod_weights(updates, strategy)
