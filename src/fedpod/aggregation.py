"""Merge-weight rules for the global model update.

A round's updates arrive as one `RoundUpdates`, and each rule works on its
columns. Three strategies share one blend: a data-share term, a derivative
term (validation-cost drop) and an integral term (accumulated validation
cost), mixed by alpha/beta/gamma. FedAvg keeps only the data share.
FedPIDAvg takes derivative and integral from previous rounds' cost history,
looked up by node id. FedPOD computes both from the current round's own
pre/post validation, scaled by each node's data share, so no cross-round
participant continuity is needed. `aggregate` merges the parameter block in
one reduction, in node-id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from .params import ModelParams, RoundUpdates

KIND_FEDAVG = "fedavg"
KIND_FEDPIDAVG = "fedpidavg"
KIND_FEDPOD = "fedpod"
STRATEGY_KINDS = (KIND_FEDAVG, KIND_FEDPIDAVG, KIND_FEDPOD)

FALLBACK_DERIVATIVE = "derivative"
FALLBACK_INTEGRAL = "integral"


@dataclass(frozen=True)
class AggregationStrategy:
    """Strategy kind plus the alpha/beta/gamma mix (must sum to 1)."""

    kind: str
    alpha: float = 0.2
    beta: float = 0.7
    gamma: float = 0.1
    history_window: int = 6

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValidationError(f"unknown strategy kind {self.kind!r}; expected one of {STRATEGY_KINDS}")
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma))):
            raise ValidationError("alpha, beta, gamma must be finite")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValidationError("alpha, beta, gamma must be non-negative")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-12:
            raise ValidationError("alpha + beta + gamma must equal 1")
        if self.history_window < 1:
            raise ValidationError("history_window must be >= 1")


@dataclass
class CostHistory:
    """Per-node post-training validation costs from earlier rounds, oldest
    first. Given a `history_window`, each node keeps only its last
    max(1, history_window - 1), all that `fedpid_weights` reads."""

    costs: dict[str, list[float]] = field(default_factory=dict)
    history_window: int | None = None

    def record(self, node_id: str, cost: float) -> None:
        past = self.costs.setdefault(node_id, [])
        past.append(float(cost))
        if self.history_window is not None:
            del past[: -max(1, self.history_window - 1)]

    def last(self, node_id: str) -> float | None:
        past = self.costs.get(node_id)
        return past[-1] if past else None

    def recent(self, node_id: str, n: int) -> tuple[float, ...]:
        if n <= 0:
            return ()
        return tuple(self.costs.get(node_id, [])[-n:])


@dataclass(frozen=True)
class WeightResult:
    """Normalized merge weights, any degenerate-term fallbacks that fired, and
    how many weights are below 0 (no fallback fires for them), counted from them."""

    weights: tuple[float, ...]
    fallbacks: tuple[str, ...] = ()
    negative_weights: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "negative_weights", sum(w < 0 for w in self.weights))


def _data_shares(updates: RoundUpdates) -> np.ndarray:
    if not len(updates):
        raise ValidationError("need at least one update")
    return updates.sizes / int(updates.sizes.sum())


def fedavg_weights(updates: RoundUpdates) -> WeightResult:
    """Pure data-share weighting."""
    return WeightResult(tuple(_data_shares(updates).tolist()))


def _blend(
    shares: np.ndarray,
    strategy: AggregationStrategy,
    k_terms: np.ndarray,
    m_terms: np.ndarray,
) -> WeightResult:
    """Mix share/derivative/integral terms, redistributing a term's mass to
    the share term when its denominator is not positive."""
    alpha = strategy.alpha
    fallbacks = []
    # fsum is correctly rounded, so the totals (and hence the weights) are
    # invariant under permutation of the updates.
    k_total = math.fsum(k_terms.tolist())
    use_derivative = strategy.beta > 0
    if use_derivative and k_total <= 0:
        alpha += strategy.beta
        use_derivative = False
        fallbacks.append(FALLBACK_DERIVATIVE)
    m_total = math.fsum(m_terms.tolist())
    use_integral = strategy.gamma > 0
    if use_integral and m_total <= 0:
        alpha += strategy.gamma
        use_integral = False
        fallbacks.append(FALLBACK_INTEGRAL)
    # Each node's weight takes the scalar rule's operations in its order, so
    # it equals that rule's weight bit for bit.
    weights = alpha * shares
    if use_derivative:
        weights += strategy.beta * (k_terms / k_total)
    if use_integral:
        weights += strategy.gamma * (m_terms / m_total)
    return WeightResult(tuple(weights.tolist()), tuple(fallbacks))


def fedpid_weights(
    updates: RoundUpdates,
    history: CostHistory,
    strategy: AggregationStrategy,
) -> WeightResult:
    """History-based blend: derivative is last round's post cost minus this
    round's, integral sums the node's recent post costs including this round.

    A node with no history falls back to its current pre-training cost as
    the previous value, so its derivative matches the current-round drop.
    """
    shares = _data_shares(updates)
    k_terms = []
    m_terms = []
    for node_id, pre_cost, post_cost in zip(updates.node_ids, updates.costs[0].tolist(), updates.costs[-1].tolist()):
        previous = history.last(node_id)
        if previous is None:
            previous = pre_cost
        k_terms.append(previous - post_cost)
        window = history.recent(node_id, strategy.history_window - 1) + (post_cost,)
        m_terms.append(sum(window))
    return _blend(shares, strategy, np.array(k_terms), np.array(m_terms))


def fedpod_weights(updates: RoundUpdates, strategy: AggregationStrategy) -> WeightResult:
    """Current-round blend: derivative and integral come from each node's own
    pre/post validation, pre-scaled by its data share. Nothing here depends
    on earlier rounds, so the participant set may change freely."""
    shares = _data_shares(updates)
    k_terms = shares * (updates.costs[0] - updates.costs[-1])
    m_terms = shares * updates.integral()
    return _blend(shares, strategy, k_terms, m_terms)


def compute_weights(
    strategy: AggregationStrategy,
    updates: RoundUpdates,
    history: CostHistory,
) -> WeightResult:
    """Dispatch to the strategy's rule. Only FedPIDAvg reads the history."""
    if strategy.kind == KIND_FEDAVG:
        return fedavg_weights(updates)
    if strategy.kind == KIND_FEDPIDAVG:
        return fedpid_weights(updates, history, strategy)
    return fedpod_weights(updates, strategy)


def aggregate(updates: RoundUpdates, weights: Sequence[float]) -> ModelParams:
    """Weighted merge into the next global model.

    Rows are summed in node-id order, so the result does not depend on the
    order of `updates`.
    """
    if len(updates) != len(weights):
        raise ShapeError(f"{len(updates)} updates vs {len(weights)} weights")
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"weights must sum to 1, got {total!r}")
    order = sorted(range(len(updates)), key=updates.node_ids.__getitem__)
    column = np.array(weights, dtype=np.float64)[order, None]
    if not np.isfinite(column).all():
        raise ValidationError("weights must be finite")
    # One axis-0 reduction adds each element's rows one at a time, in node-id
    # order, from 0.0, as `acc += w * v` node by node would. numpy sums a
    # lone axis pairwise instead, so a 1-wide model gets a spare zero column.
    dim = updates.params.shape[1]
    rows = np.zeros((len(order), max(dim, 2)))
    # Overflow surfaces as the constructor's finiteness error, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(column, updates.params[order], out=rows[:, :dim])
        acc = np.add.reduce(rows, axis=0, initial=0.0)
    return ModelParams(acc[:dim])
