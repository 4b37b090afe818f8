"""Merge-weight rules for the global model update.

Three strategies share one blend: a data-share term, a derivative term
(validation-cost drop) and an integral term (accumulated validation cost),
mixed by alpha/beta/gamma. FedAvg keeps only the data share. FedPIDAvg
takes derivative and integral from previous rounds' cost history. FedPOD
computes both from the current round's own pre/post validation, scaled by
each node's data share, so no cross-round participant continuity is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ShapeError, ValidationError
from .params import LocalUpdate, ModelParams, combine

__all__ = [
    "AggregationStrategy",
    "CostHistory",
    "WeightResult",
    "aggregate",
    "compute_weights",
    "fedavg_weights",
    "fedpid_weights",
    "fedpod_weights",
]

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
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValidationError("alpha, beta, gamma must be non-negative")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-12:
            raise ValidationError("alpha + beta + gamma must equal 1")
        if self.history_window < 1:
            raise ValidationError("history_window must be >= 1")


@dataclass
class CostHistory:
    """Per-node post-training validation costs from earlier rounds, oldest first."""

    costs: dict[str, list[float]] = field(default_factory=dict)

    def record(self, node_id: str, cost: float) -> None:
        self.costs.setdefault(node_id, []).append(float(cost))

    def last(self, node_id: str) -> float | None:
        past = self.costs.get(node_id)
        return past[-1] if past else None

    def recent(self, node_id: str, n: int) -> tuple[float, ...]:
        if n <= 0:
            return ()
        return tuple(self.costs.get(node_id, [])[-n:])


@dataclass(frozen=True)
class WeightResult:
    """Normalized merge weights plus any degenerate-term fallbacks that fired."""

    weights: tuple[float, ...]
    fallbacks: tuple[str, ...] = ()


def _data_shares(updates: Sequence[LocalUpdate]) -> list[float]:
    if not updates:
        raise ValidationError("need at least one update")
    total = sum(u.data_size for u in updates)
    return [u.data_size / total for u in updates]


def fedavg_weights(updates: Sequence[LocalUpdate]) -> WeightResult:
    """Pure data-share weighting."""
    return WeightResult(tuple(_data_shares(updates)))


def _blend(
    shares: Sequence[float],
    strategy: AggregationStrategy,
    k_terms: Sequence[float],
    m_terms: Sequence[float],
) -> WeightResult:
    """Mix share/derivative/integral terms, redistributing a term's mass to
    the share term when its denominator is not positive."""
    alpha = strategy.alpha
    fallbacks = []
    # fsum is correctly rounded, so the totals (and hence the weights) are
    # invariant under permutation of the update list.
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


def fedpid_weights(
    updates: Sequence[LocalUpdate],
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
    for update in updates:
        previous = history.last(update.node_id)
        if previous is None:
            previous = update.trajectory.pre_cost
        k_terms.append(previous - update.trajectory.post_cost)
        window = history.recent(update.node_id, strategy.history_window - 1) + (update.trajectory.post_cost,)
        m_terms.append(sum(window))
    return _blend(shares, strategy, k_terms, m_terms)


def fedpod_weights(updates: Sequence[LocalUpdate], strategy: AggregationStrategy) -> WeightResult:
    """Current-round blend: derivative and integral come from each node's own
    pre/post validation, pre-scaled by its data share. Nothing here depends
    on earlier rounds, so the participant set may change freely."""
    shares = _data_shares(updates)
    k_terms = [share * (u.trajectory.pre_cost - u.trajectory.post_cost) for share, u in zip(shares, updates)]
    m_terms = [share * u.trajectory.integral() for share, u in zip(shares, updates)]
    return _blend(shares, strategy, k_terms, m_terms)


def compute_weights(
    strategy: AggregationStrategy,
    updates: Sequence[LocalUpdate],
    history: CostHistory | None = None,
) -> WeightResult:
    """Dispatch to the strategy's rule. Only FedPIDAvg reads the history."""
    if strategy.kind == KIND_FEDAVG:
        return fedavg_weights(updates)
    if strategy.kind == KIND_FEDPIDAVG:
        return fedpid_weights(updates, history if history is not None else CostHistory(), strategy)
    return fedpod_weights(updates, strategy)


def aggregate(updates: Sequence[LocalUpdate], weights: Sequence[float]) -> ModelParams:
    """Weighted merge into the next global model.

    Pairs are summed in node-id order, so the result does not depend on the
    order of `updates`.
    """
    if len(updates) != len(weights):
        raise ShapeError(f"{len(updates)} updates vs {len(weights)} weights")
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"weights must sum to 1, got {total!r}")
    pairs = sorted(zip(updates, weights), key=lambda pair: pair[0].node_id)
    return combine([(w, u.params) for u, w in pairs])
