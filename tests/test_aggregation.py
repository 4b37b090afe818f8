import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import build_update, random_updates
from fedpod.aggregation import (
    AggregationStrategy,
    CostHistory,
    aggregate,
    compute_weights,
    fedavg_weights,
    fedpid_weights,
    fedpod_weights,
)
from fedpod.errors import ShapeError, ValidationError

FEDAVG = AggregationStrategy("fedavg")
POD = AggregationStrategy("fedpod", alpha=0.2, beta=0.7, gamma=0.1)
PID = AggregationStrategy("fedpidavg", alpha=0.2, beta=0.7, gamma=0.1)


# ---------------------------------------------------------------- strategy


def test_strategy_validation():
    with pytest.raises(ValidationError):
        AggregationStrategy("fedsgd")
    with pytest.raises(ValidationError):
        AggregationStrategy("fedpod", alpha=0.5, beta=0.5, gamma=0.5)
    with pytest.raises(ValidationError):
        AggregationStrategy("fedpod", alpha=1.2, beta=-0.2, gamma=0.0)
    with pytest.raises(ValidationError):
        AggregationStrategy("fedpidavg", history_window=0)


# ---------------------------------------------------------------- fedavg


def test_fedavg_single_node():
    assert fedavg_weights([build_update("a", 10, 1.0, 0.5)]).weights == (1.0,)


def test_fedavg_two_nodes():
    updates = [build_update("a", 1, 1.0, 0.5), build_update("b", 3, 1.0, 0.5)]
    assert fedavg_weights(updates).weights == (0.25, 0.75)


def test_fedavg_three_nodes_match_shares():
    updates = [build_update(n, s, 1.0, 0.5) for n, s in (("a", 2), ("b", 3), ("c", 5))]
    assert fedavg_weights(updates).weights == (0.2, 0.3, 0.5)


def test_fedavg_rejects_empty():
    with pytest.raises(ValidationError):
        fedavg_weights([])


# ---------------------------------------------------------------- fedpid


def test_fedpid_reduces_to_fedavg_without_pid_terms():
    strategy = AggregationStrategy("fedpidavg", alpha=1.0, beta=0.0, gamma=0.0)
    updates = [build_update("a", 2, 1.0, 0.4), build_update("b", 6, 1.5, 0.9)]
    history = CostHistory({"a": [1.1], "b": [1.7]})
    assert fedpid_weights(updates, history, strategy).weights == fedavg_weights(updates).weights


def test_fedpid_derivative_only_matches_scalar_oracle():
    strategy = AggregationStrategy("fedpidavg", alpha=0.0, beta=1.0, gamma=0.0)
    updates = [build_update("a", 4, 1.2, 0.5), build_update("b", 4, 1.2, 0.9)]
    history = CostHistory({"a": [1.0], "b": [1.0]})
    result = fedpid_weights(updates, history, strategy)
    # k = prior post - current post: {0.5, 0.1}; K = 0.6
    assert result.weights == pytest.approx((0.5 / 0.6, 0.1 / 0.6), abs=1e-15)
    assert result.fallbacks == ()


def test_fedpid_single_node_gets_weight_one():
    for alpha, beta, gamma in ((1.0, 0.0, 0.0), (0.2, 0.7, 0.1), (0.0, 0.0, 1.0)):
        strategy = AggregationStrategy("fedpidavg", alpha=alpha, beta=beta, gamma=gamma)
        update = build_update("solo", 9, 1.0, 0.4)
        result = fedpid_weights([update], CostHistory({"solo": [1.3]}), strategy)
        assert sum(result.weights) == pytest.approx(1.0, abs=1e-12)
        assert result.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_fedpid_cold_start_uses_current_pre_cost():
    updates = [build_update("new", 5, 1.4, 0.9)]
    result = fedpid_weights(updates, CostHistory(), AggregationStrategy("fedpidavg", 0.0, 1.0, 0.0))
    # previous := pre_cost, so k = 1.4 - 0.9 > 0 and the node keeps weight 1
    assert result.fallbacks == ()
    assert result.weights == (1.0,)


def test_fedpid_window_truncates_history():
    strategy = AggregationStrategy("fedpidavg", alpha=0.0, beta=0.0, gamma=1.0, history_window=3)
    history = CostHistory({"a": [9.0, 1.0, 1.0], "b": [1.0, 1.0, 1.0]})
    updates = [build_update("a", 2, 1.0, 1.0), build_update("b", 2, 1.0, 1.0)]
    result = fedpid_weights(updates, history, strategy)
    # window 3 keeps the last two history entries plus the current cost: both sum to 3
    assert result.weights == pytest.approx((0.5, 0.5), abs=1e-15)


# ---------------------------------------------------------------- fedpod


def _worked_example_updates():
    return [
        build_update("big", 3, 1.0, 0.5),
        build_update("small", 1, 1.0, 0.9),
    ]


def test_fedpod_worked_example_frozen_values():
    result = fedpod_weights(_worked_example_updates(), POD)
    assert result.fallbacks == ()
    assert result.weights == pytest.approx((0.8765625, 0.1234375), abs=1e-12)


def test_fedpod_worked_example_term_decomposition():
    # independent scalar recomputation of every intermediate term
    sizes = [3, 1]
    pre = [1.0, 1.0]
    post = [0.5, 0.9]
    total = sum(sizes)
    shares = [s / total for s in sizes]
    k = [sh * (p - q) for sh, p, q in zip(shares, pre, post)]
    m = [sh * (p + q) / 2 for sh, p, q in zip(shares, pre, post)]
    assert k == [0.375, pytest.approx(0.025, abs=1e-15)]
    assert sum(k) == pytest.approx(0.4, abs=1e-15)
    assert m == [0.5625, 0.2375]
    assert sum(m) == pytest.approx(0.8, abs=1e-15)
    expected = [
        0.2 * sh + 0.7 * kj / sum(k) + 0.1 * mj / sum(m)
        for sh, kj, mj in zip(shares, k, m)
    ]
    result = fedpod_weights(_worked_example_updates(), POD)
    assert result.weights == pytest.approx(expected, abs=1e-12)


def test_fedpod_identical_updates_share_equally():
    updates = [build_update(f"n{i}", 7, 1.1, 0.6) for i in range(5)]
    result = fedpod_weights(updates, POD)
    assert result.weights == pytest.approx([0.2] * 5, abs=1e-12)


def test_fedpod_reduces_to_fedavg_without_pid_terms():
    strategy = AggregationStrategy("fedpod", alpha=1.0, beta=0.0, gamma=0.0)
    updates = random_updates(np.random.default_rng(4), 6)
    assert fedpod_weights(updates, strategy).weights == fedavg_weights(updates).weights


def test_fedpod_is_permutation_invariant():
    updates = random_updates(np.random.default_rng(8), 5)
    base = fedpod_weights(updates, POD).weights
    perm = [3, 0, 4, 2, 1]
    shuffled = fedpod_weights([updates[i] for i in perm], POD).weights
    assert shuffled == tuple(base[i] for i in perm)


def test_fedpod_monotone_in_cost_drop():
    low = [build_update("a", 5, 1.0, 0.8), build_update("b", 5, 1.0, 0.5)]
    high = [build_update("a", 5, 1.0, 0.6), build_update("b", 5, 1.0, 0.5)]
    w_low = fedpod_weights(low, POD).weights[0]
    w_high = fedpod_weights(high, POD).weights[0]
    assert w_high > w_low


def test_fedpod_trapezoid_uses_full_trajectory():
    flat = build_update("a", 2, 1.0, 1.0, 1.0)
    dipped = build_update("b", 2, 1.0, 0.0, 1.0)
    result = fedpod_weights([flat, dipped], AggregationStrategy("fedpod", 0.0, 0.0, 1.0))
    # integrals: 1.0 vs 0.5, shares equal, so weights are 2/3 vs 1/3
    assert result.weights == pytest.approx((2 / 3, 1 / 3), abs=1e-12)


# ---------------------------------------------------------------- degenerate fallbacks


def test_fedpod_derivative_fallback_when_costs_worsen():
    updates = [build_update("a", 5, 0.5, 1.0), build_update("b", 5, 0.5, 0.9)]
    result = fedpod_weights(updates, POD)
    assert "derivative" in result.fallbacks
    assert sum(result.weights) == pytest.approx(1.0, abs=1e-12)


def test_fedpod_integral_fallback_when_costs_are_zero():
    updates = [build_update("a", 5, 0.0, 0.0), build_update("b", 5, 0.0, 0.0)]
    result = fedpod_weights(updates, POD)
    assert "integral" in result.fallbacks
    assert sum(result.weights) == pytest.approx(1.0, abs=1e-12)


def test_negative_individual_derivative_is_kept():
    updates = [build_update("worse", 5, 1.0, 1.2), build_update("better", 5, 1.0, 0.2)]
    result = fedpod_weights(updates, AggregationStrategy("fedpod", 0.0, 1.0, 0.0))
    assert result.fallbacks == ()
    assert result.weights[0] < 0 < result.weights[1]
    assert sum(result.weights) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_all_strategies_normalize_or_flag(seed, n_nodes):
    rng = np.random.default_rng(seed)
    updates = random_updates(rng, n_nodes)
    history = CostHistory(
        {u.node_id: [float(c) for c in rng.uniform(0.0, 2.0, size=int(rng.integers(0, 4)))] for u in updates[::2]}
    )
    for strategy in (FEDAVG, PID, POD):
        result = compute_weights(strategy, updates, history)
        if not result.fallbacks:
            assert sum(result.weights) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- aggregate


def test_aggregate_single_update_returns_its_params():
    update = build_update("a", 3, 1.0, 0.5, params=(2.0, -1.0))
    merged = aggregate([update], [1.0])
    assert np.array_equal(merged.values, update.params.values)


def test_aggregate_identical_models_any_weights():
    updates = [build_update(n, 3, 1.0, 0.5, params=(4.0, 2.0)) for n in ("a", "b")]
    merged = aggregate(updates, [0.3, 0.7])
    assert np.max(np.abs(merged.values - [4.0, 2.0])) <= 1e-12


def test_aggregate_matches_scalar_oracle():
    updates = [
        build_update("a", 3, 1.0, 0.5, params=(0.0, 0.0)),
        build_update("b", 3, 1.0, 0.5, params=(2.0, 4.0)),
    ]
    merged = aggregate(updates, [0.5, 0.5])
    assert np.array_equal(merged.values, [1.0, 2.0])


def test_aggregate_is_order_independent_bitwise():
    rng = np.random.default_rng(0)
    updates = random_updates(rng, 6, dim=5)
    weights = fedpod_weights(updates, POD).weights
    merged = aggregate(updates, weights)
    perm = [4, 2, 0, 5, 1, 3]
    shuffled = aggregate([updates[i] for i in perm], [weights[i] for i in perm])
    assert np.array_equal(merged.values, shuffled.values)


def test_aggregate_validates_inputs():
    updates = [build_update("a", 3, 1.0, 0.5), build_update("b", 1, 1.0, 0.5)]
    with pytest.raises(ShapeError):
        aggregate(updates, [1.0])
    with pytest.raises(ValidationError):
        aggregate(updates, [0.7, 0.7])
