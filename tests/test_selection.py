import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpod.cohort import PartitionTable, PoissonModel, fit_poisson
from fedpod.engine import PhaseEntry
from fedpod.errors import EmptyCohortError, ValidationError
from fedpod.selection import (
    TaskParticipant,
    TaskPlan,
    classify_nodes,
    compose_task,
    primary_quota,
    upper_bound,
)


def table_from_counts(counts):
    return PartitionTable({f"inst{i:02d}": c for i, c in enumerate(counts)})


def phase(n_primary, n_secondary, epochs=1):
    return PhaseEntry(1, None, n_primary + n_secondary, n_primary, n_secondary, 1e-3, epochs)


# ---------------------------------------------------------------- upper bound


def test_upper_bound_examples():
    assert upper_bound(64.0, 2.0) == 80.0
    assert upper_bound(25.0, 0.0) == 25.0
    assert upper_bound(30.0, 1.5) == pytest.approx(30.0 + 1.5 * math.sqrt(30.0), abs=1e-12)


def test_upper_bound_requires_positive_lambda():
    with pytest.raises(ValidationError):
        upper_bound(0.0, 2.0)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_classify_nodes_rejects_a_non_finite_z(z):
    table = table_from_counts([3, 10, 40])
    with pytest.raises(ValidationError, match="z must be finite"):
        classify_nodes(table, fit_poisson(table), z)


# ---------------------------------------------------------------- classify


def test_classify_skewed_cohort():
    table = table_from_counts([1, 1, 1, 97])
    split = classify_nodes(table, PoissonModel(25.0), z=2.0)
    assert split.threshold == 35.0
    assert split.primary == ("inst03",)
    assert set(split.secondary) == {"inst00", "inst01", "inst02"}


def test_classify_all_at_mean_gives_no_primaries():
    table = table_from_counts([10, 10, 10])
    split = classify_nodes(table, PoissonModel(10.0), z=1.0)
    assert split.primary == ()


def test_classify_very_negative_z_gives_no_secondaries():
    table = table_from_counts([3, 9])
    split = classify_nodes(table, PoissonModel(6.0), z=-100.0)
    assert split.secondary == ()


def test_classify_orders_by_count_then_id():
    table = table_from_counts([5, 9, 5, 9])
    split = classify_nodes(table, PoissonModel(6.0), z=-100.0)
    assert split.primary == ("inst01", "inst03", "inst00", "inst02")


@settings(max_examples=100)
@given(
    st.lists(st.integers(0, 200), min_size=1, max_size=12),
    st.floats(1.0, 100.0),
    st.floats(-5.0, 5.0),
)
def test_classify_is_a_disjoint_cover(counts, lam, z):
    table = table_from_counts(counts)
    split = classify_nodes(table, PoissonModel(lam), z)
    assert set(split.primary) | set(split.secondary) == set(table.counts)
    assert set(split.primary) & set(split.secondary) == set()
    for inst in split.primary:
        assert table.counts[inst] >= split.threshold
    for inst in split.secondary:
        assert table.counts[inst] < split.threshold


# ---------------------------------------------------------------- quotas


def test_primary_quota_round_and_clamp():
    assert primary_quota(100.0, 0.0, holdings=300) == 100
    assert primary_quota(100.0, 0.1, holdings=42) == 42
    assert primary_quota(3.4, 0.1, holdings=300) == 3
    assert primary_quota(1.0, 0.0, holdings=1) == 1


# ---------------------------------------------------------------- compose


def _skewed_setup():
    table = table_from_counts([30, 28, 25, 31, 300, 290])
    model = fit_poisson(table)
    split = classify_nodes(table, model, z=2.0)
    return table, model, split


def test_compose_primary_only_phase():
    table, model, split = _skewed_setup()
    plan = compose_task(1, split, phase(2, 0), model.lam, 0.1, table, rng_seed=3)
    assert all(p.role == "primary" for p in plan.participants)
    assert len(plan.participants) == 2


def test_compose_rotating_window_wraps_after_three_rounds():
    table = table_from_counts([300])
    split = classify_nodes(table, PoissonModel(100.0), z=0.0)
    offsets = {}
    seen_offsets = []
    for round_index in (1, 2, 3, 4):
        plan = compose_task(round_index, split, phase(1, 0), 100.0, 0.0, table, offsets=offsets)
        (p,) = plan.participants
        assert p.quota == 100
        seen_offsets.append(p.shard_offset)
        offsets[p.institution_id] = (p.shard_offset + p.quota) % 300
    assert seen_offsets == [0, 100, 200, 0]


def test_compose_excludes_blacklisted_secondary():
    table, model, split = _skewed_setup()
    banned = split.secondary[0]
    for round_index in range(1, 20):
        plan = compose_task(
            round_index, split, phase(2, 2), model.lam, 0.1, table,
            blacklist=frozenset({banned}), rng_seed=11,
        )
        assert banned not in plan.node_ids()


def test_compose_is_deterministic():
    table, model, split = _skewed_setup()
    a = compose_task(4, split, phase(2, 2), model.lam, 0.1, table, rng_seed=9)
    b = compose_task(4, split, phase(2, 2), model.lam, 0.1, table, rng_seed=9)
    assert a == b


def test_compose_blacklist_of_undrawn_node_changes_nothing():
    table, model, split = _skewed_setup()
    banned = split.secondary[-1]
    free = compose_task(1, split, phase(2, 2), model.lam, 0.1, table, rng_seed=9)
    assert banned not in free.node_ids()
    constrained = compose_task(
        1, split, phase(2, 2), model.lam, 0.1, table,
        blacklist=frozenset({banned}), rng_seed=9,
    )
    assert free == constrained


def test_compose_blacklisted_drawn_node_is_substituted():
    table, model, split = _skewed_setup()
    drawn = compose_task(3, split, phase(2, 2), model.lam, 0.1, table, rng_seed=9)
    banned = next(p.institution_id for p in drawn.participants if p.role == "secondary")
    kept = [p.institution_id for p in drawn.participants if p.institution_id != banned]
    replacement = compose_task(
        3, split, phase(2, 2), model.lam, 0.1, table,
        blacklist=frozenset({banned}), rng_seed=9,
    )
    assert banned not in replacement.node_ids()
    assert set(kept) <= set(replacement.node_ids())
    assert len(replacement.participants) == len(drawn.participants)


def test_compose_secondary_shortfall_flag():
    table, model, split = _skewed_setup()
    plan = compose_task(1, split, phase(2, 10), model.lam, 0.1, table, rng_seed=0)
    assert plan.secondary_shortfall
    assert len([p for p in plan.participants if p.role == "secondary"]) == len(split.secondary)


def test_compose_primary_shortfall_flag():
    table, model, split = _skewed_setup()
    assert len(split.primary) == 2
    args = (1, split, phase(2, 1), model.lam, 0.1, table)
    assert not compose_task(*args, rng_seed=0).primary_shortfall
    plan = compose_task(*args, blacklist=frozenset({split.primary[0]}), rng_seed=0)
    assert plan.primary_shortfall and not plan.secondary_shortfall
    assert [p.institution_id for p in plan.participants if p.role == "primary"] == [split.primary[1]]


def test_compose_errors_without_primaries():
    table = table_from_counts([5, 5])
    split = classify_nodes(table, PoissonModel(5.0), z=2.0)
    with pytest.raises(EmptyCohortError):
        compose_task(1, split, phase(1, 1), 5.0, 0.1, table)


def test_compose_quota_bounds_hold():
    table, model, split = _skewed_setup()
    for round_index in range(1, 10):
        plan = compose_task(round_index, split, phase(2, 3), model.lam, 0.1, table, rng_seed=2)
        for p in plan.participants:
            assert 1 <= p.quota <= table.counts[p.institution_id]


def test_secondary_quota_is_full_count():
    table, model, split = _skewed_setup()
    plan = compose_task(2, split, phase(2, 4), model.lam, 0.1, table, rng_seed=1)
    for p in plan.participants:
        if p.role == "secondary":
            assert p.quota == table.counts[p.institution_id]
            assert p.shard_offset == 0


def test_rotating_windows_cover_all_samples():
    # Over ceil(holdings / quota) consecutive rounds a primary sees everything.
    table = table_from_counts([23])
    split = classify_nodes(table, PoissonModel(7.0), z=0.0)
    offsets = {}
    seen: set[int] = set()
    (inst,) = table.counts
    rounds_needed = math.ceil(23 / 7)
    for round_index in range(1, rounds_needed + 1):
        plan = compose_task(round_index, split, phase(1, 0), 7.0, 0.0, table, offsets=offsets)
        (p,) = plan.participants
        seen.update((p.shard_offset + k) % 23 for k in range(p.quota))
        offsets[inst] = (p.shard_offset + p.quota) % 23
    assert seen == set(range(23))


def _reference_compose_task(
    round_index, classification, schedule_entry, lam, margin_fraction, table, blacklist, rng_seed, offsets
):
    """The selection as first written: whole-cohort scans, kept as the oracle.
    With every primary blacklisted, the round takes its secondaries alone."""
    counts = dict(table.counts)
    if not classification.primary:
        raise EmptyCohortError(f"round {round_index}: the cohort has no primary institution")
    eligible_primary = [inst for inst in classification.primary if inst not in blacklist]
    participants = []
    for inst in eligible_primary[: schedule_entry.n_primary]:
        quota = primary_quota(lam, margin_fraction, counts[inst])
        offset = offsets.get(inst, 0) % counts[inst]
        participants.append(TaskParticipant(inst, "primary", quota, offset))
    eligible_secondary = [inst for inst in classification.secondary if inst not in blacklist]
    n_wanted = schedule_entry.n_secondary
    shortfall = len(eligible_secondary) < n_wanted
    n_take = min(n_wanted, len(eligible_secondary))
    if n_take:
        rng = np.random.default_rng([rng_seed, round_index])
        order = rng.permutation(len(classification.secondary))
        chosen = []
        for j in order:
            inst = classification.secondary[j]
            if inst not in blacklist:
                chosen.append(inst)
                if len(chosen) == n_take:
                    break
        for inst in sorted(chosen, key=lambda i: classification.secondary.index(i)):
            participants.append(TaskParticipant(inst, "secondary", counts[inst], 0))
    if not participants:
        raise EmptyCohortError(f"round {round_index}: no eligible institutions")
    return TaskPlan(tuple(participants), shortfall, len(eligible_primary) < schedule_entry.n_primary)


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.integers(1, 400), min_size=1, max_size=40),
    z=st.floats(-1.0, 2.0),
    n_primary=st.integers(0, 6),
    round_index=st.integers(1, 50),
    rng_seed=st.integers(0, 2**32 - 1),
    margin_fraction=st.floats(0.0, 0.9),
    offset_seed=st.integers(0, 1000),
    data=st.data(),
)
def test_compose_matches_the_whole_cohort_reference(
    counts, z, n_primary, round_index, rng_seed, margin_fraction, offset_seed, data
):
    table = table_from_counts(counts)
    model = fit_poisson(table)
    split = classify_nodes(table, model, z)
    # Blacklists may name secondaries, primaries and ids outside the cohort;
    # asking for up to two more secondaries than exist covers every shortfall.
    blacklist = frozenset(data.draw(st.sets(st.sampled_from([*table.counts, "not-in-the-cohort"]))))
    n_secondary = data.draw(st.integers(0, len(split.secondary) + 2))
    offsets = {inst: (offset_seed * (i + 3)) % 997 for i, inst in enumerate(split.primary)}
    args = (round_index, split, phase(n_primary, n_secondary), model.lam, margin_fraction, table)
    try:
        expected = _reference_compose_task(*args, blacklist, rng_seed, offsets)
    except EmptyCohortError as exc:
        with pytest.raises(EmptyCohortError, match=str(exc)):
            compose_task(*args, blacklist=blacklist, rng_seed=rng_seed, offsets=offsets)
        return
    assert compose_task(*args, blacklist=blacklist, rng_seed=rng_seed, offsets=offsets) == expected


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(1, 400), min_size=1, max_size=40),
    z=st.floats(-1.0, 2.0),
    round_index=st.integers(1, 50),
    rng_seed=st.integers(0, 2**32 - 1),
    offset_seed=st.integers(0, 1000),
    data=st.data(),
)
def test_compose_without_a_schedule_entry_takes_every_available_node(
    counts, z, round_index, rng_seed, offset_seed, data
):
    """`participation = all`: whatever the offsets, every node not blacklisted
    trains on its whole shard, primaries first, with no shortfall and no error
    when every primary is blacklisted."""
    table = table_from_counts(counts)
    model = fit_poisson(table)
    split = classify_nodes(table, model, z)
    blacklist = set(data.draw(st.sets(st.sampled_from([*table.counts, "not-in-the-cohort"]))))
    if data.draw(st.booleans()):
        blacklist |= set(split.primary)
    blacklist = frozenset(blacklist)
    offsets = {inst: (offset_seed * (i + 3)) % 997 for i, inst in enumerate(split.primary)}
    primaries = [TaskParticipant(i, "primary", table.counts[i], 0) for i in split.primary if i not in blacklist]
    secondaries = [TaskParticipant(i, "secondary", table.counts[i], 0) for i in split.secondary if i not in blacklist]
    expected = TaskPlan((*primaries, *secondaries), secondary_shortfall=False, primary_shortfall=False)
    plan = compose_task(
        round_index, split, None, model.lam, 0.1, table, blacklist=blacklist, rng_seed=rng_seed, offsets=offsets
    )
    assert plan == expected
