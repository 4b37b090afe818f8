import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, reject, settings
from hypothesis import strategies as st

from fedpod import engine, params
from fedpod.aggregation import AggregationStrategy
from fedpod.cohort import PARTITION_HEADER, PartitionTable, generate_synthetic_cohort, synthesize_shards
from fedpod.engine import (
    DEFAULT_SCHEDULE,
    _NODE_VAL_SALT,
    _SHARD_SALT,
    CohortSpec,
    ExperimentConfig,
    PartitionSource,
    PhaseEntry,
    TimingProfile,
    detect_stragglers,
    phase_for_round,
    round_time,
    run_experiment,
    sample_timings,
)
from fedpod.errors import EmptyCohortError, TrainingDivergenceError, ValidationError
from fedpod.params import ModelParams, TrainConfig, blob_geometry, make_blob_shard
from fedpod.selection import ROLE_PRIMARY, TaskParticipant, TaskPlan
from _helpers import stored_shards
from _oracle import plan_reference, reference_cohort, run_reference, train_local, val_size

from dataclasses import replace


def fast_timing(**kwargs):
    defaults = dict(timeout_factor=None, model_bytes=4e5, per_sample_val_s=0.001, jitter_sigma=0.05)
    defaults.update(kwargs)
    return TimingProfile(**defaults)


def small_config(**kwargs):
    defaults = dict(
        seed=5,
        cohort=CohortSpec(n_institutions=8, mean_samples=12.0, n_outliers=2, outlier_scale=8.0),
        max_rounds=4,
        timing=fast_timing(),
        batch_size=8,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------- schedule


def test_default_schedule_shape():
    assert [(e.first_round, e.last_round) for e in DEFAULT_SCHEDULE] == [
        (1, 5),
        (6, 10),
        (11, 15),
        (16, None),
    ]
    assert [e.n_nodes for e in DEFAULT_SCHEDULE] == [6, 8, 10, 12]
    assert [e.n_primary for e in DEFAULT_SCHEDULE] == [6, 6, 6, 6]
    assert [e.n_secondary for e in DEFAULT_SCHEDULE] == [0, 2, 4, 6]
    assert [e.epochs for e in DEFAULT_SCHEDULE] == [4, 4, 3, 3]
    assert all(e.learning_rate == 1e-3 for e in DEFAULT_SCHEDULE)


def test_phase_entry_validation():
    with pytest.raises(ValidationError):
        PhaseEntry(1, 5, 6, 5, 0, 1e-3, 4)
    with pytest.raises(ValidationError):
        PhaseEntry(5, 1, 6, 6, 0, 1e-3, 4)
    with pytest.raises(ValidationError):
        PhaseEntry(1, 5, 6, 6, 0, 1e-3, 0)


def test_phase_for_round_picks_covering_entry():
    assert phase_for_round(DEFAULT_SCHEDULE, 1) == (1, DEFAULT_SCHEDULE[0])
    assert phase_for_round(DEFAULT_SCHEDULE, 10) == (2, DEFAULT_SCHEDULE[1])
    assert phase_for_round(DEFAULT_SCHEDULE, 99) == (4, DEFAULT_SCHEDULE[3])


def test_config_rejects_gapped_schedule():
    with pytest.raises(ValidationError):
        ExperimentConfig(schedule=(PhaseEntry(1, 5, 6, 6, 0, 1e-3, 4),), max_rounds=10)
    with pytest.raises(ValidationError):
        ExperimentConfig(
            schedule=(PhaseEntry(1, 8, 6, 6, 0, 1e-3, 4), PhaseEntry(8, None, 6, 6, 0, 1e-3, 4)),
            max_rounds=10,
        )


@pytest.mark.parametrize("z", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_a_non_finite_z(z):
    # A NaN bound would put every institution in neither set.
    with pytest.raises(ValidationError) as caught:
        ExperimentConfig(z=z)
    assert str(caught.value) == "z must be finite"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name",
    [
        "per_sample_train_s",
        "per_sample_val_s",
        "model_bytes",
        "bandwidth_bps",
        "jitter_mu",
        "jitter_sigma",
        "timeout_factor",
        "inject_factor",
    ],
)
def test_timing_profile_rejects_a_non_finite_value(name, value):
    with pytest.raises(ValidationError) as caught:
        TimingProfile(**{name: value})
    assert str(caught.value) == f"{name} must be finite"


def test_only_task_participation_rejects_a_phase_of_no_nodes():
    schedule = (PhaseEntry(1, 2, 3, 3, 0, 1e-3, 1), PhaseEntry(3, None, 0, 0, 0, 1e-3, 1))
    with pytest.raises(ValidationError, match="^schedule phase 2 has n_nodes = 0"):
        ExperimentConfig(schedule=schedule, max_rounds=3)
    # A phase past the last round is never run, and `all` ignores the counts.
    assert ExperimentConfig(schedule=schedule, max_rounds=2).schedule == schedule
    assert ExperimentConfig(schedule=schedule, max_rounds=3, participation="all").schedule == schedule


def per_round_schedule_error(schedule, max_rounds, participation):
    """The first error of the schedule check as it ran before, round by
    round over every run round, or None."""
    for round_index in range(1, max_rounds + 1):
        covering = [entry for entry in schedule if entry.covers(round_index)]
        if len(covering) != 1:
            return f"schedule must cover round {round_index} exactly once, got {len(covering)} entries"
        if participation == "task" and covering[0].n_nodes == 0:
            return (
                f"schedule phase {schedule.index(covering[0]) + 1} has n_nodes = 0,"
                f" so participation = task trains nobody in round {round_index}"
            )
    return None


@st.composite
def schedules(draw):
    """0-4 phases laid out from round 1, each with a gap, an overlap or
    neither before it, closed or open-ended, of 0 or 2 nodes, in any order."""
    phases = []
    cursor = 1
    for _ in range(draw(st.integers(0, 4))):
        first = max(1, cursor + draw(st.integers(-3, 2)))
        last = draw(st.none() | st.integers(first, first + 12))
        nodes = draw(st.sampled_from([0, 2]))
        phases.append(PhaseEntry(first, last, nodes, nodes, 0, 1e-3, 1))
        cursor = (first + 6 if last is None else last) + 1
    return tuple(draw(st.permutations(phases)))


@settings(max_examples=400, deadline=None)
@given(schedules(), st.integers(0, 40), st.sampled_from(["task", "all"]))
def test_schedule_check_matches_the_per_round_loop(schedule, max_rounds, participation):
    want = per_round_schedule_error(schedule, max_rounds, participation)
    try:
        ExperimentConfig(schedule=schedule, max_rounds=max_rounds, participation=participation)
    except ValidationError as exc:
        assert str(exc) == want
    else:
        assert want is None


# ROADMAP item 17, group (c): a perf contract. A config checks its schedule
# only at the rounds where coverage can change, so building one costs the same
# at 10**6 rounds as at 20; round by round it took 1.1 s.
def test_schedule_check_cost_does_not_grow_with_max_rounds(monkeypatch):
    calls = []
    real_covers = PhaseEntry.covers

    def counting_covers(entry, round_index):
        calls.append(round_index)
        return real_covers(entry, round_index)

    monkeypatch.setattr(PhaseEntry, "covers", counting_covers)
    counts = []
    for max_rounds in (20, 10**6):
        calls.clear()
        ExperimentConfig(max_rounds=max_rounds)
        counts.append(len(calls))
    # Rounds 1, 6, 11 and 16, each against the 4 default entries.
    assert counts == [16, 16]


# ---------------------------------------------------------------- timings


def one_node_timings(quota, epochs, val_size, profile, rng, round_index=1):
    plan = TaskPlan((TaskParticipant("n0", ROLE_PRIMARY, quota, 0),))
    (row,) = sample_timings(plan, round_index, epochs, [val_size], profile, [rng]).tolist()
    return row


def test_zero_jitter_returns_base_costs():
    profile = TimingProfile(jitter_sigma=0.0, per_sample_train_s=0.01, per_sample_val_s=0.002)
    download_s, pre_val_s, train_s, post_val_s = one_node_timings(50, 4, 10, profile, np.random.default_rng(0))
    assert train_s == 50 * 4 * 0.01
    assert download_s == profile.model_bytes / profile.bandwidth_bps
    assert pre_val_s == post_val_s == 10 * 0.002


def test_doubling_quota_doubles_train_time():
    profile = TimingProfile(jitter_sigma=0.0)
    a = one_node_timings(30, 2, 10, profile, np.random.default_rng(0))
    b = one_node_timings(60, 2, 10, profile, np.random.default_rng(0))
    assert b[2] == 2 * a[2]


def test_same_seed_same_timings():
    profile = TimingProfile(jitter_sigma=0.3)
    a = one_node_timings(30, 2, 10, profile, np.random.default_rng(42))
    b = one_node_timings(30, 2, 10, profile, np.random.default_rng(42))
    assert a == b


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1), st.floats(-1.0, 1.0), st.floats(0.0, 2.0))
def test_timings_are_four_scalar_lognormal_draws(seed, mu, sigma):
    profile = TimingProfile(jitter_mu=mu, jitter_sigma=sigma)
    rng = np.random.default_rng(seed)
    jitter = [float(rng.lognormal(mu, sigma)) for _ in range(4)]
    expected = [
        profile.model_bytes / profile.bandwidth_bps * jitter[0],
        10 * profile.per_sample_val_s * jitter[1],
        30 * 2 * profile.per_sample_train_s * jitter[2],
        10 * profile.per_sample_val_s * jitter[3],
    ]
    after = rng.random()
    rng = np.random.default_rng(seed)
    assert one_node_timings(30, 2, 10, profile, rng) == expected
    # The draw leaves the stream where the four scalar draws left it.
    assert rng.random() == after


def test_an_injection_that_overflows_is_rejected():
    # 1e300 s of download is finite; injecting a factor of 1e10 is not.
    profile = TimingProfile(jitter_sigma=0.0, model_bytes=1e300, bandwidth_bps=1.0, inject_round=2, inject_factor=1e10)
    assert one_node_timings(30, 2, 10, profile, np.random.default_rng(0), round_index=1)[0] == 1e300
    with pytest.raises(ValidationError) as err:
        one_node_timings(30, 2, 10, profile, np.random.default_rng(0), round_index=2)
    assert str(err.value) == "timing components must be finite and non-negative"


def test_timing_inputs_are_checked():
    profile = TimingProfile()
    message = "^quota, epochs, val_size must be >= 1$"
    for quota, epochs, val_size in ((0, 2, 10), (5, 0, 10), (5, 2, 0)):
        plan = TaskPlan((TaskParticipant("n0", ROLE_PRIMARY, quota, 0),))
        with pytest.raises(ValidationError, match=message):
            sample_timings(plan, 1, epochs, [val_size], profile, [np.random.default_rng(0)])
    # One validation size and one generator per participant.
    with pytest.raises(ValueError, match="zip"):
        sample_timings(plan, 1, 2, [10, 10], profile, [np.random.default_rng(0)])
    with pytest.raises(ValidationError, match="^need at least one timing$"):
        detect_stragglers(np.empty((0, 4)), 2.0)
    with pytest.raises(ValidationError, match="^timeout_factor must be > 1$"):
        detect_stragglers(np.ones((2, 4)), 1.0)
    with pytest.raises(ValidationError, match="^round_time needs at least one timing row$"):
        round_time(np.empty((0, 4)))


# ---------------------------------------------------------------- stragglers


def timing_rows(*rows):
    return np.array(rows, dtype=np.float64)


def test_equal_times_drop_nobody():
    assert detect_stragglers(np.ones((4, 4)), 2.0).tolist() == [False] * 4


def test_single_slow_node_is_dropped():
    times = timing_rows((2, 2, 3, 3), (2, 2, 3, 3), (2, 2, 3, 3), (25, 25, 25, 25))
    # totals {10, 10, 10, 100}: median 10, factor 2 keeps everything <= 20
    assert detect_stragglers(times, 2.0).tolist() == [False, False, False, True]


def test_single_node_survives():
    assert detect_stragglers(timing_rows((9, 9, 9, 9)), 1.5).tolist() == [False]


@settings(max_examples=100)
@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=9), st.floats(1.01, 5.0))
def test_never_drops_everyone(totals, factor):
    times = timing_rows(*((t / 4, t / 4, t / 4, t / 4) for t in totals))
    assert not detect_stragglers(times, factor).all()


# ---------------------------------------------------------------- round time


def test_round_time_single_node():
    assert round_time(timing_rows((1, 2, 3, 4))) == 10


def test_round_time_componentwise_max():
    assert round_time(timing_rows((1, 2, 3, 4), (4, 3, 2, 1))) == 4 + 3 + 3 + 4


def test_dropping_dominant_straggler_reduces_round_time():
    times = timing_rows((9, 9, 9, 9), (1, 2, 3, 4), (2, 1, 4, 3))
    assert round_time(times[1:]) < round_time(times)


# ---------------------------------------------------------------- run loop


def test_run_is_deterministic():
    cfg = small_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.records == b.records
    assert np.array_equal(a.final_model.values, b.final_model.values)
    assert a.summary == b.summary


def test_zero_rounds_changes_nothing():
    report = run_experiment(small_config(max_rounds=0))
    assert report.records == ()
    assert np.array_equal(report.final_model.values, np.zeros(36))
    assert report.summary.convergence_score == 0.0


def test_single_node_fedavg_equals_centralized_sgd():
    cohort = CohortSpec(n_institutions=1, mean_samples=40.0, n_outliers=0, outlier_scale=1.0)
    schedule = (PhaseEntry(1, None, 1, 1, 0, 1e-3, 4),)
    cfg = ExperimentConfig(
        seed=21,
        cohort=cohort,
        z=0.0,
        margin_fraction=0.0,
        strategy=AggregationStrategy("fedavg"),
        schedule=schedule,
        max_rounds=1,
        timing=fast_timing(),
        batch_size=16,
    )
    report = run_experiment(cfg)

    table, geometry = generate_synthetic_cohort(1, 40.0, 0, 1.0, seed=21)
    ((inst, count),) = table.counts.items()
    shard = make_blob_shard(count, geometry, np.random.default_rng([21, _SHARD_SALT, 0]))
    val = make_blob_shard(val_size(count), geometry, np.random.default_rng([21, _NODE_VAL_SALT, 0]))
    seed = int(np.random.SeedSequence([21, engine._TRAIN_SALT, 1, 0]).generate_state(1, np.uint64)[0])
    train_cfg = TrainConfig(epochs=4, learning_rate=1e-3, seed=seed, batch_size=16)
    update = train_local(ModelParams.zeros(36), shard, val, train_cfg, node_id=inst)
    assert np.array_equal(report.final_model.values, update.params[0])


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_summary_agrees_with_its_records(seed):
    config = small_config(
        seed=seed,
        participation="all",
        max_rounds=8,
        schedule=(PhaseEntry(1, None, 4, 2, 2, 0.5, 2),),
        timing=fast_timing(timeout_factor=1.5, jitter_sigma=0.4, inject_round=3, inject_factor=10.0),
    )
    report = run_experiment(config)
    records, summary = report.records, report.summary
    assert summary.convergence_score == records[-1].convergence_so_far
    # The score is the round-time-weighted mean of the running best Dice. The
    # engine keeps it as running sums, so a fresh sum agrees only to rounding.
    for n, record in enumerate(records, start=1):
        seen = records[:n]
        reference = sum(r.best_dice * r.round_time_s for r in seen) / sum(r.round_time_s for r in seen)
        assert record.convergence_so_far == pytest.approx(reference, rel=1e-12)
    assert summary.total_dropped == sum(len(record.dropped) for record in records)
    assert summary.fallback_rounds == sum(1 for record in records if record.fallbacks)
    assert summary.total_dropped >= 1  # the injected straggler at least


def test_injection_rank_must_name_a_participant():
    # Round 1 of the default run has 3 participants.
    with pytest.raises(ValidationError) as err:
        run_experiment(ExperimentConfig(max_rounds=1, timing=TimingProfile(inject_round=1, inject_rank=50)))
    assert str(err.value) == "timing.inject_rank 50 is outside the 3 participants of round 1"
    for rank in (3, -4):
        with pytest.raises(ValidationError, match=f"^timing.inject_rank {rank} is outside"):
            run_experiment(ExperimentConfig(max_rounds=1, timing=TimingProfile(inject_round=1, inject_rank=rank)))
    for rank in (2, -3):
        run_experiment(ExperimentConfig(max_rounds=1, timing=TimingProfile(inject_round=1, inject_rank=rank)))


# ROADMAP item 17, group (c): the tests that take this fixture pin the plan
# pass's contract, that a config fault in any round is raised before any round
# trains, so no SGD is spent on a run that cannot finish.
@pytest.fixture
def train_round_calls(monkeypatch):
    """A list that grows by one at each round the engine trains."""
    calls = []
    train = engine._train_checked
    monkeypatch.setattr(engine, "_train_checked", lambda *args: calls.append(1) or train(*args))
    return calls


def test_injection_rank_no_round_can_have_is_refused_before_training(train_round_calls):
    calls = train_round_calls
    # 2 primaries and 6 secondaries: round 2 has min(3, 2) + min(1, 6), as
    # no round drops anyone.
    task = small_config(schedule=(PhaseEntry(1, None, 4, 3, 1, 1e-3, 1),), max_rounds=3)
    # `all` trains every one of the 8 institutions.
    every = small_config(participation="all", max_rounds=3)
    for config, bound in ((task, 3), (every, 8)):
        for rank in (bound, -bound - 1, 50):
            with pytest.raises(ValidationError) as err:
                run_experiment(replace(config, timing=replace(config.timing, inject_round=2, inject_rank=rank)))
            assert str(err.value) == f"timing.inject_rank {rank} is outside the {bound} participants of round 2"
            assert calls == []
        for rank in (bound - 1, -bound):
            run_experiment(replace(config, timing=replace(config.timing, inject_round=2, inject_rank=rank)))
        calls.clear()
    # An injection round past max_rounds never fires, so its rank is not
    # checked, nor is one past the round where the time cap stops the run.
    run_experiment(replace(task, max_rounds=1, timing=replace(task.timing, inject_round=2, inject_rank=50)))
    assert len(calls) == 1
    capped = replace(task, max_simulated_time_s=1e-9, timing=replace(task.timing, inject_round=2, inject_rank=50))
    assert run_experiment(capped).summary.rounds_run == 1


def test_injection_rank_the_blacklist_pushes_out_is_a_mid_run_error(train_round_calls):
    calls = train_round_calls
    # Round 1 drops the two outliers, so round 2 has 6 of the 8 institutions.
    # The plan pass finds that before round 1 trains.
    config = small_config(participation="all", max_rounds=3, timing=fast_timing(timeout_factor=3.0))
    assert run_experiment(config).records[0].dropped == ("inst006", "inst007")
    calls.clear()
    with pytest.raises(ValidationError) as err:
        run_experiment(replace(config, timing=replace(config.timing, inject_round=2, inject_rank=7)))
    assert str(err.value) == "timing.inject_rank 7 is outside the 6 participants of round 2"
    assert calls == []


def test_a_planned_fault_wins_over_an_earlier_divergence(train_round_calls):
    calls = train_round_calls
    # A learning rate of 1e308 overflows the first round's gradient.
    config = small_config(schedule=(PhaseEntry(1, None, 4, 3, 1, 1e308, 1),), max_rounds=3)
    with pytest.raises(TrainingDivergenceError, match="^training diverged on node "):
        run_experiment(config)
    assert len(calls) == 1
    calls.clear()
    # Round 3 has 3 participants, so rank 50 is a fault the plan finds first.
    with pytest.raises(ValidationError) as err:
        run_experiment(replace(config, timing=replace(config.timing, inject_round=3, inject_rank=50)))
    assert str(err.value) == "timing.inject_rank 50 is outside the 3 participants of round 3"
    assert calls == []


def test_a_round_of_no_simulated_time_is_refused_before_training(train_round_calls):
    # Every log-normal factor underflows to 0.0, so every round would take no
    # time and the convergence score would divide by a cumulative time of 0.
    config = small_config(max_rounds=2, timing=fast_timing(jitter_mu=-1000.0))
    with pytest.raises(ValidationError) as err:
        run_experiment(config)
    assert str(err.value) == "round 1 has a simulated time of 0.0, not a positive one"
    assert train_round_calls == []
    with pytest.raises(ValidationError, match=f"^{re.escape(str(err.value))}$"):
        plan_reference(config)


def test_a_run_whose_cumulative_time_overflows_is_refused_before_training(train_round_calls):
    # Each round's time is finite, but with no cap on simulated time their
    # sum passes the largest float in round 15, where the total would become
    # inf and the score 0.
    config = small_config(
        max_rounds=20, max_simulated_time_s=float("inf"), timing=fast_timing(per_sample_train_s=1e305)
    )
    with pytest.raises(ValidationError) as err:
        run_experiment(config)
    assert str(err.value) == "round 15 brings the cumulative simulated time to inf"
    assert train_round_calls == []
    with pytest.raises(ValidationError, match=f"^{re.escape(str(err.value))}$"):
        plan_reference(config)
    # One round fewer keeps a finite total, and the run is its reference's.
    shorter = replace(config, max_rounds=14)
    assert run_experiment(shorter).records == run_reference(shorter)[0]


def test_a_fault_in_a_late_rounds_job_rows_is_refused_before_round_1_trains(train_round_calls, monkeypatch):
    # The default schedule trains the primaries alone for five rounds and adds
    # secondaries from round 6. A secondary's job with no validation rows is
    # refused, and the run's one job table is checked before any round trains.
    config = small_config(max_rounds=6)
    records = run_experiment(config).records
    late = next(inst for inst in records[5].participants if inst not in records[4].participants)
    assert not any(late in r.participants for r in records[:5]) and records[5].dropped == ()
    build_store = engine._build_store

    def without_late_validation_rows(seed, table, geometry, node_index, insts):
        store, layout = build_store(seed, table, geometry, node_index, insts)
        layout[3, insts.index(late)] = 0
        return store, layout

    monkeypatch.setattr(engine, "_build_store", without_late_validation_rows)
    train_round_calls.clear()
    with pytest.raises(ValidationError) as err:
        run_experiment(config)
    assert str(err.value) == f"job {late!r}: its rows are not all inside the store"
    assert train_round_calls == []


# A perf contract: a run checks its one table of jobs once, not once a round.
def test_a_run_checks_its_jobs_once(monkeypatch):
    calls = []
    check = params._check_round
    for module in (engine, params):
        monkeypatch.setattr(module, "_check_round", lambda *args: calls.append(1) or check(*args))
    assert run_experiment(small_config(max_rounds=4)).summary.rounds_run == 4
    assert len(calls) == 1


def test_a_record_counts_its_negative_weights():
    record = run_experiment(small_config(max_rounds=1)).records[0]
    assert record.negative_weights == 0
    assert replace(record, weights=(("a", 7.1), ("b", 7.1), ("c", -13.2))).negative_weights == 1


def test_best_dice_is_running_max():
    report = run_experiment(small_config(max_rounds=6, schedule=(PhaseEntry(1, None, 2, 2, 0, 1e-3, 2),)))
    best = 0.0
    for record in report.records:
        best = max(best, record.mean_dice)
        assert record.best_dice == best


def test_time_cap_stops_the_loop():
    cfg = small_config(max_rounds=50, schedule=(PhaseEntry(1, None, 2, 2, 0, 1e-3, 2),), max_simulated_time_s=3.0)
    report = run_experiment(cfg)
    assert report.summary.rounds_run < 50
    assert report.summary.total_time_s >= 3.0
    # never exceeds the cap by more than the final round's duration
    assert report.summary.total_time_s - report.records[-1].round_time_s < 3.0


PLAN_FIELDS = (
    "participants",
    "dropped",
    "phase",
    "epochs",
    "secondary_shortfall",
    "primary_shortfall",
    "round_time_s",
    "cumulative_time_s",
)


def test_round_times_do_not_depend_on_strategy():
    # The plan never reads the model: in either participation mode every
    # strategy gets the same rounds. Round 3's injected straggler is dropped.
    timing = fast_timing(timeout_factor=3.0, jitter_sigma=0.3, inject_round=3, inject_rank=-1, inject_factor=50.0)
    schedule = (PhaseEntry(1, 2, 4, 2, 2, 1e-3, 2), PhaseEntry(3, None, 6, 2, 4, 1e-3, 1))
    for participation in ("task", "all"):
        base = small_config(max_rounds=6, participation=participation, timing=timing, schedule=schedule)
        plans = []
        for kind in ("fedavg", "fedpidavg", "fedpod"):
            records = run_experiment(replace(base, strategy=AggregationStrategy(kind))).records
            plans.append([tuple(getattr(record, name) for name in PLAN_FIELDS) for record in records])
        assert plans[0] == plans[1] == plans[2]
        assert len(plans[0]) == 6 and plans[0][2][1]


STRATEGY_RUNS = [(kind, mode) for kind in ("fedavg", "fedpidavg", "fedpod") for mode in ("task", "all")]


@pytest.mark.parametrize("kind, participation", STRATEGY_RUNS)
def test_timing_profile_moves_no_weight_dice_or_model_byte(kind, participation):
    """Timings draw from their own streams. With no straggler drop and the
    time cap unreached, another profile (jitter, per-sample cost, an
    injection) changes round times and nothing the merge reads."""
    base = small_config(strategy=AggregationStrategy(kind), participation=participation, max_rounds=8)
    timing = fast_timing(jitter_mu=0.3, jitter_sigma=0.6, per_sample_train_s=0.05, inject_round=2, inject_factor=50.0)
    other = replace(base, timing=timing)
    first, second = run_experiment(base), run_experiment(other)
    assert len(first.records) == len(second.records) == base.max_rounds
    assert [r.round_time_s for r in first.records] != [r.round_time_s for r in second.records]
    assert [(r.weights, r.dice_per_class) for r in first.records] == [
        (r.weights, r.dice_per_class) for r in second.records
    ]
    assert first.final_model.values.tobytes() == second.final_model.values.tobytes()


@pytest.mark.parametrize("kind, participation", STRATEGY_RUNS)
def test_holdout_fraction_moves_no_weight_drop_or_model_byte(kind, participation):
    """The holdout draws from its own stream and only scores the model, so
    its size changes Dice and nothing that trains, times, drops or merges."""
    timing = fast_timing(timeout_factor=2.0, jitter_sigma=0.4, inject_round=3, inject_factor=10.0)
    base = small_config(strategy=AggregationStrategy(kind), participation=participation, max_rounds=8, timing=timing)
    first, second = run_experiment(base), run_experiment(replace(base, holdout_fraction=0.55))
    assert any(r.dropped for r in first.records)
    assert [r.dice_per_class for r in first.records] != [r.dice_per_class for r in second.records]
    assert [(r.weights, r.dropped) for r in first.records] == [(r.weights, r.dropped) for r in second.records]
    assert first.final_model.values.tobytes() == second.final_model.values.tobytes()


def test_straggler_blacklist_lasts_one_round():
    cfg = small_config(
        max_rounds=4,
        timing=fast_timing(timeout_factor=3.0, inject_round=2, inject_rank=-1, inject_factor=10.0),
        schedule=(PhaseEntry(1, None, 2, 2, 0, 1e-3, 2),),
    )
    report = run_experiment(cfg)
    (victim,) = report.records[1].dropped
    assert victim in report.records[1].participants
    assert victim not in report.records[2].participants
    assert victim in report.records[3].participants
    # the dropped node's update is excluded from the merge
    assert victim not in [node for node, _ in report.records[1].weights]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    institutions=st.integers(3, 11),
    sigma=st.floats(0.0, 1.0),
    timeout_factor=st.floats(1.1, 4.0),
    inject_round=st.integers(1, 5),
    inject_rank=st.sampled_from([0, -1]),
    inject_factor=st.floats(1.0, 50.0),
)
def test_straggler_drops_follow_the_timings_and_sit_out_one_round(
    seed, institutions, sigma, timeout_factor, inject_round, inject_rank, inject_factor
):
    """North-star aim 3's straggler invariants, on runs with an injected
    straggler: a round never drops everyone, and a dropped node sits out
    exactly the next round. Which rows the timings drop, and the time of the
    rest, are the plan oracle's to check."""
    timing = fast_timing(
        jitter_sigma=sigma,
        timeout_factor=timeout_factor,
        inject_round=inject_round,
        inject_rank=inject_rank,
        inject_factor=inject_factor,
    )
    config = small_config(
        seed=seed,
        cohort=CohortSpec(n_institutions=institutions, mean_samples=12.0, n_outliers=1, outlier_scale=4.0),
        participation="all",
        max_rounds=5,
        schedule=(PhaseEntry(1, None, 2, 2, 0, 1e-3, 1),),
        timing=timing,
    )
    records = run_experiment(config).records
    assert len(records) == 5
    for record in records:
        assert set(record.dropped) <= set(record.participants)
        assert any(node not in record.dropped for node in record.participants)
    for r, record in enumerate(records):
        for node in record.dropped:
            if r + 1 < len(records):
                assert node not in records[r + 1].participants
            if r + 2 < len(records):
                assert node in records[r + 2].participants


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    participation=st.sampled_from(["task", "all"]),
    kind=st.sampled_from(["fedavg", "fedpidavg", "fedpod"]),
    institutions=st.integers(3, 10),
    outliers=st.integers(0, 2),
    outlier_scale=st.floats(2.0, 10.0),
    timeout_factor=st.floats(1.2, 4.0),
    sigma=st.floats(0.0, 0.3),
    inject_round=st.integers(1, 4),
    inject_rank=st.sampled_from([0, -1]),
)
def test_only_the_round_survivors_train(
    seed, participation, kind, institutions, outliers, outlier_scale, timeout_factor, sigma, inject_round, inject_rank
):
    """A job for a participant its round drops never reaches the engine's
    training call: one that diverges on any such job leaves the run as it was,
    and each round trains its participants minus its dropped, in plan order.
    ROADMAP item 17, group (c): it reads the engine's calls, as it pins a perf
    contract, that a dropped straggler is never trained."""
    config = small_config(
        seed=seed,
        cohort=CohortSpec(
            n_institutions=institutions, mean_samples=12.0, n_outliers=outliers, outlier_scale=outlier_scale
        ),
        participation=participation,
        strategy=AggregationStrategy(kind),
        schedule=(PhaseEntry(1, None, 4, 2, 2, 1e-3, 1),),
        timing=fast_timing(
            timeout_factor=timeout_factor,
            jitter_sigma=sigma,
            inject_round=inject_round,
            inject_rank=inject_rank,
            inject_factor=1000.0,
        ),
    )
    try:
        report = run_experiment(config)
    except EmptyCohortError:
        reject()  # participation = task with no primary plans no round
    records = report.records
    # The injected straggler is dropped whenever it has a partner to lag.
    injected = records[inject_round - 1]
    assert injected.dropped or len(injected.participants) == 1
    trained = []
    real_train = engine._train_checked

    def diverging_on_the_dropped(model, store, jobs, *args):
        record = records[len(trained)]
        trained.append(list(jobs.node_ids))
        for node_id in jobs.node_ids:
            if node_id in record.dropped:
                raise TrainingDivergenceError(node_id, "trained after its round dropped it")
        return real_train(model, store, jobs, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_train_checked", diverging_on_the_dropped)
        wrapped = run_experiment(config)
    assert wrapped.records == records
    assert wrapped.final_model.values.tobytes() == report.final_model.values.tobytes()
    assert trained == [[node for node in r.participants if node not in r.dropped] for r in records]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
    participation=st.sampled_from(["task", "all"]),
    institutions=st.integers(2, 12),
    outliers=st.integers(0, 1),
    sigma=st.floats(0.0, 0.8),
    timeout_factor=st.one_of(st.none(), st.floats(1.1, 4.0)),
    inject_round=st.one_of(st.none(), st.integers(1, 3)),
    inject_rank=st.integers(-3, 2),
    cap=st.floats(0.05, 4.0),
)
# Seeds at the word edges of the training and timing keys, with every node
# timed and an injected straggler that drops no one.
@example(
    seed=2**32 - 1, participation="all", institutions=8, outliers=2, sigma=0.3, timeout_factor=None, inject_round=2,
    inject_rank=0, cap=4.0,
)
@example(
    seed=2**40 + 3, participation="all", institutions=8, outliers=2, sigma=0.3, timeout_factor=None, inject_round=2,
    inject_rank=0, cap=4.0,
)
def test_the_plan_equals_its_scalar_reference(
    seed, participation, institutions, outliers, sigma, timeout_factor, inject_round, inject_rank, cap
):
    """Participants, drops and round times, each drawn from numpy's own
    per-node streams by `_oracle.plan_reference`, equal the run's records:
    one- and two-word seeds, injection ranks from either end, and a time
    cap that often stops the run before max_rounds."""
    config = small_config(
        seed=seed,
        cohort=CohortSpec(n_institutions=institutions, mean_samples=12.0, n_outliers=outliers, outlier_scale=8.0),
        z=0.5,
        participation=participation,
        schedule=(PhaseEntry(1, 2, 3, 2, 1, 1e-3, 1), PhaseEntry(3, None, 4, 2, 2, 1e-3, 2)),
        max_rounds=6,
        max_simulated_time_s=cap,
        timing=fast_timing(
            timeout_factor=timeout_factor,
            jitter_sigma=sigma,
            inject_round=inject_round,
            inject_rank=inject_rank,
            inject_factor=50.0,
        ),
    )
    try:
        expected = plan_reference(config)
    except (EmptyCohortError, ValidationError) as err:
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            run_experiment(config)
        return
    records = run_experiment(config).records
    got = [(r.participants, r.dropped, r.round_time_s, r.cumulative_time_s) for r in records]
    assert got == [(plan.node_ids(), *times) for _, _, plan, *times in expected]


def whole_run_config(directory, csv_counts, institutions, outliers, kind, history_window, learning_rate, cap, **timing):
    """A small run for the whole-run reference: a partition CSV of
    `csv_counts` written into `directory`, listed in reverse id order so
    table positions and node indices differ, or else a synthetic cohort,
    and two phases whose primaries train on rotating quota windows."""
    cohort = CohortSpec(n_institutions=institutions, mean_samples=12.0, n_outliers=outliers, outlier_scale=8.0)
    if csv_counts is not None:
        path = Path(directory) / "part.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(PARTITION_HEADER)
            for i, count in reversed(list(enumerate(csv_counts))):
                writer.writerows([f"s{i}-{k}", f"p{i:02d}"] for k in range(count))
        cohort = PartitionSource(str(path))
    return small_config(
        cohort=cohort,
        z=0.5,
        strategy=AggregationStrategy(kind, history_window=history_window),
        schedule=(PhaseEntry(1, 2, 3, 2, 1, learning_rate, 1), PhaseEntry(3, None, 4, 2, 2, learning_rate, 2)),
        max_rounds=5,
        max_simulated_time_s=cap,
        timing=fast_timing(inject_factor=50.0, **timing),
    )


# Runs the property always draws: a CSV cohort under a two-word seed whose
# 40-sample primary trains on a wrapping window, with an injected straggler
# and a cap that binds; and a synthetic cohort whose outliers wrap theirs.
WHOLE_RUN_EXAMPLES = (
    dict(
        seed=2**40 + 7, participation="task", kind="fedpidavg", csv_counts=[40, 12, 10, 15, 8, 11, 9], institutions=2,
        outliers=0, timeout_factor=1.5, jitter_sigma=0.4, inject_round=2, inject_rank=-1, cap=1.0, learning_rate=0.05,
        history_window=3,
    ),
    dict(
        seed=11, participation="task", kind="fedpod", csv_counts=None, institutions=8, outliers=2,
        timeout_factor=2.0, jitter_sigma=0.3, inject_round=None, inject_rank=0, cap=100.0, learning_rate=0.05,
        history_window=6,
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
    participation=st.sampled_from(["task", "all"]),
    kind=st.sampled_from(["fedavg", "fedpidavg", "fedpod"]),
    csv_counts=st.one_of(st.none(), st.lists(st.integers(1, 100), min_size=2, max_size=8)),
    institutions=st.integers(3, 8),
    outliers=st.integers(0, 2),
    timeout_factor=st.one_of(st.none(), st.floats(1.1, 3.0)),
    jitter_sigma=st.floats(0.0, 0.8),
    inject_round=st.one_of(st.none(), st.integers(1, 4)),
    inject_rank=st.integers(-2, 1),
    cap=st.floats(0.5, 8.0),
    learning_rate=st.sampled_from([1e-3, 0.05]),
    history_window=st.integers(1, 4),
)
@example(**WHOLE_RUN_EXAMPLES[0])
@example(**WHOLE_RUN_EXAMPLES[1])
def test_the_run_equals_its_whole_run_scalar_reference(seed, participation, **kwargs):
    """Records, summary and final model equal `_oracle.run_reference`'s bit
    for bit: every shard, training seed and timing drawn from numpy's own
    per-node streams, every survivor trained alone on its window, weighed
    and merged over scalars. A run the reference refuses raises the same."""
    with tempfile.TemporaryDirectory() as directory:
        config = replace(whole_run_config(directory, **kwargs), seed=seed, participation=participation)
        try:
            expected = run_reference(config)
        except (EmptyCohortError, ValidationError, TrainingDivergenceError) as err:
            event(f"refused: {type(err).__name__}")
            with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                run_experiment(config)
            return
        report = run_experiment(config)
    records, summary, model = expected
    event(f"{len(records)} rounds")
    assert report.records == records and repr(report.records) == repr(records)
    assert report.summary == summary and repr(report.summary) == repr(summary)
    assert report.final_model.values.tobytes() == model.values.tobytes()


def test_the_whole_run_examples_wrap_windows_drop_stragglers_and_stop_at_the_cap():
    # What the property's fixed examples are there to cover.
    with tempfile.TemporaryDirectory() as directory:
        configs = []
        for kwargs in WHOLE_RUN_EXAMPLES:
            kwargs = dict(kwargs)
            seed, participation = kwargs.pop("seed"), kwargs.pop("participation")
            configs.append(replace(whole_run_config(directory, **kwargs), seed=seed, participation=participation))
        plans = [plan_reference(config) for config in configs]
        counts = [reference_cohort(config)[0].counts for config in configs]
    for rounds, count in zip(plans, counts):
        trained = [p for _, _, plan, out, *_ in rounds for p in plan.participants if p.institution_id not in out]
        assert any(p.shard_offset + p.quota > count[p.institution_id] for p in trained)
    csv_run = plans[0]
    assert configs[0].seed >= 2**32 and isinstance(configs[0].cohort, PartitionSource)
    assert len(csv_run) < configs[0].max_rounds
    _, _, plan, dropped, *_ = csv_run[1]
    assert sorted(plan.node_ids())[-1] in dropped


def prefix_config(seed, participation, kind, inject_round, cap):
    """A small two-phase run whose straggler, the last participant of
    `inject_round` in id order, is slowed 50-fold, under a simulated-time cap."""
    return small_config(
        seed=seed,
        z=0.5,
        participation=participation,
        strategy=AggregationStrategy(kind, history_window=2),
        schedule=(PhaseEntry(1, 2, 3, 2, 1, 0.05, 1), PhaseEntry(3, None, 4, 2, 2, 0.05, 2)),
        max_simulated_time_s=cap,
        timing=fast_timing(
            timeout_factor=2.0, jitter_sigma=0.3, inject_round=inject_round, inject_rank=-1, inject_factor=50.0
        ),
    )


# Runs the prefix property always draws: a straggler injected inside the
# shorter run, one injected after it, and a cap that stops both runs early.
PREFIX_EXAMPLES = (
    dict(seed=3, participation="task", kind="fedpod", rounds=3, extra=2, inject_round=2, cap=8.0),
    dict(seed=2**40 + 5, participation="all", kind="fedpidavg", rounds=2, extra=3, inject_round=4, cap=8.0),
    dict(seed=9, participation="all", kind="fedpod", rounds=3, extra=1, inject_round=1, cap=0.3),
)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
    participation=st.sampled_from(["task", "all"]),
    kind=st.sampled_from(["fedpod", "fedpidavg"]),
    rounds=st.integers(1, 4),
    extra=st.integers(1, 3),
    inject_round=st.integers(1, 7),
    cap=st.floats(0.2, 8.0),
)
@example(**PREFIX_EXAMPLES[0])
@example(**PREFIX_EXAMPLES[1])
@example(**PREFIX_EXAMPLES[2])
def test_a_shorter_run_is_a_prefix_of_a_longer_one(seed, participation, rounds, extra, **kwargs):
    """A run of `rounds` rounds gives exactly the first records of the same
    config run for `rounds + extra`, with the injected straggler before or
    after the shorter run's end and a time cap that may stop either run; when
    the cap stops both at one round, the final models are equal too. Every
    round's job streams are hashed in one pass for the whole run, and this
    pins that a round's streams do not depend on how many rounds the plan
    holds."""
    config = prefix_config(seed, participation, **kwargs)
    try:
        longer = run_experiment(replace(config, max_rounds=rounds + extra))
    except EmptyCohortError:
        reject()  # participation = task with no primary plans no round
    shorter = run_experiment(replace(config, max_rounds=rounds))
    n = len(shorter.records)
    event(f"injected {'inside' if kwargs['inject_round'] <= n else 'after'} the shorter run")
    capped = "both runs" if n < rounds else "the longer run" if len(longer.records) < rounds + extra else "no run"
    event(f"the cap stops {capped}")
    assert n == min(rounds, len(longer.records))
    assert shorter.records == longer.records[:n] and repr(shorter.records) == repr(longer.records[:n])
    if n == len(longer.records):
        assert shorter.final_model.values.tobytes() == longer.final_model.values.tobytes()


def test_the_prefix_examples_inject_inside_and_after_the_shorter_run_and_stop_at_the_cap():
    # What the prefix property's fixed examples are there to cover.
    runs = []
    for kwargs in PREFIX_EXAMPLES:
        kwargs = dict(kwargs)
        rounds, extra = kwargs.pop("rounds"), kwargs.pop("extra")
        records = run_experiment(replace(prefix_config(**kwargs), max_rounds=rounds + extra)).records
        runs.append((rounds, kwargs["inject_round"], records))
    inside, after, capped = runs
    rounds, inject_round, records = inside
    assert inject_round <= rounds and records[inject_round - 1].dropped
    rounds, inject_round, records = after
    assert rounds < inject_round <= len(records) and records[inject_round - 1].dropped
    rounds, _, records = capped
    assert len(records) < rounds


def test_default_run_records_its_primary_shortfall():
    # The default schedule asks for 6 primaries; the default cohort has 3.
    report = run_experiment(ExperimentConfig())
    assert report.summary.n_primary == 3
    assert report.records and all(record.primary_shortfall for record in report.records)


def test_schedule_within_the_primaries_records_no_shortfall():
    # Two of the three primaries are asked for, so a dropped primary still
    # leaves enough.
    schedule = (PhaseEntry(1, None, 4, 2, 2, 1e-3, 1),)
    report = run_experiment(ExperimentConfig(schedule=schedule, max_rounds=6))
    assert report.summary.n_primary == 3
    assert not any(record.primary_shortfall for record in report.records)


def test_a_round_whose_primaries_all_sit_out_trains_its_secondaries():
    # Round 6 drops both primaries, so round 7 has no eligible primary: it
    # trains secondaries alone, and the run goes on.
    config = small_config(max_rounds=8, timing=fast_timing(timeout_factor=1.5, jitter_sigma=0.4))
    report = run_experiment(config)
    assert len(report.records) == 8
    primaries = {"inst006", "inst007"}
    assert report.summary.n_primary == 2 and set(report.records[5].dropped) == primaries
    seventh = report.records[6]
    assert seventh.participants and not primaries & set(seventh.participants)
    assert seventh.primary_shortfall
    assert primaries <= set(report.records[7].participants)


def test_participation_all_includes_every_institution():
    cfg = small_config(participation="all", max_rounds=2)
    report = run_experiment(cfg)
    assert len(report.records[0].participants) == 8


def test_weights_are_recorded_per_survivor():
    report = run_experiment(small_config(max_rounds=2))
    for record in report.records:
        nodes = [node for node, _ in record.weights]
        assert sorted(nodes) == sorted(set(record.participants) - set(record.dropped))
        assert sum(w for _, w in record.weights) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("timeout_factor, jitter_sigma", [(None, 0.05), (1.5, 0.4)])
def test_weights_list_the_survivors_in_participant_order(timeout_factor, jitter_sigma):
    # `aggregate` sums in node-id order, so the engine keeps the plan's order.
    timing = fast_timing(timeout_factor=timeout_factor, jitter_sigma=jitter_sigma)
    records = run_experiment(small_config(max_rounds=8, timing=timing)).records
    assert any(list(record.participants) != sorted(record.participants) for record in records)
    for record in records:
        survivors = [node for node in record.participants if node not in record.dropped]
        assert [node for node, _ in record.weights] == survivors


# ROADMAP item 17, group (c): a perf contract. A cohort where few
# institutions take part synthesizes only their rows, in one
# `make_blob_shards` call beside the holdout's one `make_blob_shard` call.
# Which stream draws which rows is the whole-run oracle's to check.
def test_only_participants_get_shards(monkeypatch):
    config = small_config(
        cohort=CohortSpec(n_institutions=40, mean_samples=10.0, n_outliers=3, outlier_scale=8.0),
        schedule=(PhaseEntry(1, None, 4, 2, 2, 1e-3, 1),),
        max_rounds=3,
    )
    batches, lone = [], []
    batch_call, lone_call = engine.make_blob_shards, engine.make_blob_shard
    monkeypatch.setattr(engine, "make_blob_shards", lambda sizes, *a: batches.append(sizes) or batch_call(sizes, *a))
    monkeypatch.setattr(engine, "make_blob_shard", lambda n, *a: lone.append(n) or lone_call(n, *a))
    report = run_experiment(config)
    table, _ = reference_cohort(config)
    counts = sorted(table.counts[inst] for inst in {inst for r in report.records for inst in r.participants})
    assert len(counts) < 40
    (sizes,) = batches
    assert sorted(sizes[: len(counts)]) == counts
    assert sorted(sizes[len(counts) :]) == sorted(val_size(count) for count in counts)
    assert lone == [max(32, round(config.holdout_fraction * table.total))]


@st.composite
def stored_cohorts(draw):
    """A seed of one or two words, a table and its geometry, and any of its
    institutions in any order. The table is a synthetic cohort, or one listed
    as a partition CSV may list it, in reverse id order, so that a table
    position and a node index differ; some counts pass the validation size's
    bounds."""
    seed = draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)))
    n = draw(st.integers(1, 14))
    if draw(st.booleans()):
        table, geometry = generate_synthetic_cohort(n, draw(st.sampled_from([6.0, 60.0])), 0, 1.0, seed=seed)
    else:
        counts = draw(st.lists(st.integers(1, 25) | st.integers(26, 400), min_size=n, max_size=n))
        table = PartitionTable({f"p{i:02d}": count for i, count in reversed(list(enumerate(counts)))})
        geometry = synthesize_shards(table, seed)
    return seed, table, geometry, draw(st.lists(st.sampled_from(list(table.counts)), min_size=1, unique=True))


@settings(max_examples=60, deadline=None)
@given(stored_cohorts())
def test_round_batch_builds_each_shard_from_its_own_stream(drawn):
    """The store holds each institution's training rows as `make_blob_shard`
    of its count on `default_rng([seed, _SHARD_SALT, table position])`, and
    its validation rows as that of its validation size on
    `default_rng([seed, _NODE_VAL_SALT, node index])`, both against
    `blob_geometry(4, 8, seed)`, built here, not taken from the cohort: any
    subset of the table, stored in any order, gets the shards an eager pass
    over the whole table would build."""
    seed, table, geometry, insts = drawn
    position = {inst: i for i, inst in enumerate(table.counts)}
    node_index = {inst: i for i, inst in enumerate(sorted(table.counts))}
    train, val = stored_shards(seed, table, geometry, insts)
    for inst in insts:
        count = table.counts[inst]
        for stored, salt, index, size in (
            (train, _SHARD_SALT, position, count),
            (val, _NODE_VAL_SALT, node_index, val_size(count)),
        ):
            want = make_blob_shard(size, blob_geometry(4, 8, seed), np.random.default_rng([seed, salt, index[inst]]))
            assert stored[inst].labels.tobytes() == want.labels.tobytes()
            assert stored[inst].features.tobytes() == want.features.tobytes()
