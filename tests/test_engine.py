import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpod import cohort, engine
from fedpod.aggregation import AggregationStrategy
from fedpod.cohort import generate_synthetic_cohort
from fedpod.engine import (
    DEFAULT_SCHEDULE,
    _NODE_VAL_SALT,
    _val_size,
    CohortSpec,
    ExperimentConfig,
    PhaseEntry,
    RoundRecord,
    TimingProfile,
    TimingSample,
    convergence_score,
    detect_stragglers,
    phase_for_round,
    round_time,
    run_experiment,
    sample_timings,
    train_seed,
)
from fedpod.errors import ValidationError
from fedpod.params import ModelParams, TrainConfig, blob_geometry, make_blob_shard, train_local

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


def test_only_task_participation_rejects_a_phase_of_no_nodes():
    schedule = (PhaseEntry(1, 2, 3, 3, 0, 1e-3, 1), PhaseEntry(3, None, 0, 0, 0, 1e-3, 1))
    with pytest.raises(ValidationError, match="^schedule phase 2 has n_nodes = 0"):
        ExperimentConfig(schedule=schedule, max_rounds=3)
    # A phase past the last round is never run, and `all` ignores the counts.
    assert ExperimentConfig(schedule=schedule, max_rounds=2).schedule == schedule
    assert ExperimentConfig(schedule=schedule, max_rounds=3, participation="all").schedule == schedule


def test_config_rejects_a_cohort_beside_a_partition_csv():
    assert ExperimentConfig(partition_csv="x.csv").cohort == CohortSpec()
    with pytest.raises(ValidationError, match="partition CSV"):
        ExperimentConfig(partition_csv="x.csv", cohort=CohortSpec(n_institutions=5))


# ---------------------------------------------------------------- timings


def test_zero_jitter_returns_base_costs():
    profile = TimingProfile(jitter_sigma=0.0, per_sample_train_s=0.01, per_sample_val_s=0.002)
    sample = sample_timings(50, 4, 10, profile, np.random.default_rng(0))
    assert sample.train_s == 50 * 4 * 0.01
    assert sample.download_s == profile.model_bytes / profile.bandwidth_bps
    assert sample.pre_val_s == sample.post_val_s == 10 * 0.002


def test_doubling_quota_doubles_train_time():
    profile = TimingProfile(jitter_sigma=0.0)
    a = sample_timings(30, 2, 10, profile, np.random.default_rng(0))
    b = sample_timings(60, 2, 10, profile, np.random.default_rng(0))
    assert b.train_s == 2 * a.train_s


def test_same_seed_same_timings():
    profile = TimingProfile(jitter_sigma=0.3)
    a = sample_timings(30, 2, 10, profile, np.random.default_rng(42))
    b = sample_timings(30, 2, 10, profile, np.random.default_rng(42))
    assert a == b


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1), st.floats(-1.0, 1.0), st.floats(0.0, 2.0))
def test_timings_are_four_scalar_lognormal_draws(seed, mu, sigma):
    profile = TimingProfile(jitter_mu=mu, jitter_sigma=sigma)
    rng = np.random.default_rng(seed)
    jitter = [float(rng.lognormal(mu, sigma)) for _ in range(4)]
    expected = TimingSample(
        profile.model_bytes / profile.bandwidth_bps * jitter[0],
        10 * profile.per_sample_val_s * jitter[1],
        30 * 2 * profile.per_sample_train_s * jitter[2],
        10 * profile.per_sample_val_s * jitter[3],
    )
    after = rng.random()
    rng = np.random.default_rng(seed)
    assert sample_timings(30, 2, 10, profile, rng) == expected
    # The draw leaves the stream where the four scalar draws left it.
    assert rng.random() == after


def test_val_size_bounds():
    assert _val_size(10) == 8
    assert _val_size(100) == 20
    assert _val_size(10_000) == 64


# ---------------------------------------------------------------- stragglers


def sample(d, p, t, q):
    return TimingSample(d, p, t, q)


def test_equal_times_drop_nobody():
    timings = [(f"n{i}", sample(1, 1, 1, 1)) for i in range(4)]
    assert detect_stragglers(timings, 2.0) == frozenset()


def test_single_slow_node_is_dropped():
    timings = [
        ("a", sample(2, 2, 3, 3)),
        ("b", sample(2, 2, 3, 3)),
        ("c", sample(2, 2, 3, 3)),
        ("d", sample(25, 25, 25, 25)),
    ]
    # totals {10, 10, 10, 100}: median 10, factor 2 keeps everything <= 20
    assert detect_stragglers(timings, 2.0) == frozenset({"d"})


def test_single_node_survives():
    assert detect_stragglers([("solo", sample(9, 9, 9, 9))], 1.5) == frozenset()


@settings(max_examples=100)
@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=9), st.floats(1.01, 5.0))
def test_never_drops_everyone(totals, factor):
    timings = [(f"n{i}", sample(t / 4, t / 4, t / 4, t / 4)) for i, t in enumerate(totals)]
    dropped = detect_stragglers(timings, factor)
    assert len(dropped) < len(timings)


# ---------------------------------------------------------------- round time


def test_round_time_single_node():
    assert round_time([sample(1, 2, 3, 4)]) == 10


def test_round_time_componentwise_max():
    assert round_time([sample(1, 2, 3, 4), sample(4, 3, 2, 1)]) == 4 + 3 + 3 + 4


def test_dropping_dominant_straggler_reduces_round_time():
    slow = sample(9, 9, 9, 9)
    rest = [sample(1, 2, 3, 4), sample(2, 1, 4, 3)]
    assert round_time(rest) < round_time([slow, *rest])


# ---------------------------------------------------------------- convergence


def _record(round_index, best, seconds):
    return RoundRecord(
        round_index=round_index,
        phase=1,
        epochs=1,
        participants=("a",),
        dropped=(),
        weights=(("a", 1.0),),
        dice_per_class=(best, best, best),
        mean_dice=best,
        best_dice=best,
        round_time_s=seconds,
        cumulative_time_s=seconds,
        convergence_so_far=best,
        fallbacks=(),
        secondary_shortfall=False,
        primary_shortfall=False,
    )


def test_convergence_single_round():
    assert convergence_score([_record(1, 0.5, 7.0)]) == 0.5


def test_convergence_equal_times_is_mean():
    records = [_record(1, 0.5, 1.0), _record(2, 0.7, 1.0)]
    assert convergence_score(records) == pytest.approx(0.6, abs=1e-15)


def test_convergence_time_weighted():
    records = [_record(1, 0.5, 3.0), _record(2, 0.7, 1.0)]
    assert convergence_score(records) == pytest.approx((0.5 * 3 + 0.7 * 1) / 4, abs=1e-15)


def test_convergence_requires_records():
    with pytest.raises(ValidationError):
        convergence_score([])


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

    table, shards = generate_synthetic_cohort(1, 40.0, 0, 1.0, seed=21)
    ((inst, count),) = table.counts.items()
    geometry = blob_geometry(4, 8, 21)
    val = make_blob_shard(_val_size(count), geometry, np.random.default_rng([21, _NODE_VAL_SALT, 0]))
    train_cfg = TrainConfig(epochs=4, learning_rate=1e-3, seed=train_seed(21, 1, 0), batch_size=16)
    update = train_local(ModelParams.zeros(36), shards[inst], val, train_cfg, node_id=inst)
    assert np.array_equal(report.final_model.values, update.params.values)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**40 + 3])
def test_round_streams_match_the_per_node_oracles(monkeypatch, seed):
    """Each job's seed is `train_seed` and its timings come from
    `default_rng([seed, _TIMING_SALT, round, node])`, injection included.
    The timings are read where the engine hands them to `detect_stragglers`,
    with a timeout factor that drops no one."""
    config = small_config(
        seed=seed,
        participation="all",
        max_rounds=3,
        timing=fast_timing(jitter_sigma=0.3, inject_round=2, inject_rank=0, inject_factor=4.0, timeout_factor=1e9),
    )
    rounds = []
    round_timings = []
    real_train_round = engine.train_round
    real_detect_stragglers = engine.detect_stragglers

    def capture(model, jobs, *args):
        rounds.append(jobs)
        return real_train_round(model, jobs, *args)

    def capture_timings(timings, timeout_factor):
        round_timings.append(dict(timings))
        return real_detect_stragglers(timings, timeout_factor)

    monkeypatch.setattr(engine, "train_round", capture)
    monkeypatch.setattr(engine, "detect_stragglers", capture_timings)
    report = run_experiment(config)
    node_index = {inst: i for i, inst in enumerate(sorted(engine._build_cohort(config)[0].counts))}
    assert len(rounds) == len(round_timings) == len(report.records) == 3
    for round_index, (jobs, timings, record) in enumerate(zip(rounds, round_timings, report.records), start=1):
        assert [job.node_id for job in jobs] == list(record.participants) == list(timings)
        assert record.dropped == ()
        injected = sorted(record.participants)[0] if round_index == 2 else None
        for job in jobs:
            node = node_index[job.node_id]
            assert job.seed == train_seed(seed, round_index, node)
            assert job.seed == int(
                np.random.SeedSequence([seed, engine._TRAIN_SALT, round_index, node]).generate_state(1, np.uint64)[0]
            )
            quota = len(job.shard) if job.rows is None else len(job.rows)
            rng = np.random.default_rng([seed, engine._TIMING_SALT, round_index, node])
            expected = sample_timings(quota, record.epochs, len(job.val), config.timing, rng)
            if job.node_id == injected:
                expected = expected.scaled(config.timing.inject_factor)
            assert timings[job.node_id] == expected


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
    # Python >= 3.12's `sum` is compensated, so the two need not agree bit for bit.
    assert summary.convergence_score == pytest.approx(convergence_score(records), rel=1e-12)
    assert summary.total_dropped == sum(len(record.dropped) for record in records)
    assert summary.fallback_rounds == sum(1 for record in records if record.fallbacks)
    assert summary.total_dropped >= 1  # the injected straggler at least


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


def test_round_times_do_not_depend_on_strategy():
    base = small_config(max_rounds=3)
    fedpod_report = run_experiment(base)
    fedavg_report = run_experiment(replace(base, strategy=AggregationStrategy("fedavg")))
    assert [r.round_time_s for r in fedpod_report.records] == [r.round_time_s for r in fedavg_report.records]
    assert [r.participants for r in fedpod_report.records] == [r.participants for r in fedavg_report.records]


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


def test_only_participants_get_shards(monkeypatch):
    # Training and validation shards are built on first use, once each, so a
    # cohort where few institutions take part synthesizes only theirs. A
    # shard's stream key, `[seed, salt, index]`, names what it was built for.
    built = {"train": [], "val": []}

    def counting(kind, original):
        def counted(n, geometry, rng):
            built[kind].append(tuple(rng.bit_generator.seed_seq.entropy[1:]))
            return original(n, geometry, rng)

        return counted

    monkeypatch.setattr(cohort, "make_blob_shard", counting("train", cohort.make_blob_shard))
    monkeypatch.setattr(engine, "make_blob_shard", counting("val", engine.make_blob_shard))
    config = small_config(
        cohort=CohortSpec(n_institutions=40, mean_samples=10.0, n_outliers=3, outlier_scale=8.0),
        schedule=(PhaseEntry(1, None, 4, 2, 2, 1e-3, 1),),
        max_rounds=3,
    )
    report = run_experiment(config)
    taking_part = {inst for record in report.records for inst in record.participants}
    assert len(taking_part) < 40
    # Synthetic institutions are named in position order, so the training
    # index and the validation (sorted) index agree.
    index = {inst: i for i, inst in enumerate(sorted(engine._build_cohort(config)[0].counts))}
    assert sorted(built["train"]) == sorted((cohort._SHARD_SALT, index[inst]) for inst in taking_part)
    assert sorted(built["val"]) == sorted(
        [(engine._HOLDOUT_SALT,)] + [(_NODE_VAL_SALT, index[inst]) for inst in taking_part]
    )
