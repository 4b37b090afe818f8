"""Config-file parsing: every key, the defaults, and the exact text of each error."""

import pytest

from fedpod.aggregation import AggregationStrategy
from fedpod.cli import parse_config
from fedpod.engine import CohortSpec, ExperimentConfig, PhaseEntry, TimingProfile
from fedpod.errors import ParseError, ValidationError

EVERY_KEY = """\
# every accepted key that the cohort block's source reads, each with a value other than its default
seed = 5
z = 1.5
margin_fraction = 0.2
max_rounds = 4
max_simulated_time_s = 1000.5
batch_size = 8
n_classes = 4
feature_dim = 6
holdout_fraction = 0.3
participation = all

{cohort}
strategy.kind = FedPIDAvg
strategy.alpha = 0.5
strategy.beta = 0.25
strategy.gamma = 0.25
strategy.history_window = 3
timing.per_sample_train_s = 0.02
timing.per_sample_val_s = 0.004
timing.model_bytes = 2e6
timing.bandwidth_bps = 5e6
timing.jitter_mu = 0.1
timing.jitter_sigma = 0.2
timing.timeout_factor = {timeout_factor}
timing.inject_round = {inject_round}
timing.inject_rank = -1
timing.inject_factor = 5.0
schedule.phase2.rounds = 3-
schedule.phase2.nodes = 4
schedule.phase2.primary = 2
schedule.phase2.secondary = 2
schedule.phase2.learning_rate = 0.005
schedule.phase2.epochs = 1
schedule.phase1.rounds = 1-2
schedule.phase1.nodes = 3
schedule.phase1.primary = 3
schedule.phase1.secondary = 0
schedule.phase1.learning_rate = 0.01
schedule.phase1.epochs = 2
"""


# The cohort keys each source reads.
SYNTHETIC_COHORT = """\
cohort.source = synthetic
cohort.institutions = 12
cohort.mean_samples = 20.5
cohort.outliers = 2
cohort.outlier_scale = 4.0"""
CSV_COHORT = """\
cohort.source = csv
cohort.path = part.csv"""


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("FEDPOD_SEED", raising=False)


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _expected_every_key(**overrides):
    fields = dict(
        seed=5,
        z=1.5,
        margin_fraction=0.2,
        max_rounds=4,
        max_simulated_time_s=1000.5,
        batch_size=8,
        n_classes=4,
        feature_dim=6,
        holdout_fraction=0.3,
        participation="all",
        cohort=CohortSpec(n_institutions=12, mean_samples=20.5, n_outliers=2, outlier_scale=4.0),
        strategy=AggregationStrategy("fedpidavg", alpha=0.5, beta=0.25, gamma=0.25, history_window=3),
        timing=TimingProfile(
            per_sample_train_s=0.02,
            per_sample_val_s=0.004,
            model_bytes=2e6,
            bandwidth_bps=5e6,
            jitter_mu=0.1,
            jitter_sigma=0.2,
            timeout_factor=None,
            inject_round=2,
            inject_rank=-1,
            inject_factor=5.0,
        ),
        schedule=(PhaseEntry(1, 2, 3, 3, 0, 0.01, 2), PhaseEntry(3, None, 4, 2, 2, 0.005, 1)),
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def test_every_key_sets_its_field(tmp_path):
    text = EVERY_KEY.format(cohort=SYNTHETIC_COHORT, timeout_factor="none", inject_round="2")
    assert parse_config(_write(tmp_path, text)) == _expected_every_key()


def test_csv_source_reads_the_path(tmp_path):
    (tmp_path / "part.csv").write_text("Subject_ID,Partition_ID\ns1,a\n", encoding="utf-8")
    text = EVERY_KEY.format(cohort=CSV_COHORT, timeout_factor="2.5", inject_round="None")
    expected = _expected_every_key(
        cohort=CohortSpec(),
        partition_csv=str(tmp_path / "part.csv"),
        timing=TimingProfile(
            per_sample_train_s=0.02,
            per_sample_val_s=0.004,
            model_bytes=2e6,
            bandwidth_bps=5e6,
            jitter_mu=0.1,
            jitter_sigma=0.2,
            timeout_factor=2.5,
            inject_round=None,
            inject_rank=-1,
            inject_factor=5.0,
        ),
    )
    assert parse_config(_write(tmp_path, text)) == expected


def test_empty_file_gives_the_default_config(tmp_path):
    assert parse_config(_write(tmp_path, "")) == ExperimentConfig()


def test_seed_env_var_overrides_the_file(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDPOD_SEED", "11")
    assert parse_config(_write(tmp_path, "seed = 5\n")) == ExperimentConfig(seed=11)


def _phase(rounds="1-", nodes="3", learning_rate="0.01", number=1, primary="2", secondary="1"):
    return (
        f"schedule.phase{number}.rounds = {rounds}\n"
        f"schedule.phase{number}.nodes = {nodes}\n"
        f"schedule.phase{number}.primary = {primary}\n"
        f"schedule.phase{number}.secondary = {secondary}\n"
        f"schedule.phase{number}.learning_rate = {learning_rate}\n"
        f"schedule.phase{number}.epochs = 1\n"
    )


# One mistake per config: id -> (file text, exact error text).
CONFIG_ERRORS = {
    "missing-equals": ("seed = 1\nbogus\n", "line 2: expected 'key = value', got 'bogus'"),
    "duplicate-key": ("seed = 1\n# comment\nseed = 2\n", "line 3: duplicate key 'seed'"),
    "unknown-key": ("bogus = 1\n", "unknown config key 'bogus'"),
    "partition-csv-has-no-key": ("partition_csv = part.csv\n", "unknown config key 'partition_csv'"),
    "section-key-drops-n-prefix": ("cohort.n_institutions = 5\n", "unknown config key 'cohort.n_institutions'"),
    "unknown-section-key": ("cohort.bogus = 5\n", "unknown config key 'cohort.bogus'"),
    "bad-int": ("seed = abc\n", "seed: invalid literal for int() with base 10: 'abc'"),
    "bad-int-in-section": (
        "cohort.institutions = 2.5\n",
        "cohort.institutions: invalid literal for int() with base 10: '2.5'",
    ),
    "bad-float": ("z = abc\n", "z: could not convert string to float: 'abc'"),
    "empty-int": ("seed =\n", "seed: invalid literal for int() with base 10: ''"),
    "empty-float": ("strategy.gamma =\n", "strategy.gamma: could not convert string to float: ''"),
    "empty-str": ("participation =\n", "unknown participation mode ''"),
    "unknown-phase-key": ("schedule.phase1.bogus = 1\n", "unknown config key 'schedule.phase1.bogus'"),
    "phase-key-drops-n-prefix": ("schedule.phase1.n_nodes = 1\n", "unknown config key 'schedule.phase1.n_nodes'"),
    "phase-round-field-has-no-key": (
        "schedule.phase1.first_round = 1\n",
        "unknown config key 'schedule.phase1.first_round'",
    ),
    "bad-phase-number": ("schedule.phaseX.nodes = 1\n", "unknown config key 'schedule.phaseX.nodes'"),
    "phase-number-not-canonical": ("schedule.phase01.nodes = 1\n", "unknown config key 'schedule.phase01.nodes'"),
    "phase-number-alias": (_phase() + "schedule.phase01.nodes = 5\n", "unknown config key 'schedule.phase01.nodes'"),
    "phase-number-signed": ("schedule.phase+1.nodes = 1\n", "unknown config key 'schedule.phase+1.nodes'"),
    "phase-without-field": ("schedule.phase1 = 1\n", "unknown config key 'schedule.phase1'"),
    "phase-missing-keys": (
        "schedule.phase1.nodes = 2\n",
        "schedule.phase1: missing rounds, primary, secondary, learning_rate, epochs",
    ),
    "phase-rounds-without-dash": (
        _phase(rounds="5"),
        "schedule.phase1.rounds: expected 'first-last' or 'first-', got '5'",
    ),
    "phase-rounds-bad-int": (
        _phase(rounds="a-3"),
        "schedule.phase1.rounds: invalid literal for int() with base 10: 'a'",
    ),
    "phase-bad-int": (_phase(nodes="x"), "schedule.phase1.nodes: invalid literal for int() with base 10: 'x'"),
    "phase-bad-float": (
        _phase(learning_rate="fast"),
        "schedule.phase1.learning_rate: could not convert string to float: 'fast'",
    ),
    "phase-learning-rate-zero": (_phase(learning_rate="0"), "schedule.phase1: learning_rate must be > 0"),
    "phase-learning-rate-inf": (_phase(learning_rate="inf"), "schedule.phase1: learning_rate must be finite"),
    "phase-node-count-mismatch": (_phase(nodes="4"), "schedule.phase1: n_nodes must equal n_primary + n_secondary"),
    "phase-first-round-zero": (_phase(rounds="0-"), "schedule.phase1: first_round must be >= 1"),
    "schedule-gap": (_phase(rounds="1-2"), "schedule must cover round 3 exactly once, got 0 entries"),
    "task-phase-trains-nobody": (
        _phase(rounds="1-2") + _phase(rounds="3-", nodes="0", number=2, primary="0", secondary="0"),
        "schedule phase 2 has n_nodes = 0, so participation = task trains nobody in round 3",
    ),
    "unknown-cohort-source": ("cohort.source = foo\n", "cohort.source: expected synthetic or csv, got 'foo'"),
    "csv-without-path": ("cohort.source = csv\n", "cohort.path is required when cohort.source = csv"),
    **{
        f"csv-with-cohort.{key}": (
            f"cohort.source = csv\ncohort.path = part.csv\ncohort.{key} = 5\n",
            f"cohort.{key}: has no effect with cohort.source = csv",
        )
        for key in ("institutions", "mean_samples", "outliers", "outlier_scale")
    },
    "synthetic-with-path": (
        "cohort.source = synthetic\ncohort.path = part.csv\n",
        "cohort.path: has no effect with cohort.source = synthetic",
    ),
    "default-source-with-path": (
        "cohort.path = part.csv\n",
        "cohort.path: has no effect with cohort.source = synthetic",
    ),
    "negative-seed": ("seed = -1\n", "seed must be >= 0"),
    "unknown-strategy-kind": (
        "strategy.kind = foo\n",
        "strategy.kind: expected one of ('fedavg', 'fedpidavg', 'fedpod'), got 'foo'",
    ),
    "strategy-mix-not-one": ("strategy.alpha = 0.5\n", "alpha + beta + gamma must equal 1"),
    "bad-optional-float": (
        "timing.timeout_factor = abc\n",
        "timing.timeout_factor: could not convert string to float: 'abc'",
    ),
    "bad-optional-int": (
        "timing.inject_round = 1.5\n",
        "timing.inject_round: invalid literal for int() with base 10: '1.5'",
    ),
    "timing-check": ("timing.timeout_factor = 1\n", "timeout_factor must be > 1 (or None to disable drops)"),
    "n-classes-not-4": ("n_classes = 3\n", "n_classes must be 4: the metrics schema reports dice_label1/2/4"),
}


@pytest.mark.parametrize(("text", "message"), CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
def test_config_error_text(tmp_path, text, message):
    with pytest.raises(ValidationError) as caught:
        parse_config(_write(tmp_path, text))
    assert str(caught.value) == message


def test_parse_error_carries_its_line(tmp_path):
    with pytest.raises(ParseError) as caught:
        parse_config(_write(tmp_path, "\n\nseed 4\n"))
    assert caught.value.line == 3


def test_missing_config_file(tmp_path):
    with pytest.raises(ValidationError) as caught:
        parse_config(tmp_path / "absent.cfg")
    assert str(caught.value) == f"config file not found: {tmp_path / 'absent.cfg'}"


def test_missing_partition_csv(tmp_path):
    with pytest.raises(ValidationError) as caught:
        parse_config(_write(tmp_path, "cohort.source = csv\ncohort.path = absent.csv\n"))
    assert str(caught.value) == f"partition file not found: {tmp_path / 'absent.csv'}"


def test_non_integer_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDPOD_SEED", "abc")
    with pytest.raises(ValidationError) as caught:
        parse_config(_write(tmp_path, ""))
    assert str(caught.value) == "FEDPOD_SEED: expected an integer"


def test_negative_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDPOD_SEED", "-3")
    with pytest.raises(ValidationError) as caught:
        parse_config(_write(tmp_path, ""))
    assert str(caught.value) == "seed must be >= 0"
