import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fedpod.aggregation import AggregationStrategy
from fedpod.cli import RunManifest, _read_run, execute_run, main, read_model_bin, write_model_bin, write_partition_csv
from fedpod.cohort import PartitionTable, generate_synthetic_cohort, load_partition_csv
from fedpod.engine import CohortSpec, ExperimentConfig, PhaseEntry, TimingProfile
from fedpod.errors import ParseError, ValidationError
from fedpod.params import ModelParams

TINY_CONFIG = """\
cohort.institutions = 6
cohort.mean_samples = 10
cohort.outliers = 1
batch_size = 8
max_rounds = 2
"""
RUN_FILES = ("metrics.csv", "summary.json", "model.bin", "manifest.json")


def test_model_bin_round_trips(tmp_path):
    model = ModelParams(np.array([0.5, -1.25, 3e-9]))
    write_model_bin(model, tmp_path / "model.bin")
    assert read_model_bin(tmp_path / "model.bin").values.tobytes() == model.values.tobytes()


def test_model_bin_with_partial_value_is_a_parse_error(tmp_path):
    path = tmp_path / "model.bin"
    write_model_bin(ModelParams(np.array([1.0, 2.0])), path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ParseError, match="not a whole number"):
        read_model_bin(path)


def test_model_bin_with_missing_values_is_a_parse_error(tmp_path):
    path = tmp_path / "model.bin"
    write_model_bin(ModelParams(np.array([1.0, 2.0])), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ParseError, match="header says 2 values, found 1"):
        read_model_bin(path)


@pytest.fixture
def tiny_config(tmp_path, monkeypatch):
    monkeypatch.delenv("FEDPOD_SEED", raising=False)
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return path


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_main_run_writes_its_files(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert all((out / name).is_file() for name in RUN_FILES)
    assert len(_rows(out / "metrics.csv")) == 1 + 2


def test_main_compare_writes_each_strategy_and_the_table(tiny_config, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(tiny_config), "--out", str(out), "--strategies", "fedavg,FedPOD"]) == 0
    for kind in ("fedavg", "fedpod"):
        assert all((out / kind / name).is_file() for name in RUN_FILES)
    rows = _rows(out / "comparison.csv")
    assert rows[0][:4] == ["round", "fedavg_mean_dice", "fedavg_best_dice", "fedavg_convergence_score"]
    assert len(rows) == 1 + 2


def test_main_compare_refuses_a_repeated_strategy(tiny_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    argv = ["compare", "--config", str(tiny_config), "--out", str(out), "--strategies", "fedpod,fedavg,FedPOD"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --strategies names 'fedpod' more than once\n"
    assert not out.exists()


@pytest.mark.parametrize(
    ("stop", "inject_round", "rounds_run"),
    [
        ("max_rounds = 2\n", 9, 2),
        # Under the simulated-time cap, round 1 ends the run.
        ("max_rounds = 5\nmax_simulated_time_s = 1e-9\n", 3, 1),
    ],
)
def test_main_says_when_the_injection_round_never_fired(tiny_config, tmp_path, capsys, stop, inject_round, rounds_run):
    text = TINY_CONFIG.replace("max_rounds = 2\n", stop)
    tiny_config.write_text(text + f"timing.inject_round = {inject_round}\n", encoding="utf-8")
    warning = f"timing.inject_round {inject_round} never fired; the run stopped after round {rounds_run}"
    assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == f"warning: {warning}\n"
    argv = ["compare", "--config", str(tiny_config), "--out", str(tmp_path / "cmp"), "--strategies", "fedavg,fedpod"]
    assert main(argv) == 0
    assert capsys.readouterr().err == f"warning: fedavg: {warning}\nwarning: fedpod: {warning}\n"
    # An injection in the last round run fires, and nothing is said.
    tiny_config.write_text(text + f"timing.inject_round = {rounds_run}\n", encoding="utf-8")
    assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "fired")]) == 0
    assert capsys.readouterr().err == ""


def test_main_checks_no_injection_rank_the_time_cap_stops_before(tiny_config, tmp_path, capsys):
    # Round 2 has one participant, but the cap ends the run after round 1.
    text = TINY_CONFIG + "max_simulated_time_s = 1e-9\ntiming.inject_round = 2\ntiming.inject_rank = 50\n"
    tiny_config.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "run")]) == 0
    warning = "timing.inject_round 2 never fired; the run stopped after round 1"
    assert capsys.readouterr().err == f"warning: {warning}\n"


def test_main_reports_a_divergence_as_a_runtime_error(tiny_config, tmp_path, capsys):
    # A learning rate of 1e308 overflows round 1's gradient. The run exits 2
    # and removes every directory it made.
    phase = "schedule.phase1.{}\n".format
    keys = ["rounds = 1-", "nodes = 2", "primary = 1", "secondary = 1", "epochs = 1", "learning_rate = 1e308"]
    tiny_config.write_text(TINY_CONFIG + "".join(phase(key) for key in keys), encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out" / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: training diverged on node ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_main_refuses_a_run_whose_simulated_time_is_zero(tiny_config, tmp_path, capsys):
    # Every log-normal timing factor underflows to 0.0. The plan pass refuses
    # round 1 before any training, and the run leaves no directory.
    tiny_config.write_text(TINY_CONFIG + "timing.jitter_mu = -1000\n", encoding="utf-8")
    out = tmp_path / "out" / "run"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: round 1 has a simulated time of 0.0, not a positive one\n"
    assert not (tmp_path / "out").exists()


def test_main_refuses_a_run_whose_cumulative_time_overflows(tiny_config, tmp_path, capsys):
    # With no cap on simulated time, rounds of finite time add up past the
    # largest float in round 17. The plan pass refuses that round before any
    # training, so no summary holds an `Infinity`, and the run leaves no directory.
    text = TINY_CONFIG.replace("max_rounds = 2\n", "max_rounds = 20\n")
    tiny_config.write_text(text + "max_simulated_time_s = inf\ntiming.per_sample_train_s = 1e305\n", encoding="utf-8")
    out = tmp_path / "out" / "run"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: round 17 brings the cumulative simulated time to inf\n"
    assert not (tmp_path / "out").exists()


def test_main_refuses_a_phase_whose_batch_orders_cannot_be_allocated(tiny_config, tmp_path, capsys):
    # Training draws every epoch's batch orders up front, so 10**8 epochs
    # that count in int64 still ask for gigabytes, and 10**21 epochs do not
    # count in int64 at all. The plan pass refuses the phase by name before
    # any training, and the run leaves no directory.
    phase = "rounds = 1-\nnodes = 2\nprimary = 1\nsecondary = 1\nlearning_rate = 0.001\nepochs = 10"
    text = TINY_CONFIG + "".join(f"schedule.phase1.{line}\n" for line in phase.splitlines())
    for epochs in ("100000000", "1000000000000000000000"):
        tiny_config.write_text(text.replace("epochs = 10", f"epochs = {epochs}"), encoding="utf-8")
        out = tmp_path / "out" / "run"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: schedule phase 1: epochs = {epochs} times the ")
        assert err.endswith(" rows of round 1 passes 134217728 batch-order entries\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def test_main_run_takes_any_batch_past_every_shard_alike(tiny_config, tmp_path):
    # Every batch at least as large as the largest window takes the same
    # steps, also one past int64's range.
    outputs = []
    for batch_size in (100000, 2**63, 10**21):
        tiny_config.write_text(TINY_CONFIG.replace("batch_size = 8", f"batch_size = {batch_size}"), encoding="utf-8")
        out = tmp_path / str(batch_size)
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("metrics.csv", "summary.json", "model.bin")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_main_gen_cohort_defaults_match_the_config_defaults(tmp_path):
    out = tmp_path / "cohort.csv"
    assert main(["gen-cohort", "--out", str(out)]) == 0
    spec = CohortSpec()
    table, _ = generate_synthetic_cohort(
        spec.n_institutions, spec.mean_samples, spec.n_outliers, spec.outlier_scale, ExperimentConfig().seed
    )
    write_partition_csv(table, tmp_path / "expected.csv")
    assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert _sha256(out) == "8535259bbe7ad4711f1ad251ce8e669feed42dde3e235bf5908833c24cdd8bf7"


def test_main_gen_cohort_flags(tmp_path):
    out = tmp_path / "cohort.csv"
    assert main(["gen-cohort", "--institutions", "5", "--mean-samples", "8", "--seed", "3", "--out", str(out)]) == 0
    assert len(load_partition_csv(out).counts) == 5
    assert _sha256(out) == "006e08848bf8383fab628dcc587e17fdc32a0d5516a35a103ee959b87e1b18cf"


def test_write_partition_csv_names_subjects_by_position(tmp_path):
    # Institutions sorted; institution X's k-th subject is `X-s{k:05d}`, sorted
    # as strings, so site-a's s100000 falls between s10000 and s10001.
    out = tmp_path / "table.csv"
    write_partition_csv(PartitionTable({"site-b": 2, "site-a": 100_001, "x": 1}), out)
    rows = _rows(out)
    assert rows[:2] == [["Subject_ID", "Partition_ID"], ["site-a-s00000", "site-a"]]
    assert [sid for sid, _ in rows[10_001:10_004]] == ["site-a-s10000", "site-a-s100000", "site-a-s10001"]
    assert rows[-3:] == [["site-b-s00000", "site-b"], ["site-b-s00001", "site-b"], ["x-s00000", "x"]]
    assert _sha256(out) == "91de1c9e3c2214c7bffced940266171fb2f44dbdda6bee6d9eb4655cf0850a61"


@pytest.mark.parametrize("via", ["config", "env", "gen-cohort"])
def test_main_rejects_a_negative_seed(tmp_path, monkeypatch, capsys, via):
    monkeypatch.delenv("FEDPOD_SEED", raising=False)
    config = tmp_path / "run.cfg"
    config.write_text("seed = -1\n" if via == "config" else "", encoding="utf-8")
    if via == "env":
        monkeypatch.setenv("FEDPOD_SEED", "-1")
    if via == "gen-cohort":
        argv = ["gen-cohort", "--seed", "-1", "--out", str(tmp_path / "out")]
    else:
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not (tmp_path / "out").exists()


def test_main_plot_data_writes_series(tiny_config, tmp_path):
    results = tmp_path / "results"
    assert main(["run", "--config", str(tiny_config), "--out", str(results / "a")]) == 0
    plots = tmp_path / "plots"
    assert main(["plot-data", "--results", str(results), "--out", str(plots)]) == 0
    for column in ("mean_dice", "convergence_score"):
        rows = _rows(plots / f"fedpod_{column}.csv")
        assert rows[0] == ["round", column]
        assert [row[0] for row in rows[1:]] == ["1", "2"]


def test_main_plot_data_refuses_two_runs_of_one_strategy(tiny_config, tmp_path, capsys):
    results = tmp_path / "results"
    for run in ("a", "b"):
        assert main(["run", "--config", str(tiny_config), "--out", str(results / run)]) == 0
    plots = tmp_path / "plots"
    assert main(["plot-data", "--results", str(results), "--out", str(plots)]) == 1
    assert capsys.readouterr().err == (
        f"error: runs {results / 'a'} and {results / 'b'} would both write the 'fedpod' series files\n"
    )
    assert not plots.exists()


def test_main_plot_data_refuses_results_without_runs(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    plots = tmp_path / "plots"
    assert main(["plot-data", "--results", str(results), "--out", str(plots)]) == 1
    assert capsys.readouterr().err == f"error: no metrics.csv found under {results}\n"
    assert not plots.exists()


@pytest.mark.parametrize(
    "case, bad_file, content",
    [
        ("summary-not-json", "summary.json", b"{"),
        ("summary-without-strategy", "summary.json", b'{"rounds_run": 1}'),
        ("metrics-without-mean-dice", "metrics.csv", b"round,convergence_score\n1,0.1\n"),
        ("metrics-not-utf8", "metrics.csv", b"round,mean_dice,convergence_score\n1,\xff,0.1\n"),
    ],
)
def test_main_plot_data_checks_every_run_before_writing(tmp_path, capsys, case, bad_file, content):
    # The run that sorts first is whole, so a check made run by run would
    # write its series files before it reaches the bad one.
    results = tmp_path / "results"
    for run in ("a", "b"):
        (results / run).mkdir(parents=True)
        (results / run / "metrics.csv").write_text("round,mean_dice,convergence_score\n1,0.5,0.1\n", encoding="utf-8")
    (results / "b" / bad_file).write_bytes(content)
    plots = tmp_path / "plots"
    assert main(["plot-data", "--results", str(results), "--out", str(plots)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(results / "b" / bad_file) in err
    assert not plots.exists()


@pytest.mark.parametrize("strategy", ["../../escaped", "no/such", "", ".", "..", "a\0b"])
def test_main_plot_data_refuses_a_strategy_that_is_not_a_file_name(tmp_path, capsys, strategy):
    # A summary's strategy prefixes the series file names; one that is a
    # path would write outside --out, or fail after the first run's files.
    results = tmp_path / "results"
    for run in ("a", "b"):
        (results / run).mkdir(parents=True)
        (results / run / "metrics.csv").write_text("round,mean_dice,convergence_score\n1,0.5,0.1\n", encoding="utf-8")
    (results / "b" / "summary.json").write_text(json.dumps({"strategy": strategy}), encoding="utf-8")
    inputs = sorted(tmp_path.rglob("*"))
    plots = tmp_path / "out" / "plots"
    assert main(["plot-data", "--results", str(results), "--out", str(plots)]) == 1
    summary = results / "b" / "summary.json"
    assert capsys.readouterr().err == f"error: {summary} has strategy {strategy!r}, which is not a file name\n"
    assert sorted(tmp_path.rglob("*")) == inputs


def test_main_plot_data_names_a_run_under_the_working_directory_by_its_name(tmp_path, monkeypatch):
    # `--results .` finds `./metrics.csv`, whose directory's name is "".
    run = tmp_path / "solo"
    run.mkdir()
    (run / "metrics.csv").write_text("round,mean_dice,convergence_score\n1,0.5,0.1\n", encoding="utf-8")
    monkeypatch.chdir(run)
    assert main(["plot-data", "--results", ".", "--out", "plots"]) == 0
    written = sorted(path.name for path in (run / "plots").iterdir())
    assert written == ["solo_convergence_score.csv", "solo_mean_dice.csv"]


def test_read_run_refuses_a_directory_name_that_is_not_a_file_name():
    # Only the file system's root resolves to a directory with no name.
    with pytest.raises(ValidationError) as caught:
        _read_run(Path("/metrics.csv"))
    assert str(caught.value) == "/ is named '', which is not a file name"


@pytest.mark.parametrize(
    "case", ["config-is-a-directory", "config-not-utf8", "partition-not-utf8", "out-is-a-file", "out-dir-missing"]
)
def test_main_reports_an_unusable_path(tiny_config, tmp_path, capsys, case):
    """A path that cannot be read or written ends in one `error:` line naming it, not a traceback."""
    bad = tmp_path / "bad"
    argv = ["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")]
    if case == "config-is-a-directory":
        bad.mkdir()
        argv[2] = str(bad)
    elif case == "config-not-utf8":
        bad.write_bytes(b"seed = 7\xff\n")
        argv[2] = str(bad)
    elif case == "partition-not-utf8":
        bad.write_bytes(b"Subject_ID,Partition_ID\ns1,site-\xff\n")
        tiny_config.write_text("cohort.source = csv\ncohort.path = bad\n", encoding="utf-8")
    elif case == "out-is-a-file":
        bad.write_text("", encoding="utf-8")
        argv[4] = str(bad)
    else:
        bad = tmp_path / "missing" / "cohort.csv"
        argv = ["gen-cohort", "--out", str(bad)]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(bad) in line


def test_main_names_the_partition_csv_in_its_errors(tiny_config, tmp_path, capsys):
    part = tmp_path / "part.csv"
    part.write_text("Subject_ID,Partition_ID\ns1,a\ns2,a\ns1,b\n", encoding="utf-8")
    tiny_config.write_text("cohort.source = csv\ncohort.path = part.csv\n", encoding="utf-8")
    assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {part}: line 4: duplicate subject id 's1'\n"


def test_main_reports_a_partition_field_over_the_csv_limit(tiny_config, tmp_path, capsys):
    part = tmp_path / "part.csv"
    part.write_text("Subject_ID,Partition_ID\ns1,a\ns2," + "b" * 40 + "\n", encoding="utf-8")
    tiny_config.write_text("cohort.source = csv\ncohort.path = part.csv\n", encoding="utf-8")
    limit = csv.field_size_limit(16)
    try:
        assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")]) == 1
    finally:
        csv.field_size_limit(limit)
    assert capsys.readouterr().err == f"error: {part}: line 3: field larger than field limit (16)\n"


@pytest.mark.parametrize("case", ["duplicate-subject", "inject-rank"])
def test_main_removes_the_directories_a_refused_run_made(tiny_config, tmp_path, capsys, case):
    """The output directory is made before the run; a run that raises removes
    every directory it made and keeps the ones that were there before."""
    (tmp_path / "kept").mkdir()
    if case == "duplicate-subject":
        (tmp_path / "part.csv").write_text("Subject_ID,Partition_ID\ns1,a\ns1,b\n", encoding="utf-8")
        tiny_config.write_text("cohort.source = csv\ncohort.path = part.csv\n", encoding="utf-8")
        message = f"{tmp_path / 'part.csv'}: line 3: duplicate subject id 's1'"
    else:
        # Round 2 can have one participant, so rank 50 names none.
        tiny_config.write_text(TINY_CONFIG + "timing.inject_round = 2\ntiming.inject_rank = 50\n", encoding="utf-8")
        message = "timing.inject_rank 50 is outside the 1 participants of round 2"
    before = sorted(tmp_path.rglob("*"))
    for out in (tmp_path / "out", tmp_path / "kept" / "a" / "b"):
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("bogus = 1\n", "unknown config key 'bogus'"),
        ("z = nan\n", "z must be finite"),
        ("seed 4\n", "line 1: expected 'key = value', got 'seed 4'"),
        ("timing.timeout_factor = abc\n", "timing.timeout_factor: could not convert string to float: 'abc'"),
        ("timing.inject_round = 1.5\n", "timing.inject_round: invalid literal for int() with base 10: '1.5'"),
        ("cohort.source = csv\ncohort.path = absent.csv\n", "partition file not found: {dir}/absent.csv"),
        ("cohort.outlier_scale = nan\n", "outlier_scale must be finite and >= 1"),
        ("cohort.mean_samples = inf\n", "mean_samples must be a positive finite real"),
        ("cohort.mean_samples = 1e19\n", "mean_samples must be at most 9.223372006484771e+18, numpy's Poisson limit"),
        ("n_classes = 3\n", "n_classes must be 4: the metrics schema reports dice_label1/2/4"),
    ],
)
def test_main_reports_a_config_error(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.delenv("FEDPOD_SEED", raising=False)
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message.format(dir=tmp_path)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_classes", [3, 5])
def test_execute_run_refuses_classes_the_metrics_schema_does_not_fit(tmp_path, n_classes):
    manifest = RunManifest("api", ExperimentConfig(n_classes=n_classes, max_rounds=2), tmp_path / "out")
    with pytest.raises(ValidationError) as caught:
        execute_run(manifest)
    assert str(caught.value) == "n_classes must be 4: the metrics schema reports dice_label1/2/4"
    assert not (tmp_path / "out").exists()


def test_execute_run_twice_on_one_manifest_lists_each_artifact_once(tmp_path):
    manifest = RunManifest("api", ExperimentConfig(max_rounds=1), tmp_path)
    execute_run(manifest)
    first = (tmp_path / "manifest.json").read_bytes()
    execute_run(manifest)
    assert (tmp_path / "manifest.json").read_bytes() == first
    assert json.loads(first)["artifacts"] == ["metrics.csv", "summary.json", "model.bin"]


def _dict_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_metrics_csv_columns_are_the_round_records(tmp_path):
    # Round 2's last participant is slowed and dropped; phase 2's learning
    # rate raises validation costs, so round 4 falls back on its derivative.
    config = ExperimentConfig(
        seed=3,
        cohort=CohortSpec(n_institutions=8, mean_samples=12.0, n_outliers=2, outlier_scale=8.0),
        strategy=AggregationStrategy("fedpidavg", alpha=0.2, beta=0.7, gamma=0.1),
        schedule=(PhaseEntry(1, 2, 4, 2, 2, 1e-3, 2), PhaseEntry(3, None, 5, 2, 3, 1.0, 1)),
        timing=TimingProfile(inject_round=2, inject_rank=-1),
        batch_size=8,
        max_rounds=4,
    )
    report = execute_run(RunManifest("api", config, tmp_path))
    rows = _dict_rows(tmp_path / "metrics.csv")
    assert len(rows) == len(report.records) == 4
    assert report.records[1].dropped and report.records[3].fallbacks
    for row, r in zip(rows, report.records):
        values = {
            "round": r.round_index,
            "phase": r.phase,
            "n_nodes": len(r.participants),
            "dropped": len(r.dropped),
            "dice_label1": r.dice_per_class[0],
            "dice_label2": r.dice_per_class[1],
            "dice_label4": r.dice_per_class[2],
            "mean_dice": r.mean_dice,
            "best_dice": r.best_dice,
            "round_time_s": r.round_time_s,
            "cumulative_time_s": r.cumulative_time_s,
            "convergence_score": r.convergence_so_far,
            "fallback_flags": ";".join(r.fallbacks),
        }
        assert list(row) == list(values)
        for column, value in values.items():
            assert type(value)(row[column]) == value, column


def test_comparison_csv_repeats_each_strategys_metrics(tiny_config, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(tiny_config), "--out", str(out)]) == 0
    comparison = _dict_rows(out / "comparison.csv")
    for kind in ("fedavg", "fedpidavg", "fedpod"):
        metrics = _dict_rows(out / kind / "metrics.csv")
        assert len(metrics) == len(comparison) == 2
        for got, want in zip(comparison, metrics):
            assert got["round"] == want["round"]
            for column in ("mean_dice", "best_dice", "convergence_score"):
                assert got[f"{kind}_{column}"] == want[column]
