import csv
import hashlib

import numpy as np
import pytest

from fedpod.cli import main, read_model_bin, write_model_bin, write_partition_csv
from fedpod.cohort import PartitionTable, generate_synthetic_cohort, load_partition_csv
from fedpod.engine import CohortSpec, ExperimentConfig
from fedpod.errors import ParseError
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
    assert not list(plots.glob("*.csv"))


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("bogus = 1\n", "unknown config key 'bogus'"),
        ("seed 4\n", "line 1: expected 'key = value', got 'seed 4'"),
        ("timing.timeout_factor = abc\n", "timing.timeout_factor: could not convert string to float: 'abc'"),
        ("timing.inject_round = 1.5\n", "timing.inject_round: invalid literal for int() with base 10: '1.5'"),
        ("cohort.source = csv\ncohort.path = absent.csv\n", "partition file not found: {dir}/absent.csv"),
    ],
)
def test_main_reports_a_config_error(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.delenv("FEDPOD_SEED", raising=False)
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message.format(dir=tmp_path)}\n"
    assert not (tmp_path / "out").exists()
