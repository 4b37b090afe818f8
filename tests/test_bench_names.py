"""The program names the benchmark's tracer wraps, read from `bench/tracer.py`.

The tracer replaces each `TRACED` name in its module and binds a probed
call's arguments by name, so renaming one of these breaks every benchmark
run, and a name the engine no longer calls through its binding drops out of
the per-layer times unnoticed. The tracer is loaded by path and left as it is.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from fedpod import cli, engine
from fedpod.cli import write_partition_csv
from fedpod.cohort import PartitionTable

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# The arguments each probe in `tracer.PROBES` reads, by traced name.
PROBED_PARAMETERS = {
    "train_local": {"shard", "cfg"},
    "aggregate": {"updates"},
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through `sys.modules`.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_name_is_bound(tracer):
    missing = [
        f"{module}.{name}"
        for module, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_probed_functions_keep_the_parameters_their_probes_read(tracer):
    traced = {name: module for module, names in tracer.TRACED.items() for name in names}
    assert set(PROBED_PARAMETERS) <= set(tracer.PROBES) <= set(traced)
    for name, wanted in PROBED_PARAMETERS.items():
        fn = getattr(importlib.import_module(traced[name]), name)
        assert wanted <= set(inspect.signature(fn).parameters), name


def test_every_traced_engine_name_records_a_span(tracer, tmp_path):
    # `train_local` is bound for the tracer but no longer called by the engine.
    part = tmp_path / "part.csv"
    write_partition_csv(PartitionTable({"a": 9, "b": 12, "c": 30, "d": 14}), part)
    configs = [
        engine.ExperimentConfig(max_rounds=2),
        engine.ExperimentConfig(cohort=engine.PartitionSource(str(part)), max_rounds=2),
    ]
    with tracer.Tracer() as active:
        for config in configs:
            engine.run_experiment(config)
    seen = {span.name for span in active.spans}
    missing = [
        name for name in tracer.TRACED["fedpod.engine"] if name != "train_local" and f"engine.{name}" not in seen
    ]
    assert missing == []


def test_traced_aggregate_counts_the_merged_updates(tracer):
    # `aggregation.updates_merged` sums this count, so it must be the rows
    # merged, one per survivor's weight, not any other length.
    configs = [
        engine.ExperimentConfig(max_rounds=3),
        engine.ExperimentConfig(
            participation="all", max_rounds=3, timing=engine.TimingProfile(inject_round=2, inject_factor=50.0)
        ),
    ]
    for config in configs:
        with tracer.Tracer() as active:
            report = engine.run_experiment(config)
        counts = [span.counts["updates"] for span in active.spans if span.name == "engine.aggregate"]
        assert counts == [len(record.weights) for record in report.records]
    # The last config drops its injected straggler, so survivors and participants differ.
    assert any(len(record.weights) < len(record.participants) for record in report.records)


def test_every_layer_records_a_span_on_the_user_path(tracer, tmp_path, monkeypatch):
    # The path the benchmark times, `cli.parse_config` then `cli.execute_run`,
    # on a small synthetic config, artifacts written into tmp_path. A layer
    # whose spans all drop out would read 0 s and still sum to the run.
    # `params.train_local_s` is exempt: the engine trains a round at once,
    # not through `train_local`.
    monkeypatch.delenv("FEDPOD_SEED", raising=False)
    config_path = tmp_path / "run.cfg"
    config_path.write_text("seed = 3\nmax_rounds = 2\ncohort.institutions = 6\n", encoding="utf-8")
    with tracer.Tracer() as active:
        cli.execute_run(cli.RunManifest(str(config_path), cli.parse_config(config_path), tmp_path / "out"))
    seen = {span.name for span in active.spans}
    silent = [
        layer
        for layer, names in tracer.LAYER_SPANS.items()
        if layer != "params.train_local_s" and not seen.intersection(names)
    ]
    assert silent == []
    metrics, failures = tracer.per_layer(active.spans, 1.0)
    assert failures == []
    assert all(metrics[layer] > 0.0 for layer in tracer.LAYER_SPANS if layer != "params.train_local_s")
