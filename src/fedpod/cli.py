"""Command-line front end: config files, runs, strategy sweeps, plot series.

Config files are flat `key = value` text with dotted section keys; every
omitted key falls back to the shipped defaults, so an empty file runs the
default scale-out schedule on the default synthetic cohort.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import struct
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .aggregation import STRATEGY_KINDS, AggregationStrategy
from .cohort import PARTITION_HEADER, PartitionTable, generate_synthetic_cohort
from .engine import (
    CohortSpec,
    ExperimentConfig,
    ExperimentReport,
    PhaseEntry,
    TimingProfile,
    run_experiment,
)
from .errors import FedPodError, ParseError, ValidationError
from .params import ModelParams

SEED_ENV_VAR = "FEDPOD_SEED"

METRICS_COLUMNS = (
    "round",
    "phase",
    "n_nodes",
    "dropped",
    "dice_label1",
    "dice_label2",
    "dice_label4",
    "mean_dice",
    "best_dice",
    "round_time_s",
    "cumulative_time_s",
    "convergence_score",
    "fallback_flags",
)

_INT_KEYS = {
    "seed",
    "max_rounds",
    "batch_size",
    "n_classes",
    "feature_dim",
    "cohort.institutions",
    "cohort.outliers",
    "strategy.history_window",
    "timing.inject_rank",
}
_FLOAT_KEYS = {
    "z",
    "margin_fraction",
    "max_simulated_time_s",
    "holdout_fraction",
    "cohort.mean_samples",
    "cohort.outlier_scale",
    "strategy.alpha",
    "strategy.beta",
    "strategy.gamma",
    "timing.per_sample_train_s",
    "timing.per_sample_val_s",
    "timing.model_bytes",
    "timing.bandwidth_bps",
    "timing.jitter_mu",
    "timing.jitter_sigma",
    "timing.inject_factor",
}
_STR_KEYS = {"participation", "cohort.source", "cohort.path", "strategy.kind"}
_OPTIONAL_KEYS = {"timing.timeout_factor", "timing.inject_round"}
_PHASE_FIELDS = ("rounds", "nodes", "primary", "secondary", "learning_rate", "epochs")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _parse_value(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError as exc:
        raise ValidationError(f"{key}: {exc}") from None
    return raw


def _read_pairs(path: Path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in pairs:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        pairs[key] = value
    return pairs


def _parse_round_range(key: str, raw: str) -> tuple[int, int | None]:
    if "-" not in raw:
        raise ValidationError(f"{key}: expected 'first-last' or 'first-', got {raw!r}")
    first, _, last = raw.partition("-")
    try:
        return int(first), (int(last) if last.strip() else None)
    except ValueError as exc:
        raise ValidationError(f"{key}: {exc}") from None


def _parse_schedule(pairs: dict[str, str]) -> tuple[PhaseEntry, ...] | None:
    phase_keys = {k: v for k, v in pairs.items() if k.startswith("schedule.")}
    if not phase_keys:
        return None
    phases: dict[int, dict[str, str]] = {}
    for key, value in phase_keys.items():
        parts = key.split(".")
        if len(parts) != 3 or not parts[1].startswith("phase") or parts[2] not in _PHASE_FIELDS:
            raise ValidationError(f"unknown config key {key!r}")
        try:
            number = int(parts[1][len("phase") :])
        except ValueError:
            raise ValidationError(f"unknown config key {key!r}") from None
        phases.setdefault(number, {})[parts[2]] = value
    entries = []
    for number in sorted(phases):
        spec = phases[number]
        missing = [f for f in _PHASE_FIELDS if f not in spec]
        if missing:
            raise ValidationError(f"schedule.phase{number}: missing {', '.join(missing)}")
        prefix = f"schedule.phase{number}"
        first, last = _parse_round_range(f"{prefix}.rounds", spec["rounds"])
        try:
            entries.append(
                PhaseEntry(
                    first_round=first,
                    last_round=last,
                    n_nodes=int(spec["nodes"]),
                    n_primary=int(spec["primary"]),
                    n_secondary=int(spec["secondary"]),
                    learning_rate=float(spec["learning_rate"]),
                    epochs=int(spec["epochs"]),
                )
            )
        except ValueError as exc:
            raise ValidationError(f"{prefix}: {exc}") from None
    return tuple(entries)


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file; FEDPOD_SEED overrides the seed."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    pairs = _read_pairs(path)
    schedule = _parse_schedule(pairs)
    pairs = {k: v for k, v in pairs.items() if not k.startswith("schedule.")}

    known = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _OPTIONAL_KEYS
    for key in pairs:
        if key not in known:
            raise ValidationError(f"unknown config key {key!r}")
    values = {key: _parse_value(key, raw) for key, raw in pairs.items()}

    kwargs: dict = {}
    for key, attr in (
        ("seed", "seed"),
        ("z", "z"),
        ("margin_fraction", "margin_fraction"),
        ("max_rounds", "max_rounds"),
        ("max_simulated_time_s", "max_simulated_time_s"),
        ("batch_size", "batch_size"),
        ("n_classes", "n_classes"),
        ("feature_dim", "feature_dim"),
        ("holdout_fraction", "holdout_fraction"),
        ("participation", "participation"),
    ):
        if key in values:
            kwargs[attr] = values[key]

    source = values.get("cohort.source", "synthetic")
    if source == "csv":
        if "cohort.path" not in values:
            raise ValidationError("cohort.path is required when cohort.source = csv")
        kwargs["partition_csv"] = str(path.parent / values["cohort.path"])
    elif source == "synthetic":
        cohort = CohortSpec(
            n_institutions=values.get("cohort.institutions", 23),
            mean_samples=values.get("cohort.mean_samples", 30.0),
            n_outliers=values.get("cohort.outliers", 3),
            outlier_scale=values.get("cohort.outlier_scale", 10.0),
        )
        kwargs["cohort"] = cohort
    else:
        raise ValidationError(f"cohort.source: expected synthetic or csv, got {source!r}")

    kind = str(values.get("strategy.kind", "fedpod")).lower()
    if kind not in STRATEGY_KINDS:
        raise ValidationError(f"strategy.kind: expected one of {STRATEGY_KINDS}, got {kind!r}")
    kwargs["strategy"] = AggregationStrategy(
        kind=kind,
        alpha=values.get("strategy.alpha", 0.2),
        beta=values.get("strategy.beta", 0.7),
        gamma=values.get("strategy.gamma", 0.1),
        history_window=values.get("strategy.history_window", 6),
    )

    timing_kwargs: dict = {}
    for key, attr in (
        ("timing.per_sample_train_s", "per_sample_train_s"),
        ("timing.per_sample_val_s", "per_sample_val_s"),
        ("timing.model_bytes", "model_bytes"),
        ("timing.bandwidth_bps", "bandwidth_bps"),
        ("timing.jitter_mu", "jitter_mu"),
        ("timing.jitter_sigma", "jitter_sigma"),
        ("timing.inject_factor", "inject_factor"),
        ("timing.inject_rank", "inject_rank"),
    ):
        if key in values:
            timing_kwargs[attr] = values[key]
    if "timing.timeout_factor" in values:
        raw = values["timing.timeout_factor"]
        timing_kwargs["timeout_factor"] = None if raw.lower() == "none" else float(raw)
    if "timing.inject_round" in values:
        raw = values["timing.inject_round"]
        timing_kwargs["inject_round"] = None if raw.lower() == "none" else int(raw)
    kwargs["timing"] = TimingProfile(**timing_kwargs)

    if schedule is not None:
        kwargs["schedule"] = schedule

    if SEED_ENV_VAR in os.environ:
        try:
            kwargs["seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ValidationError(f"{SEED_ENV_VAR}: expected an integer") from None

    config = ExperimentConfig(**kwargs)
    if config.n_classes != 4:
        raise ValidationError("n_classes must be 4: the metrics schema reports dice_label1/2/4")
    return config


@dataclass
class RunManifest:
    """One run's inputs and every file it emitted."""

    config_path: str
    config: ExperimentConfig
    out_dir: Path
    artifacts: list[str] = field(default_factory=list)


def write_metrics_csv(records, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.round_index,
                    r.phase,
                    len(r.participants),
                    len(r.dropped),
                    _fmt(r.dice_per_class[0]),
                    _fmt(r.dice_per_class[1]),
                    _fmt(r.dice_per_class[2]),
                    _fmt(r.mean_dice),
                    _fmt(r.best_dice),
                    _fmt(r.round_time_s),
                    _fmt(r.cumulative_time_s),
                    _fmt(r.convergence_so_far),
                    ";".join(r.fallbacks),
                ]
            )


def write_model_bin(model: ModelParams, path: Path) -> None:
    """Dimension as an 8-byte little-endian header, then little-endian float64s."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", model.dim))
        fh.write(model.values.astype("<f8").tobytes())


def read_model_bin(path: Path) -> ModelParams:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ParseError("model file too short for its header")
    (dim,) = struct.unpack("<Q", raw[:8])
    if (len(raw) - 8) % 8:
        raise ParseError(f"model file payload of {len(raw) - 8} bytes is not a whole number of float64 values")
    values = np.frombuffer(raw[8:], dtype="<f8")
    if values.size != dim:
        raise ParseError(f"model file header says {dim} values, found {values.size}")
    return ModelParams(values)


def write_partition_csv(table: PartitionTable, path) -> None:
    """Emit Subject_ID,Partition_ID rows, ordered by institution then sample id."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PARTITION_HEADER)
        for inst in sorted(table.entries):
            for sid in sorted(table.entries[inst].sample_ids):
                writer.writerow([sid, inst])


def execute_run(manifest: RunManifest) -> ExperimentReport:
    """Run one experiment and write metrics.csv, summary.json, model.bin,
    and manifest.json into the manifest's output directory."""
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    report = run_experiment(manifest.config)
    write_metrics_csv(report.records, manifest.out_dir / "metrics.csv")
    manifest.artifacts.append("metrics.csv")
    with open(manifest.out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(report.summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.artifacts.append("summary.json")
    write_model_bin(report.final_model, manifest.out_dir / "model.bin")
    manifest.artifacts.append("model.bin")
    with open(manifest.out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "config_path": manifest.config_path,
                "out_dir": str(manifest.out_dir),
                "artifacts": manifest.artifacts,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return report


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    manifest = RunManifest(str(args.config), config, Path(args.out))
    report = execute_run(manifest)
    print(
        f"{report.summary.strategy}: {report.summary.rounds_run} rounds, "
        f"best dice {report.summary.best_mean_dice:.4f}, "
        f"convergence {report.summary.convergence_score:.4f} -> {manifest.out_dir}"
    )
    return 0


def _cmd_compare(args) -> int:
    config = parse_config(args.config)
    kinds = [k.strip().lower() for k in args.strategies.split(",") if k.strip()]
    if not kinds:
        raise ValidationError("--strategies needs at least one name")
    for kind in kinds:
        if kind not in STRATEGY_KINDS:
            raise ValidationError(f"unknown strategy {kind!r}")
    out = Path(args.out)
    reports: dict[str, ExperimentReport] = {}
    for kind in kinds:
        run_config = replace(config, strategy=replace(config.strategy, kind=kind))
        manifest = RunManifest(str(args.config), run_config, out / kind)
        reports[kind] = execute_run(manifest)
    rows = max(len(r.records) for r in reports.values())
    with open(out / "comparison.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["round"]
        for kind in kinds:
            header += [f"{kind}_mean_dice", f"{kind}_best_dice", f"{kind}_convergence_score"]
        writer.writerow(header)
        for i in range(rows):
            row = [i + 1]
            for kind in kinds:
                records = reports[kind].records
                if i < len(records):
                    row += [_fmt(records[i].mean_dice), _fmt(records[i].best_dice), _fmt(records[i].convergence_so_far)]
                else:
                    row += ["", "", ""]
            writer.writerow(row)
    for kind in kinds:
        s = reports[kind].summary
        print(f"{kind}: rounds {s.rounds_run}, best dice {s.best_mean_dice:.4f}, convergence {s.convergence_score:.4f}")
    print(f"comparison table -> {out / 'comparison.csv'}")
    return 0


def _cmd_gen_cohort(args) -> int:
    table, _ = generate_synthetic_cohort(
        args.institutions,
        args.mean_samples,
        args.outliers,
        args.outlier_scale,
        args.seed,
    )
    write_partition_csv(table, args.out)
    print(f"{len(table.entries)} institutions, {table.total} samples -> {args.out}")
    return 0


def _cmd_plot_data(args) -> int:
    results = Path(args.results)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_files = sorted(results.rglob("metrics.csv"))
    if not metrics_files:
        raise ValidationError(f"no metrics.csv found under {results}")
    for metrics in metrics_files:
        summary = metrics.parent / "summary.json"
        if summary.exists():
            name = json.loads(summary.read_text(encoding="utf-8"))["strategy"]
        else:
            name = metrics.parent.name
        with open(metrics, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        for column, suffix in (("mean_dice", "mean_dice"), ("convergence_score", "convergence_score")):
            series = out / f"{name}_{suffix}.csv"
            with open(series, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["round", column])
                for row in rows:
                    writer.writerow([row["round"], row[column]])
            print(f"{series}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedpod", description="Federated-learning round simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", required=True)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run several strategies on one cohort/seed")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--out", required=True)
    cmp_p.add_argument("--strategies", default=",".join(STRATEGY_KINDS))
    cmp_p.set_defaults(func=_cmd_compare)

    gen_p = sub.add_parser("gen-cohort", help="generate a synthetic partition CSV")
    gen_p.add_argument("--institutions", type=int, default=23)
    gen_p.add_argument("--mean-samples", type=float, default=30.0, dest="mean_samples")
    gen_p.add_argument("--outliers", type=int, default=3)
    gen_p.add_argument("--outlier-scale", type=float, default=10.0, dest="outlier_scale")
    gen_p.add_argument("--seed", type=int, default=7)
    gen_p.add_argument("--out", required=True)
    gen_p.set_defaults(func=_cmd_gen_cohort)

    plot_p = sub.add_parser("plot-data", help="emit per-strategy (round, metric) series files")
    plot_p.add_argument("--results", required=True, help="directory containing run output(s)")
    plot_p.add_argument("--out", required=True)
    plot_p.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FedPodError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
