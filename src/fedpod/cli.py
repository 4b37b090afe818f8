"""Command-line front end: config files, runs, strategy sweeps, plot series.

Config files are flat `key = value` text; an omitted key keeps its dataclass
default. A key is a section prefix (none, `cohort.`, `strategy.`, `timing.`
or `schedule.phaseN.`) plus a field name of `ExperimentConfig`, `CohortSpec`,
`AggregationStrategy`, `TimingProfile` or `PhaseEntry`, with an `n_` prefix
dropped inside a section (`cohort.institutions` sets `n_institutions`). A
value is read as its field's type; `none` sets an optional field to None.
Three keys name no field: `cohort.source` (`synthetic` or `csv`),
`cohort.path` (the partition CSV, relative to the config file) and
`schedule.phaseN.rounds` (`first-last`, or `first-`). A cohort key the
source does not read is an error: the `CohortSpec` keys with `csv`, and
`cohort.path` with `synthetic`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import struct
import sys
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .aggregation import STRATEGY_KINDS
from .cohort import PARTITION_HEADER, PartitionTable, generate_synthetic_cohort
from .engine import CohortSpec, ExperimentConfig, ExperimentReport, PhaseEntry, run_experiment
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

# Set by cohort.path and schedule.phaseN.rounds, not by keys of their own.
_UNKEYED_FIELDS = {"partition_csv", "first_round", "last_round"}


def _field_keys(cls, in_section: bool = True) -> dict[str, tuple[str, tuple[type, bool]]]:
    """Key name -> (field name, (type, accepts None)) for each field typed X or X | None, X int, float or str."""
    keys = {}
    for name, hint in get_type_hints(cls).items():
        kind = (get_args(hint) or (hint,))[0]
        if kind in (int, float, str) and hint in (kind, kind | None) and name not in _UNKEYED_FIELDS:
            keys[name.removeprefix("n_") if in_section else name] = (name, (kind, hint != kind))
    return keys


_DEFAULTS = ExperimentConfig()
# Each dataclass-valued field of ExperimentConfig is a key section: name -> class.
_SECTIONS = {name: type(value) for name, value in vars(_DEFAULTS).items() if is_dataclass(value)}
# Config key -> (section, field name, value type); "" is the top level.
_KEYS = {name: ("", *spec) for name, spec in _field_keys(ExperimentConfig, in_section=False).items()}
for _section, _cls in _SECTIONS.items():
    _KEYS.update({f"{_section}.{name}": (_section, *spec) for name, spec in _field_keys(_cls).items()})
_KEYS.update({f"cohort.{name}": ("cohort", name, (str, False)) for name in ("source", "path")})
_PHASE_KEYS = _field_keys(PhaseEntry)
_PHASE_KEY_NAMES = ("rounds", *_PHASE_KEYS)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _read_value(key: str, value_type: tuple[type, bool], raw: str):
    """Read a raw value as its field's type; `none` (any case) is None for an optional field."""
    kind, optional = value_type
    if optional and raw.lower() == "none":
        return None
    try:
        return kind(raw)
    except ValueError as exc:
        raise ValidationError(f"{key}: {exc}") from None


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


def _phase_entry(prefix: str, raw: dict[str, str]) -> PhaseEntry:
    missing = [name for name in _PHASE_KEY_NAMES if name not in raw]
    if missing:
        raise ValidationError(f"{prefix}: missing {', '.join(missing)}")
    first, dash, last = raw["rounds"].partition("-")
    if not dash:
        raise ValidationError(f"{prefix}.rounds: expected 'first-last' or 'first-', got {raw['rounds']!r}")
    first_round = _read_value(f"{prefix}.rounds", (int, False), first)
    last_round = _read_value(f"{prefix}.rounds", (int, False), last) if last.strip() else None
    values = {f: _read_value(f"{prefix}.{name}", spec, raw[name]) for name, (f, spec) in _PHASE_KEYS.items()}
    try:
        return PhaseEntry(first_round=first_round, last_round=last_round, **values)
    except ValidationError as exc:
        raise ValidationError(f"{prefix}: {exc}") from None


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file; FEDPOD_SEED overrides the seed."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    given: dict[str, dict] = {section: {} for section in ("", *_SECTIONS)}
    phases: dict[int, dict[str, str]] = {}
    for key, raw in _read_pairs(path).items():
        section, _, name = key.rpartition(".")
        if section.startswith("schedule.phase") and name in _PHASE_KEY_NAMES:
            digits = section[len("schedule.phase") :]
            try:
                number = int(digits)
            except ValueError:
                number = None
            # int() also reads "01", "+1" and "1_0"; only the canonical
            # spelling names a phase, so one phase has one key.
            if number is None or str(number) != digits:
                raise ValidationError(f"unknown config key {key!r}")
            phases.setdefault(number, {})[name] = raw
        elif key in _KEYS:
            section, field_name, value_type = _KEYS[key]
            given[section][field_name] = _read_value(key, value_type, raw)
        else:
            raise ValidationError(f"unknown config key {key!r}")
    kwargs = given[""]

    cohort = given["cohort"]
    source = cohort.pop("source", "synthetic")
    partition_name = cohort.pop("path", None)
    if source not in ("synthetic", "csv"):
        raise ValidationError(f"cohort.source: expected synthetic or csv, got {source!r}")
    # A key the chosen source never reads is a mistake, not a no-op.
    if source == "csv":
        unused = [key for key, (section, name, _) in _KEYS.items() if section == "cohort" and name in cohort]
    else:
        unused = [] if partition_name is None else ["cohort.path"]
    if unused:
        raise ValidationError(f"{unused[0]}: has no effect with cohort.source = {source}")
    if source == "csv":
        if partition_name is None:
            raise ValidationError("cohort.path is required when cohort.source = csv")
        partition_csv = path.parent / partition_name
        if not partition_csv.is_file():
            raise ValidationError(f"partition file not found: {partition_csv}")
        kwargs["partition_csv"] = str(partition_csv)

    strategy = given["strategy"]
    strategy["kind"] = kind = strategy.get("kind", _DEFAULTS.strategy.kind).lower()
    if kind not in STRATEGY_KINDS:
        raise ValidationError(f"strategy.kind: expected one of {STRATEGY_KINDS}, got {kind!r}")

    for section in _SECTIONS:
        kwargs[section] = replace(getattr(_DEFAULTS, section), **given[section])
    if phases:
        kwargs["schedule"] = tuple(_phase_entry(f"schedule.phase{n}", phases[n]) for n in sorted(phases))

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
    """Emit Subject_ID,Partition_ID rows, ordered by institution then subject id.

    Institution X's k-th subject is written `X-s{k:05d}`, and subjects are
    sorted as strings within each institution. A table holds counts only, so
    a loaded CSV's own subject ids are not kept; the callers, `gen-cohort`
    and the benchmark's workload inputs, write synthetic tables only.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PARTITION_HEADER)
        for inst in sorted(table.counts):
            for sid in sorted(f"{inst}-s{k:05d}" for k in range(table.counts[inst])):
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
    seed = replace(_DEFAULTS, seed=args.seed).seed  # the config's seed check
    table, _ = generate_synthetic_cohort(
        args.institutions,
        args.mean_samples,
        args.outliers,
        args.outlier_scale,
        seed,
    )
    write_partition_csv(table, args.out)
    print(f"{len(table.counts)} institutions, {table.total} samples -> {args.out}")
    return 0


def _cmd_plot_data(args) -> int:
    results = Path(args.results)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_files = sorted(results.rglob("metrics.csv"))
    if not metrics_files:
        raise ValidationError(f"no metrics.csv found under {results}")
    # Series files are named by strategy; each name must come from one run.
    runs: dict[str, Path] = {}
    for metrics in metrics_files:
        summary = metrics.parent / "summary.json"
        if summary.exists():
            name = json.loads(summary.read_text(encoding="utf-8"))["strategy"]
        else:
            name = metrics.parent.name
        if name in runs:
            raise ValidationError(
                f"runs {runs[name]} and {metrics.parent} would both write the {name!r} series files"
            )
        runs[name] = metrics.parent
    for name, run_dir in runs.items():
        with open(run_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
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
    # The cohort.* keys as flags: --institutions, --mean-samples, --outliers, --outlier-scale.
    for name, (field_name, (kind, _)) in _field_keys(CohortSpec).items():
        gen_p.add_argument(f"--{name.replace('_', '-')}", type=kind, default=getattr(_DEFAULTS.cohort, field_name))
    gen_p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
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
