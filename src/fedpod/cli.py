"""Command-line front end: config files, runs, strategy sweeps, plot series.

Config files are flat `key = value` text; an omitted key keeps its dataclass
default. A key is a section prefix (none, `cohort.`, `strategy.`, `timing.`
or `schedule.phaseN.`) plus a field name of `ExperimentConfig`, `CohortSpec`,
`AggregationStrategy`, `TimingProfile` or `PhaseEntry`, with an `n_` prefix
dropped inside a section (`cohort.institutions` sets `n_institutions`). A
value is read as its field's type; `none` sets an optional field to None.
Three keys name no field: `cohort.source` (`synthetic` or `csv`),
`cohort.path` (the partition CSV, relative to the config file; with `csv`
the cohort is a `PartitionSource` of that path) and
`schedule.phaseN.rounds` (`first-last`, or `first-`). A cohort key the
source does not read is an error: the `CohortSpec` keys with `csv`, and
`cohort.path` with `synthetic`.

metrics.csv has the columns of `METRICS_TABLE`, and comparison.csv three of
them per strategy. `execute_run` refuses a config whose classes do not fit
the table's BraTS Dice columns before it makes any directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import struct
import sys
from dataclasses import asdict, dataclass, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .aggregation import STRATEGY_KINDS
from .cohort import PARTITION_HEADER, CohortSpec, PartitionTable, generate_synthetic_cohort
from .engine import ExperimentConfig, ExperimentReport, PartitionSource, PhaseEntry, run_experiment
from .errors import FedPodError, ParseError, ValidationError
from .params import ModelParams

SEED_ENV_VAR = "FEDPOD_SEED"
# The files `execute_run` writes besides manifest.json, in the order manifest.json lists them.
RUN_ARTIFACTS = ("metrics.csv", "summary.json", "model.bin")

# Set by schedule.phaseN.rounds, not by keys of their own.
_UNKEYED_FIELDS = {"first_round", "last_round"}


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


# The BraTS label each non-background class is reported under, in class order.
BRATS_LABELS = (1, 2, 4)

# metrics.csv, in column order: each column's name and its cell for a RoundRecord.
METRICS_TABLE = (
    ("round", lambda r: r.round_index),
    ("phase", lambda r: r.phase),
    ("n_nodes", lambda r: len(r.participants)),
    ("dropped", lambda r: len(r.dropped)),
    *((f"dice_label{label}", lambda r, i=i: _fmt(r.dice_per_class[i])) for i, label in enumerate(BRATS_LABELS)),
    ("mean_dice", lambda r: _fmt(r.mean_dice)),
    ("best_dice", lambda r: _fmt(r.best_dice)),
    ("round_time_s", lambda r: _fmt(r.round_time_s)),
    ("cumulative_time_s", lambda r: _fmt(r.cumulative_time_s)),
    ("convergence_score", lambda r: _fmt(r.convergence_so_far)),
    ("fallback_flags", lambda r: ";".join(r.fallbacks)),
)
# The metrics.csv columns that comparison.csv repeats for each strategy.
COMPARED_COLUMNS = [
    (name, cell) for name, cell in METRICS_TABLE if name in ("mean_dice", "best_dice", "convergence_score")
]


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
    try:
        # utf-8-sig also reads a file saved with a byte-order mark, as the
        # partition CSV reader does.
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, _, value = map(str.strip, stripped.partition("="))
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
            # Only the canonical spelling names a phase, not "01", "+1" or "1_0", so one phase has one key.
            if not (digits.isascii() and digits.isdigit()) or str(int(digits)) != digits:
                raise ValidationError(f"unknown config key {key!r}")
            phases.setdefault(int(digits), {})[name] = raw
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
        kwargs["cohort"] = PartitionSource(str(partition_csv))

    strategy = given["strategy"]
    strategy["kind"] = kind = strategy.get("kind", _DEFAULTS.strategy.kind).lower()
    if kind not in STRATEGY_KINDS:
        raise ValidationError(f"strategy.kind: expected one of {STRATEGY_KINDS}, got {kind!r}")

    for section in _SECTIONS:
        # A csv source has set the cohort already.
        kwargs.setdefault(section, replace(getattr(_DEFAULTS, section), **given[section]))
    if phases:
        kwargs["schedule"] = tuple(_phase_entry(f"schedule.phase{n}", phases[n]) for n in sorted(phases))

    if SEED_ENV_VAR in os.environ:
        try:
            kwargs["seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ValidationError(f"{SEED_ENV_VAR}: expected an integer") from None

    return ExperimentConfig(**kwargs)


@dataclass
class RunManifest:
    """One run's inputs; it emits manifest.json and `RUN_ARTIFACTS`."""

    config_path: str
    config: ExperimentConfig
    out_dir: Path


def write_metrics_csv(records, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(name for name, _ in METRICS_TABLE)
        writer.writerows([cell(r) for _, cell in METRICS_TABLE] for r in records)


def _write_json(value, path: Path) -> None:
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
    and the benchmark's workload inputs, write synthetic tables only. An id
    the loader would strip to another, or to nothing, is refused.
    """
    if any(not inst or inst != inst.strip() for inst in table.counts):
        raise ValidationError("institution ids must be non-empty and have no surrounding whitespace")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PARTITION_HEADER)
        for inst in sorted(table.counts):
            for sid in sorted(f"{inst}-s{k:05d}" for k in range(table.counts[inst])):
                writer.writerow([sid, inst])


def execute_run(manifest: RunManifest) -> ExperimentReport:
    """Run one experiment and write metrics.csv, summary.json, model.bin,
    and manifest.json into the manifest's output directory."""
    # METRICS_TABLE has one Dice column per non-background class.
    if manifest.config.n_classes != len(BRATS_LABELS) + 1:
        raise ValidationError("n_classes must be 4: the metrics schema reports dice_label1/2/4")
    # Made first, so an unwritable --out fails before the run.
    made = [d for d in (manifest.out_dir, *manifest.out_dir.parents) if not d.exists()]
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = run_experiment(manifest.config)
    except BaseException:
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    write_metrics_csv(report.records, manifest.out_dir / "metrics.csv")
    _write_json(asdict(report.summary), manifest.out_dir / "summary.json")
    write_model_bin(report.final_model, manifest.out_dir / "model.bin")
    _write_json(
        {"config_path": manifest.config_path, "out_dir": str(manifest.out_dir), "artifacts": list(RUN_ARTIFACTS)},
        manifest.out_dir / "manifest.json",
    )
    return report


def _warn_unfired_injection(label: str, config: ExperimentConfig, report: ExperimentReport) -> None:
    """Say on stderr that `timing.inject_round` never fired when the run
    stopped, at `max_rounds` or at the simulated-time cap, before it."""
    inject_round = config.timing.inject_round
    if inject_round is not None and inject_round > report.summary.rounds_run:
        print(
            f"warning: {label}timing.inject_round {inject_round} never fired;"
            f" the run stopped after round {report.summary.rounds_run}",
            file=sys.stderr,
        )


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    manifest = RunManifest(str(args.config), config, Path(args.out))
    report = execute_run(manifest)
    _warn_unfired_injection("", config, report)
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
        # Each strategy's run writes out/<kind> and its comparison columns.
        if kinds.count(kind) > 1:
            raise ValidationError(f"--strategies names {kind!r} more than once")
    out = Path(args.out)
    reports: dict[str, ExperimentReport] = {}
    for kind in kinds:
        run_config = replace(config, strategy=replace(config.strategy, kind=kind))
        manifest = RunManifest(str(args.config), run_config, out / kind)
        reports[kind] = execute_run(manifest)
        _warn_unfired_injection(f"{kind}: ", run_config, reports[kind])
    runs = [reports[kind].records for kind in kinds]
    with open(out / "comparison.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", *(f"{kind}_{name}" for kind in kinds for name, _ in COMPARED_COLUMNS)])
        for i in range(max(map(len, runs))):
            # A run with fewer rounds has blank cells after its last one.
            cells = [cell(r[i]) if i < len(r) else "" for r in runs for _, cell in COMPARED_COLUMNS]
            writer.writerow([i + 1, *cells])
    for kind in kinds:
        s = reports[kind].summary
        print(f"{kind}: rounds {s.rounds_run}, best dice {s.best_mean_dice:.4f}, convergence {s.convergence_score:.4f}")
    print(f"comparison table -> {out / 'comparison.csv'}")
    return 0


def _cmd_gen_cohort(args) -> int:
    seed = replace(_DEFAULTS, seed=args.seed).seed  # the config's seed check
    table, _ = generate_synthetic_cohort(args.institutions, args.mean_samples, args.outliers, args.outlier_scale, seed)
    write_partition_csv(table, args.out)
    print(f"{len(table.counts)} institutions, {table.total} samples -> {args.out}")
    return 0


# The metrics.csv columns `plot-data` writes a series file for, each against `round`.
_SERIES_COLUMNS = ("mean_dice", "convergence_score")


def _read_run(metrics: Path) -> tuple[str, list[dict[str, str]]]:
    """A run directory's series name, its summary.json strategy or else the
    resolved directory's name, and its metrics.csv rows, with the series columns."""
    summary = metrics.parent / "summary.json"
    # Resolved, since the name of `.` (a metrics.csv under `--results .`) is "".
    name = metrics.parent.resolve().name
    source = f"{metrics.parent} is named"
    if summary.exists():
        try:
            name = json.loads(summary.read_text(encoding="utf-8"))["strategy"]
        except (ValueError, TypeError, KeyError):  # not UTF-8, not JSON, not an object or no strategy
            name = None
        if not isinstance(name, str):
            raise ValidationError(f"{summary} is not a JSON object with a strategy")
        source = f"{summary} has strategy"
    # The name prefixes file names in --out, so it must be one plain path component.
    if name in ("", ".", "..") or Path(name).name != name or "\0" in name:
        raise ValidationError(f"{source} {name!r}, which is not a file name")
    try:
        with open(metrics, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except UnicodeDecodeError:
        raise ValidationError(f"{metrics} is not UTF-8 text") from None
    for column in ("round", *_SERIES_COLUMNS):
        if column not in (reader.fieldnames or ()):
            raise ValidationError(f"{metrics} has no {column} column")
    return name, rows


def _cmd_plot_data(args) -> int:
    results = Path(args.results)
    out = Path(args.out)
    metrics_files = sorted(results.rglob("metrics.csv"))
    if not metrics_files:
        raise ValidationError(f"no metrics.csv found under {results}")
    # Series files are named by strategy; each name must come from one run.
    # Every run is read and checked before anything is written.
    runs: dict[str, tuple[Path, list[dict[str, str]]]] = {}
    for metrics in metrics_files:
        name, rows = _read_run(metrics)
        if name in runs:
            raise ValidationError(
                f"runs {runs[name][0]} and {metrics.parent} would both write the {name!r} series files"
            )
        runs[name] = metrics.parent, rows
    out.mkdir(parents=True, exist_ok=True)
    for name, (_, rows) in runs.items():
        for column in _SERIES_COLUMNS:
            series = out / f"{name}_{column}.csv"
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
    except (ValidationError, OSError) as exc:
        # OSError: a path argument that is not a readable file or a writable place.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FedPodError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
