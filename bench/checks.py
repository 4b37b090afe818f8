"""Output checks run after every benchmarked run, and the artifact digest.

Each check returns a list of failure messages; an empty list means the run's
report and the files it wrote are consistent with the simulator's documented
invariants.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from fedpod.cli import read_model_bin
from fedpod.engine import ExperimentReport
from fedpod.errors import FedPodError

DIGEST_FILES = ("metrics.csv", "summary.json", "model.bin")
WEIGHT_TOLERANCE = 1e-9


def check_records(report: ExperimentReport) -> list[str]:
    """Per-round invariants: weights sum to 1, drops come from the round's
    participants and leave a survivor, and a dropped node sits out the next round."""
    failures = []
    for r in report.records:
        total = sum(w for _, w in r.weights)
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            failures.append(f"round {r.round_index}: weights sum to {total!r}")
        if not set(r.dropped) <= set(r.participants):
            failures.append(f"round {r.round_index}: dropped nodes outside the participants")
        if not set(r.participants) - set(r.dropped) or not r.weights:
            failures.append(f"round {r.round_index}: no node survived")
    for prev, cur in zip(report.records, report.records[1:]):
        back = set(prev.dropped) & set(cur.participants)
        if back:
            failures.append(f"round {cur.round_index}: nodes dropped in the previous round took part: {sorted(back)}")
    return failures


def check_artifacts(report: ExperimentReport, out_dir: Path) -> list[str]:
    """model.bin round-trips to the final model; metrics.csv has one row per round."""
    failures = []
    try:
        model = read_model_bin(out_dir / "model.bin")
    except (OSError, ValueError, FedPodError) as exc:
        failures.append(f"model.bin unreadable: {exc}")
    else:
        if not np.array_equal(model.values, report.final_model.values):
            failures.append("model.bin differs from the report's final model")
    try:
        rounds_run = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["rounds_run"]
        with open(out_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = sum(1 for _ in csv.DictReader(fh))
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"metrics.csv or summary.json unreadable: {exc}")
    else:
        if rows != rounds_run or rows != len(report.records):
            failures.append(f"metrics.csv has {rows} rows, summary says {rounds_run}, report has {len(report.records)}")
    return failures


def check_run(report: ExperimentReport, out_dir: Path) -> list[str]:
    return check_records(report) + check_artifacts(report, out_dir)


def digest(out_dir: Path) -> str:
    """sha256 over the run's behaviour-defining artifacts, in a fixed order."""
    h = hashlib.sha256()
    for name in DIGEST_FILES:
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()
