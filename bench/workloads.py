"""The benchmark's workloads and the seeded inputs each one runs on.

A workload is a set of config-file keys plus, for CSV ingest, the shape of
the partition file to generate. `write_inputs` turns a workload and a seed
into files on disk; the simulator only ever sees those files, read through
`fedpod.cli.parse_config`. Keys not listed keep the shipped defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from fedpod.cli import write_partition_csv
from fedpod.cohort import generate_synthetic_cohort

CONFIG_NAME = "workload.cfg"
PARTITION_NAME = "partition.csv"


@dataclass(frozen=True)
class PartitionSpec:
    """Synthetic cohort written out as a partition CSV for `cohort.source = csv`."""

    institutions: int
    mean_samples: float = 30.0
    outliers: int = 3
    outlier_scale: float = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: dict[str, str]
    partition: PartitionSpec | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "all-nodes-1000",
            "Wide and shallow: ~1000 small shards a round, so per-call overhead in train_local, "
            "the 1000-way weighting and merge, and per-node timing simulation dominate.",
            {
                "participation": "all",
                "cohort.institutions": "1000",
                "cohort.mean_samples": "30",
                "cohort.outliers": "3",
                "cohort.outlier_scale": "10",
                # Three rounds: the outliers are dropped in round 1, sit out
                # round 2 and are dropped again in round 3, so wasted work shows.
                "max_rounds": "3",
            },
        ),
        Workload(
            "deep-local-23",
            "Narrow and deep: <=12 nodes a round, each running hundreds of sequential SGD steps, "
            "plus quota windows and an injected straggler's drop and one-round blacklist.",
            {
                "cohort.institutions": "23",
                "cohort.mean_samples": "1000",
                "timing.inject_round": "8",
                "timing.inject_rank": "-1",
                "max_rounds": "15",
            },
        ),
        Workload(
            "csv-pid-2000",
            "Control plane: partition-CSV ingest of 2000 institutions, per-round task composition "
            "and FedPIDAvg's growing cost history, with only 4 nodes training 1 epoch a round.",
            {
                "cohort.source": "csv",
                "cohort.path": PARTITION_NAME,
                "strategy.kind": "fedpidavg",
                "participation": "task",
                "schedule.phase1.rounds": "1-",
                "schedule.phase1.nodes": "4",
                "schedule.phase1.primary": "2",
                "schedule.phase1.secondary": "2",
                "schedule.phase1.learning_rate": "0.001",
                "schedule.phase1.epochs": "1",
                "max_rounds": "300",
            },
            PartitionSpec(institutions=2000),
        ),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's config (and partition CSV) for `seed`; return the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload.partition is not None:
        spec = workload.partition
        table, _ = generate_synthetic_cohort(
            spec.institutions, spec.mean_samples, spec.outliers, spec.outlier_scale, seed
        )
        write_partition_csv(table, directory / PARTITION_NAME)
    lines = [f"seed = {seed}"] + [f"{key} = {value}" for key, value in workload.keys.items()]
    path = directory / CONFIG_NAME
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
