"""Behaviour lock: sha256 of every behaviour-defining artifact for four tiny runs.

A refactor must leave these hashes unchanged. A change that alters behaviour
on purpose updates them and says why in CHANGES.md.
"""

import hashlib
from dataclasses import replace

import pytest

from fedpod.aggregation import AggregationStrategy
from fedpod.cli import RunManifest, execute_run
from fedpod.engine import CohortSpec, ExperimentConfig, PartitionSource, PhaseEntry, TimingProfile

GOLDEN_FILES = ("metrics.csv", "summary.json", "model.bin")
GOLDEN_PARTITION = "partition.csv"


def write_golden_partition(path):
    """60 institutions listed out of id order: site00-site02 hold 60-80 samples
    (the primaries), the rest 4-12."""
    lines = ["Subject_ID,Partition_ID"]
    for i in (i * 17 % 60 for i in range(60)):
        count = 60 + 10 * i if i < 3 else 4 + i * 7 % 9
        lines += [f"site{i:02d}-s{k:03d},site{i:02d}" for k in range(count)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GOLDEN_CONFIGS = {
    # Every institution trains every round on its whole shard.
    "fedavg-all": ExperimentConfig(
        seed=11,
        cohort=CohortSpec(n_institutions=9, mean_samples=12.0, n_outliers=2, outlier_scale=6.0),
        strategy=AggregationStrategy("fedavg"),
        participation="all",
        batch_size=8,
        max_rounds=3,
    ),
    # Primaries supply a quota window that advances each round, so later
    # rounds' windows wrap past the end of the shard.
    "fedpidavg-wrapping-windows": ExperimentConfig(
        seed=12,
        cohort=CohortSpec(n_institutions=10, mean_samples=10.0, n_outliers=3, outlier_scale=2.5),
        strategy=AggregationStrategy("fedpidavg"),
        schedule=(PhaseEntry(1, None, 5, 3, 2, 1e-3, 2),),
        batch_size=4,
        max_rounds=6,
    ),
    # Round 2's last participant by id is slowed tenfold and dropped, then
    # sits out round 3.
    "fedpod-dropped-straggler": ExperimentConfig(
        seed=13,
        cohort=CohortSpec(n_institutions=8, mean_samples=12.0, n_outliers=2, outlier_scale=8.0),
        schedule=(PhaseEntry(1, None, 4, 2, 2, 1e-3, 3),),
        timing=TimingProfile(inject_round=2, inject_rank=-1),
        batch_size=8,
        max_rounds=4,
    ),
    # Partition-CSV ingest with task participation: 2 primaries and 2 of 57
    # secondaries a round, so most institutions never take part. Round 2's
    # last participant by id (a secondary) is dropped and sits out round 3.
    "csv-task-mostly-idle": ExperimentConfig(
        seed=14,
        cohort=PartitionSource(GOLDEN_PARTITION),
        strategy=AggregationStrategy("fedpidavg"),
        schedule=(PhaseEntry(1, None, 4, 2, 2, 1e-3, 1),),
        timing=TimingProfile(inject_round=2, inject_rank=-1),
        batch_size=8,
        max_rounds=6,
    ),
}

GOLDEN_HASHES = {
    "fedavg-all": {
        "metrics.csv": "6eb596e08fcff2f5fefd4b92c80ba28ac05cc40b9e7f655cf39982ccdbb369a5",
        "summary.json": "b911dafad390bfd621ba3c65b2d554afefddafe9c556622007e37b25bdc95f25",
        "model.bin": "ba4d921c12287be4e5ed93c33548400f3ee3817aef38e314ccd6264c63781867",
    },
    "fedpidavg-wrapping-windows": {
        "metrics.csv": "0f2cf06d81a3a64d726c8f9e6f8a04a9b692a7ef523198bd7911b00e2f444802",
        "summary.json": "16096a4e34478ba053f5c7e7d9bf4b23831d7ac810625917f019db91e7015fbb",
        "model.bin": "5400fb460324eb36c65ebd4f0adb2532e51c60c029b24d4d45db0ef47e946621",
    },
    "fedpod-dropped-straggler": {
        "metrics.csv": "d9c5f5cc31fadebe05b6c9453009044a2317e3cc9241cb0798016c13ba528d9f",
        "summary.json": "4edb752a903215095d9e0fe8afdc5053f8c81d0410be1d3d1fd490f4d321f3b8",
        "model.bin": "e591a2b650e41680f774b69083f3d5a56a672fac31a34ec050f692d37e51aeb3",
    },
    "csv-task-mostly-idle": {
        "metrics.csv": "58fe54ce387b2f8b89cf0952d2fe2f6f969e848a1dc2334bb8cfe1a0ba834ad7",
        "summary.json": "9d8b0a55076e44dd1a3523490af735857fa7067bfc2f39b9330c67ea1a8b90f3",
        "model.bin": "cc408225cf0fb814d1e2996ed55424853d9d6457078b9a93a58b32bf93e7c892",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_artifacts_match_golden_hashes(name, tmp_path):
    config = GOLDEN_CONFIGS[name]
    if isinstance(config.cohort, PartitionSource):
        write_golden_partition(tmp_path / config.cohort.path)
        config = replace(config, cohort=PartitionSource(str(tmp_path / config.cohort.path)))
    execute_run(RunManifest(name, config, tmp_path))
    hashes = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN_FILES}
    assert hashes == GOLDEN_HASHES[name]
