"""Behaviour lock: sha256 of every behaviour-defining artifact for five tiny runs.

A refactor must leave these hashes unchanged. A change that alters behaviour
on purpose updates them and says why in CHANGES.md.

The bits of `model.bin` also depend on the SIMD kernels that numpy's `exp`
and `log` run, which numpy picks at run time from the host's CPU features:
with numpy 2.4.6 its AVX-512 (X86_V4) kernels round some values otherwise
than its AVX2 (X86_V3) and baseline ones. `simd_probe` tells the two apart,
and each has its own hash set; a host whose probe matches neither fails and
names its probe.
"""

import hashlib
from dataclasses import replace

import numpy as np
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
    # A seed of more than one uint32 word, so every stream key is wider than
    # the pool. Task participation on the partition CSV; round 3's first
    # participant by id (a primary) is dropped and sits out round 4.
    "csv-multiword-seed": ExperimentConfig(
        seed=2**40 + 3,
        cohort=PartitionSource(GOLDEN_PARTITION),
        strategy=AggregationStrategy("fedpod"),
        schedule=(PhaseEntry(1, None, 4, 2, 2, 1e-3, 2),),
        timing=TimingProfile(inject_round=3, inject_rank=0),
        batch_size=8,
        max_rounds=5,
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
    "csv-multiword-seed": {
        "metrics.csv": "8d730620e2764e31ffa7b336baad055a918fa43ade562783d84dc7ffa64922b0",
        "summary.json": "7072d8d06b85df20300e54a19189849c7e8ccbfda151f2976883a8cbd6ec897d",
        "model.bin": "576543c794bd662a6b2ade08bb74d9cee50f0f2a2d43952636d505a6b6f5c83f",
    },
}


# The `model.bin` hashes where numpy's `exp` and `log` run their AVX2 or
# baseline kernels, recorded on an AVX-512 host under
# NPY_DISABLE_CPU_FEATURES=X86_V4; the other files' bits are the same there.
X86_V3_MODEL_HASHES = {
    "fedavg-all": "12157a7873bf1c817b7c00153d0494faf879bba0b2030f54e84fe88f54d4e0ea",
    "fedpidavg-wrapping-windows": "7f195051c3a4ad3f9313fb14e9458de0ab2a540ba8e8404c22534d904a31bedd",
    "fedpod-dropped-straggler": "35486e608429fa7fc5ee76e7b9d5bfced1e080f3684e9b9bb87b9d2f5db579be",
    "csv-task-mostly-idle": "ea4b14905e1504737a1108fce76e6ff3f40e72b01f97e15857cc7a290f705f22",
    "csv-multiword-seed": "59b52aee23fdf92f1a641917ceb24fdd5e9bd8f32660a2f3b03e1ae60c019b50",
}

# Each hash set by the `simd_probe` of the kernels it was recorded on.
HASHES_BY_PROBE = {
    "bd6666099f66fa74": GOLDEN_HASHES,  # AVX-512 (X86_V4)
    "414f43ba95a3e2fa": {  # AVX2 (X86_V3) or the baseline
        name: {**hashes, "model.bin": X86_V3_MODEL_HASHES[name]} for name, hashes in GOLDEN_HASHES.items()
    },
}


def simd_probe():
    """A hash prefix of numpy's `exp` and `log` on a fixed vector, which
    differs between the kernels whose bits the hashes depend on."""
    x = np.linspace(-20.0, 20.0, 4001)
    return hashlib.sha256(np.exp(x).tobytes() + np.log(np.abs(x) + 1.0).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_artifacts_match_golden_hashes(name, tmp_path):
    probe = simd_probe()
    if probe not in HASHES_BY_PROBE:
        pytest.fail(f"no golden hashes for numpy's exp and log kernels on this host (probe {probe})")
    config = GOLDEN_CONFIGS[name]
    if isinstance(config.cohort, PartitionSource):
        write_golden_partition(tmp_path / config.cohort.path)
        config = replace(config, cohort=PartitionSource(str(tmp_path / config.cohort.path)))
    execute_run(RunManifest(name, config, tmp_path))
    hashes = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN_FILES}
    assert hashes == HASHES_BY_PROBE[probe][name]
