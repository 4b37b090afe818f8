"""The public names of `fedpod`, pinned: adding or removing one is an edit here."""

import types

import fedpod

PUBLIC_NAMES = [
    "AggregationStrategy",
    "CohortSpec",
    "CostHistory",
    "DEFAULT_SCHEDULE",
    "DataShard",
    "ExperimentConfig",
    "ExperimentReport",
    "ModelParams",
    "NodeClassification",
    "PartitionSource",
    "PartitionTable",
    "PhaseEntry",
    "PoissonModel",
    "RoundJobs",
    "RoundRecord",
    "RoundUpdates",
    "TaskPlan",
    "TimingProfile",
    "TrainConfig",
    "WeightResult",
    "aggregate",
    "classify_nodes",
    "compose_task",
    "compute_weights",
    "detect_stragglers",
    "dice_score",
    "fedavg_weights",
    "fedpid_weights",
    "fedpod_weights",
    "fit_poisson",
    "generate_synthetic_cohort",
    "load_partition_csv",
    "round_time",
    "run_experiment",
    "sample_timings",
    "train_local",
    "train_round",
    "upper_bound",
]


def test_public_names_are_pinned():
    # Submodules become attributes of the package as they are imported, so
    # which ones are present depends on the tests that ran before.
    names = sorted(
        name
        for name, value in vars(fedpod).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
