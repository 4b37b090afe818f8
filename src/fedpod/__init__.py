"""Deterministic federated-learning round simulator.

Poisson-based node selection, straggler drop/replace, and three aggregation
strategies (FedAvg, FedPIDAvg, FedPOD) over a synthetic classification task,
reporting per-class Dice and a round-time-weighted convergence score.
"""

from .aggregation import (
    AggregationStrategy,
    CostHistory,
    WeightResult,
    aggregate,
    compute_weights,
    fedavg_weights,
    fedpid_weights,
    fedpod_weights,
)
from .cohort import (
    PartitionTable,
    PoissonModel,
    fit_poisson,
    generate_synthetic_cohort,
    load_partition_csv,
    poisson_pmf,
)
from .engine import (
    DEFAULT_SCHEDULE,
    CohortSpec,
    ExperimentConfig,
    ExperimentReport,
    PhaseEntry,
    RoundRecord,
    TimingProfile,
    TimingSample,
    convergence_score,
    detect_stragglers,
    round_time,
    run_experiment,
    sample_timings,
)
from .params import (
    CostTrajectory,
    DataShard,
    LocalUpdate,
    ModelParams,
    TrainConfig,
    TrainJob,
    combine,
    dice_score,
    evaluate_cost,
    train_local,
    train_round,
)
from .selection import (
    NodeClassification,
    TaskPlan,
    classify_nodes,
    compose_task,
    upper_bound,
)

__version__ = "0.1.0"
