"""Round loop: phase schedule, one batched local-training pass per round,
straggler drop and replacement, aggregation, and metric accumulation.

Everything is driven by one `ExperimentConfig`; identical configs produce
identical reports. Per-purpose RNG streams are derived from the experiment
seed, so replacing one node or changing one phase never perturbs the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .aggregation import AggregationStrategy, CostHistory, aggregate, compute_weights
from .cohort import (
    LazyShards,
    PartitionTable,
    fit_poisson,
    generate_synthetic_cohort,
    load_partition_csv,
    synthesize_shards,
)
from .errors import ValidationError
from .params import (
    DataShard,
    ModelParams,
    TrainJob,
    blob_geometry,
    dice_score,
    make_blob_shard,
    predict_labels,
    train_local,  # noqa: F401 -- unused here, but the benchmark's tracer (bench/tracer.py) wraps this name
    train_round,
)
from .selection import (
    ROLE_PRIMARY,
    ROLE_SECONDARY,
    NodeClassification,
    TaskParticipant,
    TaskPlan,
    classify_nodes,
    compose_task,
    window_indices,
)
from .streams import generators, seed_states

_HOLDOUT_SALT = 7001
_NODE_VAL_SALT = 7002
_TRAIN_SALT = 7003
_TIMING_SALT = 7004

# Per-node validation shards stay small so validation time never dominates.
_VAL_FRACTION = 0.2
_VAL_MIN = 8
_VAL_MAX = 64

PARTICIPATION_TASK = "task"
PARTICIPATION_ALL = "all"


@dataclass(frozen=True)
class PhaseEntry:
    """One schedule row: an inclusive round range and its hyper-parameters."""

    first_round: int
    last_round: int | None
    n_nodes: int
    n_primary: int
    n_secondary: int
    learning_rate: float
    epochs: int

    def __post_init__(self):
        if self.first_round < 1:
            raise ValidationError("first_round must be >= 1")
        if self.last_round is not None and self.last_round < self.first_round:
            raise ValidationError("last_round must be >= first_round")
        if self.n_nodes != self.n_primary + self.n_secondary:
            raise ValidationError("n_nodes must equal n_primary + n_secondary")
        if min(self.n_nodes, self.n_primary, self.n_secondary) < 0:
            raise ValidationError("node counts must be non-negative")
        if not self.learning_rate > 0:
            raise ValidationError("learning_rate must be > 0")
        if not math.isfinite(self.learning_rate):
            raise ValidationError("learning_rate must be finite")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")

    def covers(self, round_index: int) -> bool:
        return self.first_round <= round_index and (self.last_round is None or round_index <= self.last_round)


# Scale-out schedule: start with primaries only, then add secondaries while
# lowering epochs; learning rate stays fixed.
DEFAULT_SCHEDULE = (
    PhaseEntry(1, 5, 6, 6, 0, 1e-3, 4),
    PhaseEntry(6, 10, 8, 6, 2, 1e-3, 4),
    PhaseEntry(11, 15, 10, 6, 4, 1e-3, 3),
    PhaseEntry(16, None, 12, 6, 6, 1e-3, 3),
)


@dataclass(frozen=True)
class TimingSample:
    """Simulated seconds for one node's round, by component."""

    download_s: float
    pre_val_s: float
    train_s: float
    post_val_s: float

    def __post_init__(self):
        for value in (self.download_s, self.pre_val_s, self.train_s, self.post_val_s):
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError("timing components must be finite and non-negative")

    def total(self) -> float:
        return self.download_s + self.pre_val_s + self.train_s + self.post_val_s

    def scaled(self, factor: float) -> TimingSample:
        return TimingSample(
            self.download_s * factor,
            self.pre_val_s * factor,
            self.train_s * factor,
            self.post_val_s * factor,
        )


@dataclass(frozen=True)
class TimingProfile:
    """Latency model: deterministic per-sample costs times log-normal jitter."""

    per_sample_train_s: float = 0.01
    per_sample_val_s: float = 0.002
    model_bytes: float = 4e6
    bandwidth_bps: float = 1e7
    jitter_mu: float = 0.0
    jitter_sigma: float = 0.05
    timeout_factor: float | None = 3.0
    inject_round: int | None = None
    inject_rank: int = 0
    inject_factor: float = 10.0

    def __post_init__(self):
        if min(self.per_sample_train_s, self.per_sample_val_s) <= 0:
            raise ValidationError("per-sample costs must be positive")
        if min(self.model_bytes, self.bandwidth_bps) <= 0:
            raise ValidationError("model_bytes and bandwidth_bps must be positive")
        if self.jitter_sigma < 0:
            raise ValidationError("jitter_sigma must be >= 0")
        if self.timeout_factor is not None and not self.timeout_factor > 1:
            raise ValidationError("timeout_factor must be > 1 (or None to disable drops)")
        if self.inject_factor <= 0:
            raise ValidationError("inject_factor must be positive")


@dataclass(frozen=True)
class CohortSpec:
    """Synthetic cohort parameters; left at the defaults when a partition CSV is given."""

    n_institutions: int = 23
    mean_samples: float = 30.0
    n_outliers: int = 3
    outlier_scale: float = 10.0


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    phase: int
    epochs: int
    participants: tuple[str, ...]
    dropped: tuple[str, ...]
    weights: tuple[tuple[str, float], ...]
    dice_per_class: tuple[float, ...]
    mean_dice: float
    best_dice: float
    round_time_s: float
    cumulative_time_s: float
    convergence_so_far: float
    fallbacks: tuple[str, ...]
    secondary_shortfall: bool
    primary_shortfall: bool


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 7
    cohort: CohortSpec = field(default_factory=CohortSpec)
    partition_csv: str | None = None
    n_classes: int = 4
    feature_dim: int = 8
    batch_size: int = 16
    z: float = 2.0
    margin_fraction: float = 0.1
    strategy: AggregationStrategy = field(default_factory=lambda: AggregationStrategy("fedpod"))
    schedule: tuple[PhaseEntry, ...] = DEFAULT_SCHEDULE
    participation: str = PARTICIPATION_TASK
    timing: TimingProfile = field(default_factory=TimingProfile)
    max_rounds: int = 15
    max_simulated_time_s: float = 604800.0
    holdout_fraction: float = 0.2

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.partition_csv is not None and self.cohort != CohortSpec():
            raise ValidationError("a partition CSV sets the cohort; cohort must keep its defaults")
        if self.n_classes < 2 or self.feature_dim < 1:
            raise ValidationError("need n_classes >= 2 and feature_dim >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not 0 <= self.margin_fraction < 1:
            raise ValidationError("margin_fraction must be in [0, 1)")
        if self.participation not in (PARTICIPATION_TASK, PARTICIPATION_ALL):
            raise ValidationError(f"unknown participation mode {self.participation!r}")
        if self.max_rounds < 0:
            raise ValidationError("max_rounds must be >= 0")
        if not self.max_simulated_time_s > 0:
            raise ValidationError("max_simulated_time_s must be positive")
        if not 0 < self.holdout_fraction < 1:
            raise ValidationError("holdout_fraction must be in (0, 1)")
        for round_index in range(1, self.max_rounds + 1):
            covering = [entry for entry in self.schedule if entry.covers(round_index)]
            if len(covering) != 1:
                raise ValidationError(
                    f"schedule must cover round {round_index} exactly once, got {len(covering)} entries"
                )
            # `all` trains every node whatever the phase's counts say.
            if self.participation == PARTICIPATION_TASK and covering[0].n_nodes == 0:
                raise ValidationError(
                    f"schedule phase {self.schedule.index(covering[0]) + 1} has n_nodes = 0,"
                    f" so participation = task trains nobody in round {round_index}"
                )

    @property
    def model_dim(self) -> int:
        return self.n_classes * (self.feature_dim + 1)


@dataclass(frozen=True)
class Summary:
    strategy: str
    seed: int
    rounds_run: int
    total_time_s: float
    best_mean_dice: float
    convergence_score: float
    total_dropped: int
    fallback_rounds: int
    n_institutions: int
    n_primary: int
    n_secondary: int
    fitted_mean: float
    model_dim: int


@dataclass(frozen=True)
class ExperimentReport:
    records: tuple[RoundRecord, ...]
    final_model: ModelParams
    summary: Summary


def phase_for_round(schedule: Sequence[PhaseEntry], round_index: int) -> tuple[int, PhaseEntry]:
    """Return (1-based phase number, entry) for a round."""
    for number, entry in enumerate(schedule, start=1):
        if entry.covers(round_index):
            return number, entry
    raise ValidationError(f"no schedule entry covers round {round_index}")


def train_seed(experiment_seed: int, round_index: int, node_index: int) -> int:
    """Stable per-(round, node) training seed: `generate_state(1, np.uint64)`
    of `SeedSequence([experiment_seed, _TRAIN_SALT, round_index, node_index])`.

    The one-node form of the per-round pass in `run_experiment`.
    """
    return int(seed_states([(experiment_seed, _TRAIN_SALT, round_index, node_index)])[0, 0])


def sample_timings(
    quota: int,
    epochs: int,
    val_size: int,
    profile: TimingProfile,
    rng: np.random.Generator,
) -> TimingSample:
    """Draw one node's round timings: per-component base cost times jitter.

    The four jitter factors are one draw of four log-normals, in component
    order download, pre-val, train, post-val (the same values as four
    scalar draws); with jitter_sigma == 0 and jitter_mu == 0 the base costs
    come back exactly.
    """
    if quota < 1 or epochs < 1 or val_size < 1:
        raise ValidationError("quota, epochs, val_size must be >= 1")
    download, pre_val, train, post_val = rng.lognormal(profile.jitter_mu, profile.jitter_sigma, size=4).tolist()
    return TimingSample(
        profile.model_bytes / profile.bandwidth_bps * download,
        val_size * profile.per_sample_val_s * pre_val,
        quota * epochs * profile.per_sample_train_s * train,
        val_size * profile.per_sample_val_s * post_val,
    )


def detect_stragglers(
    timings: Sequence[tuple[str, TimingSample]],
    timeout_factor: float,
) -> frozenset[str]:
    """Nodes whose total time exceeds timeout_factor times the lower median
    total, `sorted(totals)[(n - 1) // 2]`.

    The lower median is one node's own total, and that node is never above
    its own scaled threshold, so this can never drop everyone. With two
    nodes it is the faster one's total, so a slow partner can be dropped.
    """
    if not timings:
        raise ValidationError("need at least one timing")
    if not timeout_factor > 1:
        raise ValidationError("timeout_factor must be > 1")
    totals = {node: sample.total() for node, sample in timings}
    median = sorted(totals.values())[(len(totals) - 1) // 2]
    return frozenset(node for node, total in totals.items() if total > timeout_factor * median)


def round_time(samples: Iterable[TimingSample]) -> float:
    """Componentwise maxima over surviving nodes, summed."""
    samples = list(samples)
    if not samples:
        raise ValidationError("round_time needs at least one timing sample")
    return (
        max(s.download_s for s in samples)
        + max(s.pre_val_s for s in samples)
        + max(s.train_s for s in samples)
        + max(s.post_val_s for s in samples)
    )


def convergence_score(records: Sequence[RoundRecord]) -> float:
    """Round-time-weighted mean of the running best mean Dice."""
    if not records:
        raise ValidationError("convergence_score needs at least one record")
    weighted = sum(r.best_dice * r.round_time_s for r in records)
    total = sum(r.round_time_s for r in records)
    return weighted / total


def _build_cohort(config: ExperimentConfig) -> tuple[PartitionTable, LazyShards]:
    if config.partition_csv is not None:
        table = load_partition_csv(config.partition_csv)
        shards = synthesize_shards(table, config.seed, config.n_classes, config.feature_dim)
        return table, shards
    spec = config.cohort
    return generate_synthetic_cohort(
        spec.n_institutions,
        spec.mean_samples,
        spec.n_outliers,
        spec.outlier_scale,
        config.seed,
        config.n_classes,
        config.feature_dim,
    )


def _val_size(count: int) -> int:
    return max(_VAL_MIN, min(_VAL_MAX, round(_VAL_FRACTION * count)))


def _all_nodes_plan(
    round_index: int,
    classification: NodeClassification,
    table: PartitionTable,
    blacklist: frozenset[str],
) -> TaskPlan:
    counts = table.counts
    participants = [
        TaskParticipant(inst, ROLE_PRIMARY, counts[inst], 0)
        for inst in classification.primary
        if inst not in blacklist
    ]
    participants += [
        TaskParticipant(inst, ROLE_SECONDARY, counts[inst], 0)
        for inst in classification.secondary
        if inst not in blacklist
    ]
    return TaskPlan(round_index, tuple(participants))


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full round loop and return per-round records plus the final model.

    Per round: resolve the phase, compose the task (stragglers from the
    previous round sit out exactly one round), train every participant,
    simulate timings, drop stragglers, merge the survivors with the
    configured strategy, and score the global model on a fixed held-out
    shard. Stops at max_rounds or once simulated time reaches the cap.
    """
    table, shards = _build_cohort(config)
    poisson = fit_poisson(table)
    classification = classify_nodes(table, poisson, config.z)
    node_index = {inst: i for i, inst in enumerate(sorted(table.counts))}
    geometry = blob_geometry(config.n_classes, config.feature_dim, config.seed)

    holdout_n = max(32, round(config.holdout_fraction * table.total))
    holdout = make_blob_shard(holdout_n, geometry, np.random.default_rng([config.seed, _HOLDOUT_SALT]))

    def build_val_shard(inst: str, index: int) -> DataShard:
        return make_blob_shard(
            _val_size(table.counts[inst]), geometry, np.random.default_rng([config.seed, _NODE_VAL_SALT, index])
        )

    # Like the training shards, each validation shard is built when its
    # institution first takes part.
    node_val = LazyShards(node_index, build_val_shard)

    model = ModelParams.zeros(config.model_dim)
    history = CostHistory()
    offsets: dict[str, int] = {}
    blacklist: frozenset[str] = frozenset()
    records: list[RoundRecord] = []
    cumulative = 0.0
    best = 0.0
    weighted_best = 0.0

    for round_index in range(1, config.max_rounds + 1):
        phase_number, phase = phase_for_round(config.schedule, round_index)
        if config.participation == PARTICIPATION_ALL:
            plan = _all_nodes_plan(round_index, classification, table, blacklist)
        else:
            plan = compose_task(
                round_index,
                classification,
                phase,
                poisson.lam,
                config.margin_fraction,
                table,
                blacklist=blacklist,
                rng_seed=config.seed,
                offsets=offsets,
            )

        injected: str | None = None
        if config.timing.inject_round == round_index:
            # Rank indexes the round's participants sorted by id; negative
            # ranks count from the end (where the largest primaries sit).
            ordered = sorted(plan.node_ids())
            if -len(ordered) <= config.timing.inject_rank < len(ordered):
                injected = ordered[config.timing.inject_rank]

        # One pass seeds every participant's training stream (its seed is
        # `train_seed`) and timing stream (`default_rng` of its row).
        nodes = [node_index[p.institution_id] for p in plan.participants]
        states = seed_states(
            [(config.seed, salt, round_index, node) for salt in (_TRAIN_SALT, _TIMING_SALT) for node in nodes]
        )
        train_seeds = states[: len(nodes), 0].tolist()
        jobs = []
        timings: dict[str, TimingSample] = {}
        for participant, seed, timing_rng in zip(plan.participants, train_seeds, generators(states[len(nodes) :])):
            inst = participant.institution_id
            shard = shards[inst]
            rows = None
            if participant.role == ROLE_PRIMARY:
                rows = window_indices(len(shard), participant.shard_offset, participant.quota)
                offsets[inst] = (participant.shard_offset + participant.quota) % len(shard)
            val = node_val[inst]
            quota = len(shard) if rows is None else len(rows)
            timing = sample_timings(quota, phase.epochs, len(val), config.timing, timing_rng)
            timings[inst] = timing.scaled(config.timing.inject_factor) if inst == injected else timing
            jobs.append(TrainJob(inst, shard, val, seed, rows))

        updates = train_round(model, jobs, phase.epochs, phase.learning_rate, config.batch_size)

        if config.timing.timeout_factor is not None:
            dropped = detect_stragglers(list(timings.items()), config.timing.timeout_factor)
        else:
            dropped = frozenset()
        survivors = sorted((u for u in updates if u.node_id not in dropped), key=lambda u: u.node_id)

        result = compute_weights(config.strategy, survivors, history)
        model = aggregate(survivors, result.weights)
        for update in survivors:
            history.record(update.node_id, update.trajectory.post_cost)

        predictions = predict_labels(model, holdout)
        dice_per_class = tuple(
            dice_score(predictions, holdout.labels, cls) for cls in range(1, config.n_classes)
        )
        mean_dice = float(np.mean(dice_per_class))
        elapsed = round_time(timings[u.node_id] for u in survivors)
        cumulative += elapsed
        best = max(best, mean_dice)
        weighted_best += best * elapsed

        records.append(
            RoundRecord(
                round_index=round_index,
                phase=phase_number,
                epochs=phase.epochs,
                participants=plan.node_ids(),
                dropped=tuple(sorted(dropped)),
                weights=tuple((u.node_id, w) for u, w in zip(survivors, result.weights)),
                dice_per_class=dice_per_class,
                mean_dice=mean_dice,
                best_dice=best,
                round_time_s=elapsed,
                cumulative_time_s=cumulative,
                convergence_so_far=weighted_best / cumulative,
                fallbacks=result.fallbacks,
                secondary_shortfall=plan.secondary_shortfall,
                primary_shortfall=plan.primary_shortfall,
            )
        )
        blacklist = dropped
        # Free this round's updates before the next round trains.
        del updates, survivors, result
        if cumulative >= config.max_simulated_time_s:
            break

    summary = Summary(
        strategy=config.strategy.kind,
        seed=config.seed,
        rounds_run=len(records),
        total_time_s=cumulative,
        best_mean_dice=best,
        convergence_score=(weighted_best / cumulative) if records else 0.0,
        total_dropped=sum(len(r.dropped) for r in records),
        fallback_rounds=sum(1 for r in records if r.fallbacks),
        n_institutions=len(table.counts),
        n_primary=len(classification.primary),
        n_secondary=len(classification.secondary),
        fitted_mean=poisson.lam,
        model_dim=config.model_dim,
    )
    return ExperimentReport(tuple(records), model, summary)
