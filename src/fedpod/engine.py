"""An experiment in two passes: plan every round, then train them.

The plan pass reads no model: phase schedule, task composition, timings,
straggler drop and replacement, and the round the run stops at. The
training pass draws every survivor's training and validation rows into one
store and checks one table of all rounds' jobs once, so a job-row fault is
raised before any round trains, not at its round. Then each round trains
its rows of the table in one batched pass, aggregates and keeps metrics.

Everything is driven by one `ExperimentConfig`; identical configs produce
identical reports. Per-purpose RNG streams are derived from the experiment
seed, so replacing one node or changing one phase never perturbs the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .aggregation import AggregationStrategy, CostHistory, aggregate, compute_weights
from .cohort import (
    CohortSpec,
    PartitionTable,
    fit_poisson,
    generate_synthetic_cohort,
    load_partition_csv,
    synthesize_shards,
)
from .errors import ValidationError
from .params import (
    BlobGeometry,
    DataShard,
    ModelParams,
    RoundJobs,
    TrainConfig,
    _check_round,
    _train_checked,
    dice_score,
    make_blob_shard,
    make_blob_shards,
    predict_labels,
    train_local,  # noqa: F401 -- unused here, but the benchmark's tracer (bench/tracer.py) wraps this name
)
from .selection import NodeClassification, TaskParticipant, TaskPlan, classify_nodes, compose_task
from .streams import generators, seed_states

_HOLDOUT_SALT = 7001
_NODE_VAL_SALT = 7002
_TRAIN_SALT = 7003
_TIMING_SALT = 7004
_SHARD_SALT = 7012

# The int64 entries a round's batch orders may hold: training draws a block's
# orders for every epoch up front, (epochs, rows) at 8 bytes an entry, and
# copies them twice, so a phase past this bound could not be allocated.
_MAX_ORDER_ENTRIES = 2**27

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
        TrainConfig(self.epochs, self.learning_rate, 0)  # the epochs and learning-rate checks of local training

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
        # Every field is a number, or None where optional.
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
        if min(self.per_sample_train_s, self.per_sample_val_s) <= 0:
            raise ValidationError("per-sample costs must be positive")
        if min(self.model_bytes, self.bandwidth_bps) <= 0:
            raise ValidationError("model_bytes and bandwidth_bps must be positive")
        if self.jitter_sigma < 0:
            raise ValidationError("jitter_sigma must be >= 0")
        if self.timeout_factor is not None and not self.timeout_factor > 1:
            raise ValidationError("timeout_factor must be > 1 (or None to disable drops)")
        if self.inject_round is not None and self.inject_round < 1:
            raise ValidationError("inject_round must be >= 1 (or None to disable injection)")
        if self.inject_factor <= 0:
            raise ValidationError("inject_factor must be positive")


@dataclass(frozen=True)
class PartitionSource:
    """A cohort read from a `Subject_ID,Partition_ID` partition CSV."""

    path: str


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
    # How many of `weights` are below 0, counted from them; no artifact holds it.
    negative_weights: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "negative_weights", sum(w < 0 for _, w in self.weights))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 7
    cohort: CohortSpec | PartitionSource = field(default_factory=CohortSpec)
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
        if not math.isfinite(self.z):
            raise ValidationError("z must be finite")
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
        # Which entries cover a round changes only at round 1, at an entry's
        # first round and after its last, so the first round these rules
        # reject is one of those.
        changes = {1, *(entry.first_round for entry in self.schedule)}
        changes.update(entry.last_round + 1 for entry in self.schedule if entry.last_round is not None)
        for round_index in sorted(r for r in changes if r <= self.max_rounds):
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


def sample_timings(
    plan: TaskPlan,
    round_index: int,
    epochs: int,
    val_sizes: Sequence[int],
    profile: TimingProfile,
    rngs: Iterable[np.random.Generator],
) -> np.ndarray:
    """A round's simulated seconds: one row per participant in plan order,
    columns download, pre-val, train and post-val.

    Each row is its base costs times one draw of four log-normals from that
    participant's generator (the same values as four scalar draws). In the
    injection round, the row of the participant at `inject_rank` in id order
    (negative ranks count from the end, where the largest primaries sit) is
    multiplied by `inject_factor`. The draws are scaled in place by an array
    of the base costs, each a factor of one scalar product: the same bits.
    """
    times = np.empty((len(plan.participants), 4))
    for i, (participant, val_size, rng) in enumerate(zip(plan.participants, val_sizes, rngs, strict=True)):
        if participant.quota < 1 or epochs < 1 or val_size < 1:
            raise ValidationError("quota, epochs, val_size must be >= 1")
        times[i] = rng.lognormal(profile.jitter_mu, profile.jitter_sigma, size=4)
    base = np.empty_like(times)
    base[:, 0] = profile.model_bytes / profile.bandwidth_bps
    base[:, 1] = base[:, 3] = np.array(val_sizes, dtype=np.int64) * profile.per_sample_val_s
    quotas = np.array([participant.quota for participant in plan.participants], dtype=np.int64)
    base[:, 2] = quotas * epochs * profile.per_sample_train_s
    # As with Python floats, a product that overflows is inf (and 0 * inf
    # is nan) with no warning; the check below refuses both.
    with np.errstate(over="ignore", invalid="ignore"):
        times *= base
        if profile.inject_round == round_index:
            ordered = sorted(plan.node_ids())
            if not -len(ordered) <= profile.inject_rank < len(ordered):
                raise ValidationError(
                    f"timing.inject_rank {profile.inject_rank} is outside the"
                    f" {len(ordered)} participants of round {round_index}"
                )
            times[plan.node_ids().index(ordered[profile.inject_rank])] *= profile.inject_factor
    if not (np.isfinite(times).all() and (times >= 0).all()):
        raise ValidationError("timing components must be finite and non-negative")
    return times


def detect_stragglers(times: np.ndarray, timeout_factor: float) -> np.ndarray:
    """Mask of the rows whose total time exceeds timeout_factor times the
    lower median total, `sorted(totals)[(n - 1) // 2]`.

    The lower median is one row's own total, and that row is never above
    its own scaled threshold, so this can never drop everyone. With two
    rows it is the faster one's total, so a slow partner can be dropped.
    """
    if not len(times):
        raise ValidationError("need at least one timing")
    if not timeout_factor > 1:
        raise ValidationError("timeout_factor must be > 1")
    # In component order: `times.sum(axis=1)` may associate differently and move a drop.
    totals = times[:, 0] + times[:, 1] + times[:, 2] + times[:, 3]
    return totals > timeout_factor * np.sort(totals)[(len(totals) - 1) // 2]


def round_time(times: np.ndarray) -> float:
    """Componentwise maxima over the surviving rows, summed."""
    if not len(times):
        raise ValidationError("round_time needs at least one timing row")
    download, pre_val, train, post_val = times.max(axis=0).tolist()
    return download + pre_val + train + post_val


def _build_cohort(config: ExperimentConfig) -> tuple[PartitionTable, BlobGeometry]:
    spec = config.cohort
    if isinstance(spec, PartitionSource):
        table = load_partition_csv(spec.path)
        return table, synthesize_shards(table, config.seed, config.n_classes, config.feature_dim)
    # A `CohortSpec`'s fields are the cohort generator's first arguments, in order.
    return generate_synthetic_cohort(*vars(spec).values(), config.seed, config.n_classes, config.feature_dim)


def _val_size(count: int) -> int:
    return max(_VAL_MIN, min(_VAL_MAX, round(_VAL_FRACTION * count)))


def _plan_run(
    config: ExperimentConfig,
    table: PartitionTable,
    classification: NodeClassification,
    lam: float,
    node_index: dict[str, int],
) -> tuple[list[tuple[int, PhaseEntry, TaskPlan, np.ndarray, float, slice]], list[TaskParticipant], np.ndarray]:
    """The plan pass: per round, until max_rounds or the round whose time
    reaches the cap, its phase number and phase, task, straggler mask (plan
    order), round time (> 0, finite in sum) and its survivors' rows; and
    the run-wide rows, every round's survivors in plan order, as their
    `TaskParticipant`s and their training seeds (uint64).

    It reads neither the model nor any shard. A round's drops sit out the
    next round, and a primary's window moves on by its quota. One
    `seed_states` call a round makes each participant's training seed
    (`SeedSequence([seed, _TRAIN_SALT, round, node]).generate_state(1,
    np.uint64)`) and timing stream, keyed by node index: keys of one width,
    so one pass. A dropped straggler never trains, so only the survivors'
    rows are kept; the training pass hashes their seeds in one pass.
    """
    rounds = []
    kept: list[TaskParticipant] = []
    seeds = [np.empty(0, np.uint64)]
    offsets: dict[str, int] = {}
    blacklist: frozenset[str] = frozenset()
    cumulative = 0.0
    for round_index in range(1, config.max_rounds + 1):
        phase_number, phase = phase_for_round(config.schedule, round_index)
        plan = compose_task(
            round_index,
            classification,
            phase if config.participation == PARTICIPATION_TASK else None,
            lam,
            config.margin_fraction,
            table,
            blacklist=blacklist,
            rng_seed=config.seed,
            offsets=offsets,
        )
        insts = plan.node_ids()
        n = max((p.quota for p in plan.participants), default=0)
        rows = sum(p.quota for p in plan.participants)
        if n * phase.epochs >= 2**63:  # training and `sample_timings` count them in int64
            raise ValidationError(f"schedule phase {phase_number}: epochs = {phase.epochs} times {n} rows passes 2**63")
        if rows * phase.epochs > _MAX_ORDER_ENTRIES:
            raise ValidationError(
                f"schedule phase {phase_number}: epochs = {phase.epochs} times the {rows} rows of round"
                f" {round_index} passes {_MAX_ORDER_ENTRIES} batch-order entries"
            )
        nodes = np.array([node_index[inst] for inst in insts], dtype=np.uint64)
        keys = [((config.seed, _TRAIN_SALT, round_index), nodes), ((config.seed, _TIMING_SALT, round_index), nodes)]
        train_states, timing_states = np.split(seed_states(keys), 2)
        val_sizes = [_val_size(table.counts[inst]) for inst in insts]
        times = sample_timings(plan, round_index, phase.epochs, val_sizes, config.timing, generators(timing_states))
        timeout = config.timing.timeout_factor
        slow = np.zeros(len(insts), dtype=bool) if timeout is None else detect_stragglers(times, timeout)
        elapsed = round_time(times[~slow])
        cumulative += elapsed
        # Log-normal factors that underflow to 0 give a round no time, which the score divides by.
        if not elapsed > 0:
            raise ValidationError(f"round {round_index} has a simulated time of {elapsed}, not a positive one")
        if not math.isfinite(cumulative):
            raise ValidationError(f"round {round_index} brings the cumulative simulated time to {cumulative}")
        first = len(kept)
        kept.extend(compress(plan.participants, (~slow).tolist()))
        seeds.append(train_states[~slow, 0])
        rounds.append((phase_number, phase, plan, slow, elapsed, slice(first, len(kept))))
        for p in plan.participants:
            if p.quota < table.counts[p.institution_id]:
                offsets[p.institution_id] = (p.shard_offset + p.quota) % table.counts[p.institution_id]
        blacklist = frozenset(compress(insts, slow.tolist()))
        if cumulative >= config.max_simulated_time_s:
            break
    return rounds, kept, np.concatenate(seeds)


def _build_store(
    seed: int, table: PartitionTable, geometry: BlobGeometry, node_index: dict[str, int], insts: Sequence[str]
) -> tuple[DataShard, np.ndarray]:
    """The one store of `insts`' rows, every training shard and then every
    validation shard, and a (4, len(insts)) layout whose column i holds
    insts[i]'s training start and count and validation start and count. One
    pass seeds each training stream, `(seed, _SHARD_SALT, table position)`,
    and validation stream, `(seed, _NODE_VAL_SALT, node index)`, and one
    `make_blob_shards` call draws every shard from its stream."""
    position = {inst: i for i, inst in enumerate(table.counts)}
    shard_keys = ((seed, _SHARD_SALT), [position[inst] for inst in insts])
    val_keys = ((seed, _NODE_VAL_SALT), [node_index[inst] for inst in insts])
    sizes = [table.counts[inst] for inst in insts]
    counts = np.array(sizes + [_val_size(size) for size in sizes], dtype=np.int64)
    store = make_blob_shards(counts.tolist(), geometry, generators(seed_states([shard_keys, val_keys])))
    starts, n = np.cumsum(counts) - counts, len(insts)
    return store, np.array([starts[:n], counts[:n], starts[n:], counts[n:]])


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Plan every round, then train them; return per-round records plus the
    final model.

    The plan pass (`_plan_run`) decides each round without the model: the
    phase, the task (stragglers from the previous round sit out exactly one
    round), the timings, the drops and the round time, and stops at
    max_rounds or once simulated time reaches the cap. So a config fault in
    any round is raised before anything trains. The training pass stores
    every survivor's data, builds one table of every round's jobs, their
    streams hashed in one pass, and checks it once against the store, so a
    job-row fault is raised before any round trains too. Then per round it
    trains the survivors' row range, merges them with the configured
    strategy and scores the global model on a fixed held-out shard.
    """
    table, geometry = _build_cohort(config)
    poisson = fit_poisson(table)
    classification = classify_nodes(table, poisson, config.z)
    node_index = {inst: i for i, inst in enumerate(sorted(table.counts))}
    rounds, kept, seeds = _plan_run(config, table, classification, poisson.lam, node_index)

    holdout_n = max(32, round(config.holdout_fraction * table.total))
    holdout = make_blob_shard(holdout_n, geometry, np.random.default_rng([config.seed, _HOLDOUT_SALT]))
    # Every survivor's data, in the order the rounds first name them.
    ids = tuple(p.institution_id for p in kept)
    slot = {inst: i for i, inst in enumerate(dict.fromkeys(ids))}
    store, layout = _build_store(config.seed, table, geometry, node_index, list(slot))
    # Each round trains a row range of this table, not checked again.
    offsets, quotas = [p.shard_offset for p in kept], [p.quota for p in kept]
    jobs = RoundJobs(ids, *layout[:, [slot[inst] for inst in ids]], offsets, quotas, seed_states([((), seeds)]))
    model = ModelParams.zeros(config.model_dim)
    _check_round(model, store, jobs)

    history = CostHistory(history_window=config.strategy.history_window)
    records: list[RoundRecord] = []
    cumulative = best = weighted_best = 0.0

    for round_index, (phase_number, phase, plan, slow, elapsed, rows) in enumerate(rounds, start=1):
        # In plan order: `aggregate` sums the rows in node-id order itself.
        survivors = _train_checked(model, store, jobs._rows(rows), phase.epochs, phase.learning_rate, config.batch_size)

        result = compute_weights(config.strategy, survivors, history)
        model = aggregate(survivors, result.weights)
        for node_id, post_cost in zip(survivors.node_ids, survivors.costs[-1].tolist()):
            history.record(node_id, post_cost)

        predictions = predict_labels(model, holdout)
        dice_per_class = tuple(dice_score(predictions, holdout.labels, cls) for cls in range(1, config.n_classes))
        mean_dice = float(np.mean(dice_per_class))
        cumulative += elapsed
        best = max(best, mean_dice)
        weighted_best += best * elapsed

        records.append(
            RoundRecord(
                round_index=round_index,
                phase=phase_number,
                epochs=phase.epochs,
                participants=plan.node_ids(),
                dropped=tuple(sorted(compress(plan.node_ids(), slow.tolist()))),
                weights=tuple(zip(survivors.node_ids, result.weights)),
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
        # Free this round's updates before the next round trains.
        del survivors, result

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
