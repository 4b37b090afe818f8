"""Node-by-node references the columnar code must match bit for bit.

Sequential one-node SGD: these are the per-node kernels `train_round`
batches: one model, one batch per step, one `default_rng(cfg.seed)` stream
of batch orders. They live here so the simulator keeps one trainer; tests
compare it against this oracle. `step_ranges` groups one block's epoch
into steps and `step_plan` lists each step's positions: the references for
the flat plan `train_round` lays out. `np.argmax` of `_logits` is the
reference for `predict_labels`.

The scalar weight rules: FedAvg, FedPIDAvg and FedPOD written node by node
over Python floats, with the per-node trapezoid, as the reference for the
column rules of `fedpod.aggregation`.

`plan_reference`: a run's plan (participants, drops and round times) drawn
node by node from numpy's own streams, as the reference for the engine's
batched plan pass. `run_reference`: the whole run on that plan, each node's
shards and training seed drawn from its own stream, trained by
`train_local` on its window, weighed by the scalar rules, merged as scalars
and scored with `np.argmax` of `_logits` and a set-based Dice, as the
reference for `engine.run_experiment`. Every generator of the two comes from
`_stream`.
"""

import math
from dataclasses import dataclass

import numpy as np

from fedpod import engine
from fedpod.aggregation import (
    FALLBACK_DERIVATIVE,
    FALLBACK_INTEGRAL,
    KIND_FEDAVG,
    KIND_FEDPIDAVG,
    WeightResult,
)
from fedpod.cohort import fit_poisson
from fedpod.errors import TrainingDivergenceError, ValidationError
from fedpod.params import (
    DataShard,
    ModelParams,
    RoundUpdates,
    TrainConfig,
    _classifier_dims,
)
from fedpod.selection import classify_nodes, compose_task


def _logits(values: np.ndarray, features: np.ndarray, n_classes: int, feature_dim: int) -> np.ndarray:
    w = values[: n_classes * feature_dim].reshape(n_classes, feature_dim)
    b = values[n_classes * feature_dim :]
    return features @ w.T + b


def _mean_cross_entropy(values: np.ndarray, shard: DataShard, n_classes: int, feature_dim: int) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        z = _logits(values, shard.features, n_classes, feature_dim)
        z = z - z.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(z).sum(axis=1))
        picked = z[np.arange(len(shard)), shard.labels]
        # Clip away the odd -1ulp rounding artefact; cost is non-negative by definition.
        return max(float(np.mean(log_norm - picked)), 0.0)


def _batch_gradient(
    values: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    feature_dim: int,
) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        z = _logits(values, features, n_classes, feature_dim)
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(labels)), labels] -= 1.0
        p /= len(labels)
        grad_w = p.T @ features
        grad_b = p.sum(axis=0)
        return np.concatenate([grad_w.ravel(), grad_b])


def step_ranges(sizes: np.ndarray, batch_size: int) -> list[tuple[int, np.ndarray, int]]:
    """One epoch's SGD steps over jobs of ascending training `sizes`, as
    (row offset, jobs, length): at each batch offset, the jobs that still
    have rows there, grouped by the length of their batch at it, shortest
    first. Found job by job with `flatnonzero` masks, not by bisecting the
    sorted sizes as `fedpod.params._step_plan` does."""
    n_steps = -(-sizes // batch_size)
    last_length = sizes - (n_steps - 1) * batch_size
    steps = []
    for step in range(int(n_steps.max())):
        lengths = np.where(n_steps > step + 1, batch_size, last_length)
        for length in np.unique(lengths[n_steps > step]):
            jobs = np.flatnonzero((n_steps > step) & (lengths == length))
            steps.append((step * batch_size, jobs, int(length)))
    return steps


def step_plan(sizes: np.ndarray, batch_size: int) -> list[tuple[int, int, np.ndarray]]:
    """One epoch's SGD steps over jobs of ascending training `sizes`, whose
    rows lie back to back, step by step: (jobs lo:hi, the (hi - lo, length)
    positions of their batches in the epoch's shuffled rows), from
    `step_ranges`. The reference for the flat plan of
    `fedpod.params._step_plan`."""
    starts = np.cumsum(sizes) - sizes
    return [
        (int(jobs[0]), int(jobs[-1]) + 1, (starts[jobs] + offset)[:, None] + np.arange(length))
        for offset, jobs, length in step_ranges(sizes, batch_size)
    ]


class StreamSeed(np.random.bit_generator.ISeedSequence):
    """A seed for `default_rng` made from a job's stream, its 4 uint64 words.

    numpy's PCG64 seeds itself from `generate_state(4, np.uint64)` of its
    seed sequence, so `default_rng(StreamSeed(words))` is `default_rng(seed)`
    where `words` is `SeedSequence(seed).generate_state(4, np.uint64)`.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        assert (n_words, np.dtype(dtype)) == (4, np.uint64)
        return self.words.copy()


def train_local(
    start: ModelParams,
    shard: DataShard,
    val: DataShard,
    cfg: TrainConfig,
    node_id: str = "local",
) -> RoundUpdates:
    """Mini-batch SGD from `start` over `shard` for cfg.epochs, as one node's
    `RoundUpdates`.

    Batch order is shuffled by the node's own `default_rng(cfg.seed)`
    stream, so the result is bit-reproducible for a fixed cfg.seed, which
    may be any seed `default_rng` takes, a `StreamSeed` among them.
    Validation cost is sampled at every epoch boundary, giving the costs the
    aggregation integral needs.
    This is the single-node reference that `train_round` reproduces bit for
    bit.
    """
    n_classes, feature_dim = _classifier_dims(start, shard)
    _classifier_dims(start, val)
    if max(shard.labels.max(), val.labels.max()) >= n_classes:
        raise ValidationError(f"a label is out of range for {n_classes} classes")
    rng = np.random.default_rng(cfg.seed)
    values = start.values.copy()

    def sample(epoch: int) -> float:
        cost = _mean_cross_entropy(values, val, n_classes, feature_dim)
        if not math.isfinite(cost):
            raise TrainingDivergenceError(node_id, f"validation cost at epoch {epoch}")
        return cost

    costs = [sample(0)]
    n = len(shard)
    # Overflow surfaces as the divergence checks' error, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                grad = _batch_gradient(values, shard.features[idx], shard.labels[idx], n_classes, feature_dim)
                if not np.all(np.isfinite(grad)):
                    raise TrainingDivergenceError(node_id, f"gradient at epoch {epoch + 1}")
                values -= cfg.learning_rate * grad
                if not np.all(np.isfinite(values)):
                    raise TrainingDivergenceError(node_id, f"parameters at epoch {epoch + 1}")
            costs.append(sample(epoch + 1))
    return RoundUpdates((node_id,), values[None], [n], np.array(costs)[:, None])


@dataclass(frozen=True)
class Node:
    """One node's column of a `RoundUpdates`, as Python numbers."""

    node_id: str
    data_size: int
    costs: tuple[float, ...]

    @property
    def pre_cost(self) -> float:
        return self.costs[0]

    @property
    def post_cost(self) -> float:
        return self.costs[-1]


def per_node(updates: RoundUpdates) -> list[Node]:
    return [
        Node(node_id, size, tuple(costs))
        for node_id, size, costs in zip(updates.node_ids, updates.sizes.tolist(), updates.costs.T.tolist())
    ]


def trapezoid(costs) -> float:
    """Trapezoidal integral of cost over the training fraction in [0, 1].

    Each step spans (e + 1) / n - e / n, which is not always 1 / n in
    floating point.
    """
    n = len(costs) - 1
    total = 0.0
    for e, (c0, c1) in enumerate(zip(costs, costs[1:])):
        total += 0.5 * (c0 + c1) * ((e + 1) / n - e / n)
    return total


def _data_shares(nodes):
    if not nodes:
        raise ValidationError("need at least one update")
    total = sum(u.data_size for u in nodes)
    return [u.data_size / total for u in nodes]


def fedavg_weights(updates):
    return WeightResult(tuple(_data_shares(per_node(updates))))


def _blend(shares, strategy, k_terms, m_terms):
    alpha = strategy.alpha
    fallbacks = []
    k_total = math.fsum(k_terms)
    use_derivative = strategy.beta > 0
    if use_derivative and k_total <= 0:
        alpha += strategy.beta
        use_derivative = False
        fallbacks.append(FALLBACK_DERIVATIVE)
    m_total = math.fsum(m_terms)
    use_integral = strategy.gamma > 0
    if use_integral and m_total <= 0:
        alpha += strategy.gamma
        use_integral = False
        fallbacks.append(FALLBACK_INTEGRAL)
    weights = []
    for share, k, m in zip(shares, k_terms, m_terms):
        w = alpha * share
        if use_derivative:
            w += strategy.beta * (k / k_total)
        if use_integral:
            w += strategy.gamma * (m / m_total)
        weights.append(w)
    return WeightResult(tuple(weights), tuple(fallbacks))


def fedpid_weights(updates, history, strategy):
    nodes = per_node(updates)
    shares = _data_shares(nodes)
    k_terms = []
    m_terms = []
    for update in nodes:
        previous = history.last(update.node_id)
        if previous is None:
            previous = update.pre_cost
        k_terms.append(previous - update.post_cost)
        window = history.recent(update.node_id, strategy.history_window - 1) + (update.post_cost,)
        m_terms.append(sum(window))
    return _blend(shares, strategy, k_terms, m_terms)


def fedpod_weights(updates, strategy):
    nodes = per_node(updates)
    shares = _data_shares(nodes)
    k_terms = [share * (u.pre_cost - u.post_cost) for share, u in zip(shares, nodes)]
    m_terms = [share * trapezoid(u.costs) for share, u in zip(shares, nodes)]
    return _blend(shares, strategy, k_terms, m_terms)


def compute_weights(strategy, updates, history):
    if strategy.kind == KIND_FEDAVG:
        return fedavg_weights(updates)
    if strategy.kind == KIND_FEDPIDAVG:
        return fedpid_weights(updates, history, strategy)
    return fedpod_weights(updates, strategy)


def _stream(*key):
    """numpy's own generator of one entropy key."""
    return np.random.default_rng(list(key))


def plan_reference(config):
    """Per round of `config`'s run: its phase number, phase, task plan,
    dropped ids (sorted), round time and cumulative time, planned node by
    node over scalars.

    Each round calls `compose_task`. A participant's four timings are its
    base costs times four scalar log-normal draws from
    `default_rng([seed, _TIMING_SALT, round, node index])`, and the injected
    participant's are then times `inject_factor`. A participant whose total
    exceeds `timeout_factor` times the lower median total is dropped and
    sits out the next round. The round time sums the survivors' column
    maxima and must be positive, the cumulative time must stay finite, and
    the run stops at max_rounds or once the cumulative time reaches the cap.
    """
    table, _ = engine._build_cohort(config)
    poisson = fit_poisson(table)
    classification = classify_nodes(table, poisson, config.z)
    node_index = {inst: i for i, inst in enumerate(sorted(table.counts))}
    profile = config.timing
    rounds = []
    offsets = {}
    blacklist = frozenset()
    cumulative = 0.0
    for round_index in range(1, config.max_rounds + 1):
        phase_number, phase = engine.phase_for_round(config.schedule, round_index)
        entry = phase if config.participation == engine.PARTICIPATION_TASK else None
        plan = compose_task(
            round_index,
            classification,
            entry,
            poisson.lam,
            config.margin_fraction,
            table,
            blacklist=blacklist,
            rng_seed=config.seed,
            offsets=offsets,
        )
        insts = plan.node_ids()
        injected = None
        if profile.inject_round == round_index:
            if not -len(insts) <= profile.inject_rank < len(insts):
                raise ValidationError(
                    f"timing.inject_rank {profile.inject_rank} is outside the"
                    f" {len(insts)} participants of round {round_index}"
                )
            injected = sorted(insts)[profile.inject_rank]
        rows = []
        for p in plan.participants:
            rng = _stream(config.seed, engine._TIMING_SALT, round_index, node_index[p.institution_id])
            val_s = engine._val_size(table.counts[p.institution_id]) * profile.per_sample_val_s
            base = (
                profile.model_bytes / profile.bandwidth_bps,
                val_s,
                p.quota * phase.epochs * profile.per_sample_train_s,
                val_s,
            )
            row = [float(rng.lognormal(profile.jitter_mu, profile.jitter_sigma)) * cost for cost in base]
            if p.institution_id == injected:
                row = [value * profile.inject_factor for value in row]
            rows.append(row)
        totals = [download + pre_val + train + post_val for download, pre_val, train, post_val in rows]
        if profile.timeout_factor is None:
            slow = [False] * len(rows)
        else:
            threshold = profile.timeout_factor * sorted(totals)[(len(totals) - 1) // 2]
            slow = [total > threshold for total in totals]
        download, pre_val, train, post_val = (max(column) for column in zip(*(r for r, s in zip(rows, slow) if not s)))
        elapsed = download + pre_val + train + post_val
        if not elapsed > 0:
            raise ValidationError(f"round {round_index} has a simulated time of {elapsed}, not a positive one")
        cumulative += elapsed
        if not math.isfinite(cumulative):
            raise ValidationError(f"round {round_index} brings the cumulative simulated time to {cumulative}")
        dropped = tuple(sorted(inst for inst, s in zip(insts, slow) if s))
        rounds.append((phase_number, phase, plan, dropped, elapsed, cumulative))
        for p in plan.participants:
            if p.quota < table.counts[p.institution_id]:
                offsets[p.institution_id] = (p.shard_offset + p.quota) % table.counts[p.institution_id]
        blacklist = frozenset(dropped)
        if cumulative >= config.max_simulated_time_s:
            break
    return rounds


class _History(dict):
    """Every post-training cost of each node, oldest first, as the scalar
    FedPIDAvg rule reads it."""

    def last(self, node_id):
        return self[node_id][-1] if node_id in self else None

    def recent(self, node_id, n):
        return tuple(self.get(node_id, [])[-n:]) if n > 0 else ()


def _blob_shard(n, geometry, rng):
    """n samples from `rng`: labels by `choice` over the class priors, then
    each row's class center plus its class scales times standard normals."""
    labels = rng.choice(geometry.n_classes, size=n, p=geometry.class_probs)
    noise = rng.standard_normal((n, geometry.centers.shape[1]))
    return DataShard(geometry.centers[labels] + geometry.scales[labels] * noise, labels)


def run_reference(config):
    """`config`'s run, node by node over scalars: (records, summary, final
    model), built on `plan_reference`.

    A node's training shard is drawn from `(seed, _SHARD_SALT, table
    position)`, its validation shard from `(seed, _NODE_VAL_SALT, node
    index)` and the holdout from `(seed, _HOLDOUT_SALT)`. Each round's
    survivors train in plan order with `train_local` on their windows, rows
    `(offset + k) % n` for k < quota, each seeded by
    `SeedSequence([seed, _TRAIN_SALT, round, node]).generate_state(1, np.uint64)`.
    The round is weighed by `compute_weights` with every earlier post cost
    of its nodes, merged as scalar sums in node-id order, and scored on the
    holdout.
    """
    table, geometry = engine._build_cohort(config)
    poisson = fit_poisson(table)
    classification = classify_nodes(table, poisson, config.z)
    node_index = {inst: i for i, inst in enumerate(sorted(table.counts))}
    position = {inst: i for i, inst in enumerate(table.counts)}
    n_classes, feature_dim = config.n_classes, config.feature_dim
    holdout_n = max(32, round(config.holdout_fraction * table.total))
    holdout = _blob_shard(holdout_n, geometry, _stream(config.seed, engine._HOLDOUT_SALT))
    values = [0.0] * config.model_dim
    history = _History()
    records = []
    best = weighted_best = 0.0
    for round_index, (phase_number, phase, plan, dropped, elapsed, cumulative) in enumerate(
        plan_reference(config), start=1
    ):
        updates = []
        for p in plan.participants:
            inst = p.institution_id
            if inst in dropped:
                continue
            count, node = table.counts[inst], node_index[inst]
            shard = _blob_shard(count, geometry, _stream(config.seed, engine._SHARD_SALT, position[inst]))
            val = _blob_shard(engine._val_size(count), geometry, _stream(config.seed, engine._NODE_VAL_SALT, node))
            rows = [(p.shard_offset + k) % count for k in range(p.quota)]
            seed_key = [config.seed, engine._TRAIN_SALT, round_index, node]
            seed = int(np.random.SeedSequence(seed_key).generate_state(1, np.uint64)[0])
            cfg = TrainConfig(phase.epochs, phase.learning_rate, seed, config.batch_size)
            window = DataShard(shard.features[rows], shard.labels[rows])
            updates.append(train_local(ModelParams(values), window, val, cfg, node_id=inst))
        survivors = RoundUpdates(
            tuple(u.node_ids[0] for u in updates),
            np.concatenate([u.params for u in updates]),
            [int(u.sizes[0]) for u in updates],
            np.concatenate([u.costs for u in updates], axis=1),
        )
        result = compute_weights(config.strategy, survivors, history)
        for node in per_node(survivors):
            history.setdefault(node.node_id, []).append(node.post_cost)
        values = [0.0] * config.model_dim
        for i in sorted(range(len(survivors)), key=survivors.node_ids.__getitem__):
            for j, value in enumerate(survivors.params[i].tolist()):
                values[j] += result.weights[i] * value
        predictions = np.argmax(_logits(np.array(values), holdout.features, n_classes, feature_dim), axis=1).tolist()
        truth = holdout.labels.tolist()
        dice = []
        for cls in range(1, n_classes):
            predicted = {i for i, label in enumerate(predictions) if label == cls}
            actual = {i for i, label in enumerate(truth) if label == cls}
            both = len(predicted) + len(actual)
            dice.append(2.0 * len(predicted & actual) / both if both else 1.0)
        mean_dice = float(np.mean(dice))
        best = max(best, mean_dice)
        weighted_best += best * elapsed
        records.append(
            engine.RoundRecord(
                round_index=round_index,
                phase=phase_number,
                epochs=phase.epochs,
                participants=plan.node_ids(),
                dropped=dropped,
                weights=tuple(zip(survivors.node_ids, result.weights)),
                dice_per_class=tuple(dice),
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
    total_time = records[-1].cumulative_time_s if records else 0.0
    summary = engine.Summary(
        strategy=config.strategy.kind,
        seed=config.seed,
        rounds_run=len(records),
        total_time_s=total_time,
        best_mean_dice=best,
        convergence_score=weighted_best / total_time if records else 0.0,
        total_dropped=sum(len(r.dropped) for r in records),
        fallback_rounds=sum(1 for r in records if r.fallbacks),
        n_institutions=len(table.counts),
        n_primary=len(classification.primary),
        n_secondary=len(classification.secondary),
        fitted_mean=poisson.lam,
        model_dim=config.model_dim,
    )
    return tuple(records), summary, ModelParams(values)
