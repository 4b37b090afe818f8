"""Small builders shared across test modules."""

from unittest import mock

import numpy as np

from fedpod import engine
from fedpod.params import (
    DataShard,
    RoundUpdates,
    _bind_costs,
    _bind_step,
    _gradient_views,
    _stacked_gradient,
    _step_scratch,
)
from fedpod.selection import ROLE_PRIMARY, TaskParticipant, TaskPlan


def stream(seed):
    """The batch-order stream of `default_rng(seed)`: numpy's own `SeedSequence` words."""
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


def build_update(node_id, data_size, *costs, params=(0.0,)):
    """One node's update whose validation costs at its epoch boundaries are
    `costs`, pre-training cost first and post-training cost last."""
    return RoundUpdates((node_id,), [params], [data_size], np.array(costs, dtype=float)[:, None])


def round_of(updates):
    """One-node updates of equal epochs as one round, in the given order."""
    return RoundUpdates(
        sum((u.node_ids for u in updates), ()),
        np.concatenate([u.params for u in updates]),
        np.concatenate([u.sizes for u in updates]),
        np.concatenate([u.costs for u in updates], axis=1),
    )


def take(updates, index):
    """The nodes of `updates` at positions `index`, in that order, rebuilt through the checking constructor."""
    index = np.asarray(index, dtype=np.intp)
    node_ids = tuple(updates.node_ids[i] for i in index.tolist())
    return RoundUpdates(node_ids, updates.params[index], updates.sizes[index], updates.costs[:, index])


def random_updates(rng, n_nodes, dim=3):
    """A random-but-valid round of 1-4 epochs for property suites."""
    epochs = int(rng.integers(1, 5))
    return RoundUpdates(
        tuple(f"node{j:02d}" for j in range(n_nodes)),
        rng.standard_normal((n_nodes, dim)),
        rng.integers(1, 500, n_nodes),
        np.vstack([rng.uniform(0.05, 2.0, n_nodes), rng.uniform(0.0, 2.0, (epochs, n_nodes))]),
    )


def stacked_gradient(values, features, onehot, n_classes, feature_dim):
    """`_stacked_gradient` of the k models `values` on their batches, bound
    to fresh views and scratch, as a new (k, dim) gradient."""
    k, length = onehot.shape[:2]
    grad = np.empty_like(values)
    views = _gradient_views(values, grad, n_classes, feature_dim)
    _stacked_gradient(_bind_step(views, 0, k, features, onehot, _step_scratch(k, length, n_classes)))
    return grad


def stacked_cost(values, features, labels, n_classes, feature_dim):
    """The costs `_bind_costs` gives the k models `values` on k equal-size
    shards, (k, size, feature_dim) `features` and (k, size) `labels`, before
    the clip at 0."""
    shards = [DataShard(f, y) for f, y in zip(features, labels)]
    return _bind_costs(values, shards, n_classes, feature_dim)(np.empty(len(values)))


def engine_shards(table, geometry, seed, rounds):
    """Run the engine on `table` and `geometry` for one round per entry of
    `rounds`, a list of the institutions taking part in it, in plan order,
    each training on its whole shard. Returns, per round, the training
    shard of each job as {institution: shard}, and the sizes of each
    `engine.make_blob_shards` call."""
    plans = iter(
        [TaskPlan(tuple(TaskParticipant(inst, ROLE_PRIMARY, table.counts[inst], 0) for inst in insts)) for insts in rounds]
    )
    trained, batches = [], []
    train_round, make_blob_shards = engine.train_round, engine.make_blob_shards

    def recorded_round(model, jobs, *args):
        trained.append({job.node_id: job.shard for job in jobs})
        return train_round(model, jobs, *args)

    def recorded_batch(sizes, geometry, rngs):
        batches.append(list(sizes))
        return make_blob_shards(sizes, geometry, rngs)

    config = engine.ExperimentConfig(
        seed=seed, max_rounds=len(rounds), timing=engine.TimingProfile(timeout_factor=None)
    )
    with mock.patch.multiple(
        engine,
        _build_cohort=lambda _: (table, geometry),
        compose_task=lambda *args, **kwargs: next(plans),
        train_round=recorded_round,
        make_blob_shards=recorded_batch,
    ):
        engine.run_experiment(config)
    return trained, batches
