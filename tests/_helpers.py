"""Small builders shared across test modules."""

from typing import NamedTuple

import numpy as np

from fedpod import engine
from fedpod.params import (
    DataShard,
    RoundJobs,
    RoundUpdates,
    _bind_costs,
    _bind_step,
    _gradient_views,
    _stacked_gradient,
    _step_scratch,
)


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
    shards, (k, size, feature_dim) `features` and (k, size) `labels`, laid
    into one store, before the clip at 0."""
    k, size = labels.shape
    store = DataShard(features.reshape(k * size, feature_dim), labels.reshape(-1))
    starts, counts = np.arange(k) * size, np.full(k, size)
    return _bind_costs(values, store, starts, counts, n_classes, feature_dim)(np.empty(k))


class Job(NamedTuple):
    """One node of a round as a test writes it: its own training and
    validation shards, its stream and its window; a quota of None is the
    whole shard."""

    node_id: str
    shard: DataShard
    val: DataShard
    stream: np.ndarray
    offset: int = 0
    quota: int | None = None


def lay_out(jobs, order=None, spare=()):
    """`train_round`'s store and columns for `jobs`: every job's training
    shard in job order, then every job's validation shard, then the `spare`
    shards that no job reads, laid back to back into one store in that order
    or in `order`, positions into it; and the `RoundJobs` that place each
    job's rows."""
    shards = [job.shard for job in jobs] + [job.val for job in jobs] + list(spare)
    order = range(len(shards)) if order is None else order
    laid = [shards[i] for i in order]
    counts = [len(shard) for shard in laid]
    at, n = dict(zip(order, np.cumsum(counts) - counts)), len(jobs)
    store = DataShard(np.concatenate([s.features for s in laid]), np.concatenate([s.labels for s in laid]))
    columns = RoundJobs(
        tuple(job.node_id for job in jobs),
        [at[i] for i in range(n)],
        [len(job.shard) for job in jobs],
        [at[n + i] for i in range(n)],
        [len(job.val) for job in jobs],
        [job.offset for job in jobs],
        [len(job.shard) if job.quota is None else job.quota for job in jobs],
        np.array([job.stream for job in jobs]),
    )
    return store, columns


def stored_shards(seed, table, geometry, insts):
    """The training rows and the validation rows of each of `insts` in the
    one store the engine builds for them, as two {institution: shard} maps."""
    node_index = {inst: i for i, inst in enumerate(sorted(table.counts))}
    store, layout = engine._build_store(seed, table, geometry, node_index, insts)
    shards: tuple[dict, dict] = ({}, {})
    for inst, (lo, n, val_lo, val_n) in zip(insts, layout.T.tolist(), strict=True):
        shards[0][inst] = DataShard(store.features[lo : lo + n], store.labels[lo : lo + n])
        shards[1][inst] = DataShard(store.features[val_lo : val_lo + val_n], store.labels[val_lo : val_lo + val_n])
    return shards
