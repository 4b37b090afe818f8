"""Small builders shared across test modules."""

import numpy as np

from fedpod.params import RoundUpdates


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


def random_updates(rng, n_nodes, dim=3):
    """A random-but-valid round of 1-4 epochs for property suites."""
    epochs = int(rng.integers(1, 5))
    return RoundUpdates(
        tuple(f"node{j:02d}" for j in range(n_nodes)),
        rng.standard_normal((n_nodes, dim)),
        rng.integers(1, 500, n_nodes),
        np.vstack([rng.uniform(0.05, 2.0, n_nodes), rng.uniform(0.0, 2.0, (epochs, n_nodes))]),
    )
