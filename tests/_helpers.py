"""Small builders shared across test modules."""

import numpy as np

from fedpod.params import CostTrajectory, LocalUpdate, ModelParams


def build_update(node_id, data_size, *costs, params=(0.0,)):
    """An update whose validation costs at its epoch boundaries are `costs`,
    pre-training cost first and post-training cost last."""
    return LocalUpdate(
        node_id=node_id,
        params=ModelParams(np.asarray(params, dtype=float)),
        data_size=data_size,
        trajectory=CostTrajectory(costs),
    )


def random_updates(rng, n_nodes, dim=3):
    """Random-but-valid update sets for property suites."""
    updates = []
    for j in range(n_nodes):
        pre = float(rng.uniform(0.05, 2.0))
        post = float(rng.uniform(0.0, 2.0))
        inner = [float(rng.uniform(0.0, 2.0)) for _ in range(int(rng.integers(0, 4)))]
        updates.append(
            build_update(
                f"node{j:02d}",
                int(rng.integers(1, 500)),
                pre,
                *inner,
                post,
                params=rng.standard_normal(dim),
            )
        )
    return updates
