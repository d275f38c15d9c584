"""Reference implementations that only the tests use."""

import numpy as np

from agentsynth.bayesnet import MAX_TABLE_CELLS, CptSet, Dag
from agentsynth.errors import DataError


def joint_distribution(dag: Dag, cpts: CptSet) -> np.ndarray:
    """Exact joint of a Bayesian network over the full product space, one
    cell at a time, for small variable counts."""
    counts = cpts.value_counts
    size = int(np.prod(counts))
    if size > MAX_TABLE_CELLS:
        raise DataError(f"joint of {size} cells is too large to enumerate")
    joint = np.zeros(counts)
    for combo in np.ndindex(*counts):
        p = 1.0
        for node in range(dag.n_nodes):
            pa = dag.parents[node]
            if pa:
                parent_widths = [counts[q] for q in pa]
                row = int(np.ravel_multi_index([np.array([combo[q]]) for q in pa],
                                               parent_widths)[0])
            else:
                row = 0
            p *= cpts.tables[node][row, combo[node]]
        joint[combo] = p
    return joint


def rmsprop_per_block(params: list[np.ndarray], grads: list[np.ndarray],
                      accumulators: list[np.ndarray], learning_rate: float,
                      rho: float = 0.9, epsilon: float = 1e-8) -> None:
    """RMSprop over a list of parameter blocks, one block at a time and in
    place: acc <- rho*acc + (1-rho)*g^2; p <- p - lr*g/sqrt(acc+eps)."""
    for p, g, acc in zip(params, grads, accumulators):
        t = (1.0 - rho) * g
        t *= g
        acc *= rho
        acc += t
        np.sqrt(np.add(acc, epsilon, out=t), out=t)
        step = learning_rate * g
        step /= t
        p -= step
