"""Reference generators that bracket the methods under evaluation.

The marginal sampler draws every variable independently from its training
marginal: marginals come out perfect, every dependency is lost, so it
bounds the worst acceptable multivariate performance. Uniform resampling
of the training rows is the opposite extreme: the best achievable metric
scores, but zero capacity for out-of-sample agents (its nearest-sample
diversity is exactly zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import AgentPool, codes_to_pool, pool_to_codes
from .errors import DataError


@dataclass(frozen=True)
class MarginalModel:
    """Per-variable empirical probability vectors over category/bin codes."""

    schema: object
    probs: tuple[np.ndarray, ...]


def fit_marginals(train: AgentPool) -> MarginalModel:
    if len(train) == 0:
        raise DataError("cannot fit marginals on an empty pool")
    codes = pool_to_codes(train)
    probs = []
    for j, width in enumerate(train.schema.value_counts):
        counts = np.bincount(codes[:, j], minlength=width).astype(float)
        probs.append(counts / counts.sum())
    return MarginalModel(train.schema, tuple(probs))


def marginal_sample(model: MarginalModel, count: int, rng_or_seed) -> AgentPool:
    """Each variable drawn independently; numeric bins become bin-uniform
    raw values."""
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) \
        else np.random.default_rng(rng_or_seed)
    schema = model.schema
    codes = np.zeros((count, schema.n_variables), dtype=np.int64)
    for j, p in enumerate(model.probs):
        cum = np.cumsum(p)
        codes[:, j] = np.minimum((rng.random((count, 1)) * cum[-1] > cum).sum(axis=1),
                                 len(p) - 1)
    return codes_to_pool(codes, schema, provenance="generated", rng=rng)


def resample_training(train: AgentPool, count: int, rng_or_seed) -> AgentPool:
    """I.i.d. uniform draws with replacement from the training rows; every
    emitted row is verbatim a training row."""
    if len(train) == 0:
        raise DataError("cannot resample an empty pool")
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) \
        else np.random.default_rng(rng_or_seed)
    return train.take(rng.integers(0, len(train), size=count), "generated")
