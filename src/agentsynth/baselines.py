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

from .dataset import (AgentPool, code_dtype, codes_to_pool, draw_categories, pool_to_codes,
                      view_counts)
from .errors import DataError


@dataclass(frozen=True)
class MarginalModel:
    """Per-variable empirical probability vectors over category/bin codes."""

    schema: object
    probs: tuple[np.ndarray, ...]


def fit_marginals(train: AgentPool) -> MarginalModel:
    if len(train) == 0:
        raise DataError("cannot fit marginals on an empty pool")
    counts, offsets = view_counts(pool_to_codes(train), train.schema.value_counts,
                                  [(j,) for j in range(train.schema.n_variables)])
    return MarginalModel(train.schema, tuple(np.split(counts / len(train), offsets[1:-1])))


def marginal_sample(model: MarginalModel, count: int, rng_or_seed) -> AgentPool:
    """Each variable drawn independently; numeric bins become bin-uniform
    raw values."""
    rng = np.random.default_rng(rng_or_seed)
    schema = model.schema
    codes = np.zeros((count, schema.n_variables), dtype=code_dtype(schema.value_counts))
    for j, p in enumerate(model.probs):
        codes[:, j] = draw_categories(p, rng.random(count))
    return codes_to_pool(codes, schema, provenance="generated", rng=rng)


def resample_training(train: AgentPool, count: int, rng_or_seed) -> AgentPool:
    """I.i.d. uniform draws with replacement from the training rows; every
    emitted row is verbatim a training row."""
    if len(train) == 0:
        raise DataError("cannot resample an empty pool")
    rng = np.random.default_rng(rng_or_seed)
    return train.take(rng.integers(0, len(train), size=count), "generated")
