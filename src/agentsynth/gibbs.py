"""Gibbs sampler with frequency-table full conditionals.

The conditionals P(x_i | x_-i) are estimated as frequency tables straight
from the training pool: for each variable, every context (the values of
all other variables) observed in training maps to a probability vector
proportional to the observed counts. A chain started from a training row
can only ever visit training rows, because any value with positive
conditional probability completes its context into an observed row. That
makes the sampler a pure replicator on fully categorical data, and it can
get trapped on probability islands: contexts with a point-mass conditional
never let the chain leave.

:func:`run_chain` uses that fact. Its state is an index into the unique
training rows; for each variable every unique row belongs to a context
group (the rows equal to it on all other variables), and one update is a
bisection into the group's cumulative conditional that lands directly on
the next row index. The tables passed in define those conditionals, so the
chain samples exactly the tables it is given. The start must be a training
row, and the tables must hold every training row's context and give
positive probability only to training rows; anything else is a DataError.
:func:`gibbs_step`, one scan by table lookup, is the reference the index
chain is tested against. The context groups also give the probability
islands: connected components of the unique training rows, two rows being
linked when they share a context group. Diagnostics report how many
islands there are and how many rows the chain's starting island holds.

Mixed schemas are handled by discretizing numerics with the schema bins
before table estimation; emitted bin draws become bin-uniform raw values.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .dataset import AgentPool, codes_to_pool, pool_to_codes
from .errors import ConfigError, DataError, UnreachableContextError

# Uniforms drawn per generator call in the chain. Drawing the whole
# chain's uniforms at once would hold about a million Python floats.
UNIFORM_BLOCK = 65536


@dataclass(frozen=True)
class ConditionalTable:
    """Full conditional for one variable: context tuple -> probabilities."""

    target: int
    table: dict[tuple, np.ndarray]


@dataclass(frozen=True)
class ChainConfig:
    target_count: int
    warmup: int = 20000
    thinning: int = 20
    init: str | tuple = "random-from-train"
    seed: int = 0

    def __post_init__(self):
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")
        if self.thinning < 1:
            raise ConfigError("thinning must be >= 1")
        if self.target_count < 0:
            raise ConfigError("target_count must be >= 0")


def _distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an integer matrix in lexicographic order, and the
    position of each input row among them (``np.unique(axis=0)`` without
    its slow structured-dtype sort)."""
    order = np.lexsort(matrix.T[::-1]) if matrix.shape[1] else np.arange(len(matrix))
    ordered = matrix[order]
    first = np.ones(len(matrix), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(matrix), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return ordered[first], ids


@dataclass(frozen=True)
class ContextGroups:
    """The unique rows of a code matrix and, per variable, their context groups.

    ``groups[i][r]`` is the group of unique row ``r`` for variable ``i``:
    rows share a group when they are equal on every column but ``i``.
    ``contexts[i][g]`` is group ``g``'s row with column ``i`` removed.
    """

    rows: np.ndarray
    counts: np.ndarray
    groups: list[np.ndarray]
    contexts: list[np.ndarray]

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> ContextGroups:
        rows, row_ids = _distinct_rows(codes)
        groups, contexts = [], []
        for i in range(rows.shape[1]):
            ctx, group = _distinct_rows(np.delete(rows, i, axis=1))
            groups.append(group)
            contexts.append(ctx)
        return cls(rows, np.bincount(row_ids), groups, contexts)

    def island_labels(self) -> np.ndarray:
        """Per unique row, the smallest row index of its probability island."""
        n = len(self.rows)
        labels = np.arange(n)
        while True:
            before = labels
            for group in self.groups:
                low = np.full(n, n)
                np.minimum.at(low, group, labels)
                labels = low[group]
            # each label names a row of the same island with a smaller or
            # equal index, so following labels twice stays in the island
            labels = labels[labels]
            if np.array_equal(labels, before):
                return labels

    def transitions(self, tables: list[ConditionalTable]) -> list[tuple[list, list]] | None:
        """Per variable, two sequences indexed by unique row: the cumulative
        conditional of the row's context group, and the unique row that
        each bisection result into it lands on.

        A draw at or past the rounded total (bisection result equal to the
        width) lands where the last value with positive probability does.
        A point-mass group gets the empty cumulative sequence, so every
        bisection gives 0 and lands on its only reachable row.
        Returns None when a training row's context is missing from the
        tables or a positive-probability value leads outside the training
        rows: the index space then does not hold the chain.
        """
        n = len(self.rows)
        only = [(r,) for r in range(n)]
        layout = []
        for i, (group, ctx) in enumerate(zip(self.groups, self.contexts)):
            table = tables[i].table
            probs = [table.get(key) for key in map(tuple, ctx.tolist())]
            if any(p is None for p in probs):
                return None
            probs = np.array(probs)
            n_groups, width = probs.shape
            target = np.full((n_groups, width + 1), -1)
            target[group, self.rows[:, i]] = np.arange(n)
            positive = probs > 0
            n_positive = positive.sum(axis=1)
            if (n_positive == 0).any() or (positive & (target[:, :width] < 0)).any():
                return None
            last = width - 1 - np.argmax(positive[:, ::-1], axis=1)
            target[:, width] = target[np.arange(n_groups), last]
            spread = np.flatnonzero(n_positive > 1)
            by_group = dict(zip(spread.tolist(), zip(np.cumsum(probs[spread], axis=1).tolist(),
                                                    target[spread].tolist())))
            sole = target[:, width].tolist()
            steps = [by_group.get(g) or ((), only[sole[g]]) for g in group.tolist()]
            layout.append(([cum for cum, _ in steps], [nxt for _, nxt in steps]))
        return layout


def estimate_conditionals(train: AgentPool) -> list[ConditionalTable]:
    """Count-and-normalize conditionals for every variable.

    Contexts are present iff observed in training data; absent contexts
    stay absent (no smoothing), which is exactly what makes sampling zeros
    unreachable.
    """
    if len(train) == 0:
        raise DataError("cannot estimate conditionals from an empty pool")
    index = ContextGroups.from_codes(pool_to_codes(train))
    widths = train.schema.value_counts
    tables = []
    for i, (group, ctx) in enumerate(zip(index.groups, index.contexts)):
        width = widths[i]
        counts = np.bincount(group * width + index.rows[:, i], weights=index.counts,
                             minlength=len(ctx) * width).reshape(len(ctx), width)
        probs = counts / counts.sum(axis=1, keepdims=True)
        tables.append(ConditionalTable(i, dict(zip(map(tuple, ctx.tolist()), probs))))
    return tables


def gibbs_step(row: tuple, tables: list[ConditionalTable],
               rng: np.random.Generator) -> tuple:
    """One systematic scan: update every variable in schema order, each
    conditioned on the freshest values of all the others.

    A draw at or past the last cumulative probability, which can round
    below 1, picks the last value with positive probability.
    """
    current = list(row)
    for i, table in enumerate(tables):
        ctx = tuple(current[:i] + current[i + 1:])
        probs = table.table.get(ctx)
        if probs is None:
            raise UnreachableContextError(
                f"variable {i}: context {ctx} never observed in training")
        value = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        if value == len(probs):
            value = int(np.flatnonzero(probs)[-1])
        current[i] = value
    return tuple(current)


def _run_on_index(layout, row: int, config: ChainConfig,
                  rng: np.random.Generator) -> list[int]:
    """Run a chain from unique row ``row``; return the unique rows kept.
    Uniforms come in blocks of whole scans, in the order single draws per
    update would take them."""
    total = config.warmup + config.thinning * config.target_count
    per_block = max(1, UNIFORM_BLOCK // len(layout))
    kept = []
    scan = 0
    while scan < total:
        n_scans = min(per_block, total - scan)
        draws = iter(rng.random(n_scans * len(layout)).tolist())
        for _ in range(n_scans):
            for cum, nxt in layout:
                row = nxt[row][bisect_right(cum[row], next(draws))]
            scan += 1
            if scan > config.warmup and (scan - config.warmup) % config.thinning == 0:
                kept.append(row)
    return kept


def run_chain(tables: list[ConditionalTable], train: AgentPool,
              config: ChainConfig) -> tuple[AgentPool, dict]:
    """Run one chain on the unique rows of ``train``: warm up, then keep
    every ``thinning``-th state until ``target_count`` rows are emitted.

    Total iterations are warmup + thinning * target_count, each iteration
    being one full-scan step. The start (``config.init``, or a random
    training row) must be a training row, and ``tables`` must keep the
    chain on the training rows (:meth:`ContextGroups.transitions`); either
    failing is a DataError. Diagnostics report iterations, the number of
    distinct emitted rows, the number of probability islands in the
    training rows, and the rows in the island the chain starts on.
    """
    if len(train) == 0:
        raise DataError("a Gibbs chain needs a non-empty training pool")
    schema = train.schema
    rng = np.random.default_rng(config.seed)
    train_codes = pool_to_codes(train)
    index = ContextGroups.from_codes(train_codes)
    if config.init == "random-from-train":
        row = train_codes[rng.integers(len(train))]
    else:
        row = pool_to_codes(AgentPool.from_rows(schema, [tuple(config.init)], "train"))[0]
    matches = np.flatnonzero((index.rows == row).all(axis=1))
    if len(matches) == 0:
        raise DataError(f"the chain's start {tuple(config.init)!r} is not a training row")
    start = int(matches[0])
    layout = index.transitions(tables)
    if layout is None:
        raise DataError("the conditional tables lead outside the training rows "
                        "or lack a training row's context")
    kept = np.asarray(_run_on_index(layout, start, config, rng), dtype=np.intp)
    pool = codes_to_pool(index.rows[kept], schema, provenance="generated", rng=rng)
    labels = index.island_labels()
    diagnostics = {
        "iterations": config.warmup + config.thinning * config.target_count,
        "distinct_rows": len(np.unique(kept)),
        "islands": len(np.unique(labels)),
        "start_island_rows": int(np.sum(labels == labels[start])),
        "warmup": config.warmup,
        "thinning": config.thinning,
        "target_count": config.target_count,
        "seed": config.seed,
    }
    return pool, diagnostics


# the Gibbs model file: a chain's resolved settings, without the per-draw target count
CHAIN_SETTINGS = ("warmup", "thinning", "seed")


def chain_to_dict(config: ChainConfig) -> dict:
    return {"format": "agentsynth-gibbs", "version": 2,
            **{key: getattr(config, key) for key in CHAIN_SETTINGS}}


def chain_from_dict(doc: dict, target_count: int) -> ChainConfig:
    """Inverse of :func:`chain_to_dict` for a draw of ``target_count`` rows."""
    if doc.get("format") != "agentsynth-gibbs":
        raise DataError(f"not a Gibbs chain model: {doc.get('format')!r}")
    try:
        return ChainConfig(target_count, **{key: doc[key] for key in CHAIN_SETTINGS})
    except (KeyError, TypeError, ConfigError) as exc:
        raise DataError(f"malformed Gibbs chain model: {exc!r}") from None


def write_diagnostics(diagnostics, path) -> None:
    with open(path, "w") as fh:
        json.dump(diagnostics, fh, indent=2)
